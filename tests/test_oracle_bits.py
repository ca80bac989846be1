"""The oracle values of the mechanism and family layers, bit for bit.

The golden CSVs print 12 significant digits, so a change that moves the
last bit of psi, a flow or an admissibility residual does not show there.
tests/data/oracle_bits.json holds `float.hex` of 185 such values:
psi (scalar and array), dpsi, v_of, u_of, tail_time at powers 1 and 2 and
psi_inverse on five mechanisms, and every `Condition.worst` of
check_admissibility on six families and grids.

numpy's np.exp, np.expm1 and np.log1p run AVX512 code on CPUs that have
it, and the C library's functions elsewhere; the two differ in the last
bit on a few per cent of inputs.  So the file holds one set of values per
dispatch, and the test picks the set by a probe: an input where the AVX512
np.expm1 differs from math.expm1.  A change meant to keep every oracle bit
must pass unchanged; one that moves bits on purpose regenerates both sets,
from the repository root, with

    PYTHONPATH=src python3 tests/test_oracle_bits.py
    NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" PYTHONPATH=src python3 tests/test_oracle_bits.py

(each run rewrites the set of the dispatch it runs under and keeps the
other; on a CPU without AVX512 only the second set can be made).
"""

import json
import math
from pathlib import Path

import numpy as np

from levytree.family import (
    AdmissibilityReport,
    ReflectedFamily,
    ShiftFamily,
    check_admissibility,
    family_from_dict,
)
from levytree.mechanism import Mechanism, PointMass

GOLDEN = Path(__file__).parent / "data" / "oracle_bits.json"
# AVX512 np.expm1(1.0) is one ulp off math.expm1(1.0)
PROBE = 1.0


def dispatch():
    """The name of the numpy code the oracle values here were computed with."""
    return "avx512" if float(np.expm1(PROBE)) != math.expm1(PROBE) else "libm"


# the benchmark's three flow-identity mechanisms, one gamma-only and one
# supercritical with two gamma densities
MECHANISMS = {
    "square": {"b": 0.0, "c": 1.0, "m": []},
    "quadratic": {"b": 1.0, "c": 1.0, "m": []},
    "point_gamma": {"b": 0.5, "c": 1.0, "m": [{"type": "point", "z": 1.3, "w": 0.8},
                                              {"type": "gamma", "k": 1.5, "rho": 2.0, "w": 0.6}]},
    "gamma": {"b": 0.3, "c": 0.7, "m": [{"type": "gamma", "k": 2.0, "rho": 1.5, "w": 0.9}]},
    "two_gamma": {"b": -0.4, "c": 0.5, "m": [{"type": "gamma", "k": 1.5, "rho": 2.0, "w": 0.6},
                                             {"type": "gamma", "k": 0.7, "rho": 0.8, "w": 0.3}]},
}
# both sides of every primitive's series bound, and a negative lam above -rho
LAMS = (-0.3, 1e-5, 4e-4, 0.3, 2.0, 7.5)

FAMILIES = {
    "lineardrift": {"type": "lineardrift", "window": [None, None], "left_closed": None,
                    "b_rate": 1.0, "c": 1.0},
    "shift": {"type": "shift", "window": [-0.25, 3.0], "left_closed": None,
              "base": {"b": 0.0, "c": 1.0, "m": [{"type": "point", "z": 1.0, "w": 1.0}]}},
    "truncation": {"type": "truncation", "window": [-1.0, 1.2], "left_closed": None,
                   "base": {"b": 0.1, "c": 0.8, "m": [{"type": "point", "z": 0.6, "w": 0.7},
                                                      {"type": "point", "z": 1.5, "w": 0.4}]},
                   "h0": 2.0, "slope": 1.0, "g_rate": 0.3},
}


def _reports():
    """(name, report) for the three benchmark families at their default grid,
    a reflected family, and custom grids."""
    fams = {name: family_from_dict(d) for name, d in FAMILIES.items()}
    reflected = ReflectedFamily(ShiftFamily(Mechanism(0.0, 1.0, (PointMass(1.2, 0.5),)),
                                            window=(-0.8, 0.1)))
    out = [(name, check_admissibility(fam)) for name, fam in fams.items()]
    out.append(("reflected", check_admissibility(reflected)))
    out.append(("shift_custom_grid",
                check_admissibility(fams["shift"], t_grid=[2.5, -0.25, 0.1, 0.7, 1.9])))
    out.append(("truncation_custom_grid",
                check_admissibility(fams["truncation"], t_grid=np.linspace(-1.0, 1.2, 14),
                                    lam_grid=(0.05, 0.7, 3.0))))
    return out


def oracle_values():
    """{label: float} of every value the golden file pins."""
    vals = {}
    for name, d in MECHANISMS.items():
        mech = Mechanism.from_dict(d)
        eta = mech.eta
        vals[f"{name}.eta"] = eta
        for lam, arr in zip(LAMS, mech.psi(np.array(LAMS))):
            vals[f"{name}.psi({lam!r})"] = mech.psi(lam)
            vals[f"{name}.psi_array({lam!r})"] = arr
            vals[f"{name}.dpsi({lam!r})"] = mech.dpsi(lam)
        for a in (0.2, 1.0, 3.0):
            vals[f"{name}.v_of({a!r})"] = mech.v_of(a)
        for a, lam in ((0.5, 0.5), (0.5, 3.0), (2.0, 1.5)):
            vals[f"{name}.u_of({a!r}, {lam!r})"] = mech.u_of(a, lam)
        for gap in (0.5, 3.0):
            for power in (1, 2):
                vals[f"{name}.tail_time(eta+{gap!r}, {power})"] = mech.tail_time(eta + gap, power)
        for y in (0.5, 4.0):
            vals[f"{name}.psi_inverse({y!r})"] = mech.psi_inverse(y)
    for name, report in _reports():
        for field in AdmissibilityReport.__dataclass_fields__:
            vals[f"{name}.{field}.worst"] = getattr(report, field).worst
    return {label: float(v) for label, v in vals.items()}


def test_oracle_values_match_the_golden_bits():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[dispatch()]
    got = {label: v.hex() for label, v in oracle_values().items()}
    assert sorted(got) == sorted(golden)
    moved = {label: (golden[label], h) for label, h in got.items() if h != golden[label]}
    assert not moved, moved


if __name__ == "__main__":
    sets = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    sets[dispatch()] = {label: v.hex() for label, v in oracle_values().items()}
    GOLDEN.write_text(json.dumps(dict(sorted(sets.items())), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(sets[dispatch()])} {dispatch()} values to {GOLDEN}")
