"""`python -m levytree` runs the levytree command line."""

from .cli import main

raise SystemExit(main())
