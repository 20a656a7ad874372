"""`python -m liftreach`: the liftreach command line."""
from .cli import main

raise SystemExit(main())
