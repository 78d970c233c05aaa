"""`python -m whilep`: the command line, exiting with its status."""
from .cli import main

raise SystemExit(main())
