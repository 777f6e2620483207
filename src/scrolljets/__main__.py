"""Run the command-line interface: ``python -m scrolljets <verb> ...``."""
from .cli import main

raise SystemExit(main())
