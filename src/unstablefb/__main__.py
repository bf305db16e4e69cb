"""`python -m unstablefb`: the command line of cli.main."""
from .cli import main
raise SystemExit(main())
