"""``python -m precats``: the command line of ``precats.cli``."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
