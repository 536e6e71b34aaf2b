"""Command-line entry point: `python -m qborel COMMAND [options]`."""

import sys

from .cli.main import main

if __name__ == "__main__":
    sys.exit(main())
