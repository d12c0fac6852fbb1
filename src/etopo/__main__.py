"""Entry point for `python -m etopo`: the same command line as `etopo`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
