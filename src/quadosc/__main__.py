"""``python -m quadosc``: the command line of :mod:`quadosc.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
