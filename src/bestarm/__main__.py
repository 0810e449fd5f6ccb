"""`python -m bestarm`: the same command line as the `bestarm` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
