"""`python -m porstore`: the same entry point as the `porstore` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
