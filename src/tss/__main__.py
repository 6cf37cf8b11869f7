"""`python -m tss ...` runs the command line, as the `tss` script does."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
