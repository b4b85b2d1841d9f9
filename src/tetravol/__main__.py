"""``python -m tetravol``: the same command line as the ``tetravol`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
