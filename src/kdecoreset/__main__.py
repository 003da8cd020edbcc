"""`python -m kdecoreset`: the command-line interface of kdecoreset.cli."""

import sys

from .cli import main

__all__ = []

if __name__ == "__main__":
    sys.exit(main())
