"""``python -m hopfreal``: the same command line as the ``hopfreal`` script."""

import sys

from .cli import main

sys.exit(main())
