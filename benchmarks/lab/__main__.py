"""``PYTHONPATH=src python -m benchmarks.lab`` -- see :mod:`benchmarks.lab.cli`."""

import sys

from .cli import main

sys.exit(main(sys.argv[1:]))
