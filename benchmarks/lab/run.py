"""Script entry point: ``python3 benchmarks/lab/run.py ...``.

Puts the checkout root (for ``benchmarks.lab``) and ``src`` (for
``repro``) on the path, then hands over to :mod:`benchmarks.lab.cli`.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _main() -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"benchmarks.lab: no program to measure ({src}/repro is missing)",
              file=sys.stderr)
        return 2
    for path in (src, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from benchmarks.lab.cli import main

    return main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(_main())
