"""Two-clock performance lab for the NFP reproduction.

Four named workloads, host-clock and model-clock metrics, and a
per-layer traced run; see README.md in this directory.  The lab drives
only public entry points of :mod:`repro` and measures every layer from
outside -- nothing here is imported by ``src/``, and nothing here imports
``repro.bench``.
"""
