"""ledger — the end-to-end benchmark of the CAROL stack.

Drives the program through ``repro.api`` only, from outside ``src/``.
See ``ledger/README.md``; the entry point is ``ledger/run.py``.
"""
