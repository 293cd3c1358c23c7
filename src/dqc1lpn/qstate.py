"""Empty: the dense reference simulator is test code, in
``tests/dense_reference.py``, and no command runs it.

This module defines no name.  It stays only because the benchmark's
tracer (``perfbench/tracer.py``) imports every module of its ``MODULES``
tuple by name under ``--trace 1``; it goes once that tuple drops
``qstate``.
"""
