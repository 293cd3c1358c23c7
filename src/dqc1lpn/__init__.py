"""One-clean-qubit trace estimation and noise-tolerant parity learning.

The root exports only ``__version__``; import names from their modules.
"""

__version__ = "0.1.0"
