"""Charge operators for the second-quantized Dirac field at desk scale:
finite-mode Fock spaces, spectral projectors, conjugation-invariant bases,
and the truncated region-charge series on a cube.

Submodules are imported lazily, on first attribute access: `import
fockcharge` loads only what a caller uses, and `python -m fockcharge.cli`
runs without runpy finding the module already imported.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("bessel", "charge", "cli", "divergence", "fock", "involution",
               "modes", "quadrature", "spinor", "suites")

__all__ = list(_SUBMODULES) + ["__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
