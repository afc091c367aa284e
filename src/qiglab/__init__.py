"""Numerical laboratory for information geometry on density matrices.

Power/log embeddings of positive matrices, matrix-monotone metric kernels,
the induced pair of covariant derivatives, and verification drivers for the
duality, potential, uniqueness, monotonicity and entropy-projection
statements the library is built to test.

The package re-exports each library module's ``__all__``; that list is the
one statement of what the module makes public. The modules load the first
time a package-level name, ``__all__`` or ``dir()`` is asked for, so
importing one module (``qiglab.cli`` for a launch) loads only what it uses.
"""

import importlib

_MODULES = (
    "linalg",
    "sampling",
    "manifold",
    "metrics",
    "monotonicity",
    "consistency",
    "connections",
    "bands",
    "duality",
    "newton",
    "potential",
    "gibbs",
)

__version__ = "0.1.0"


def _export() -> list:
    """Import every library module, bind its public names here, and return ``__all__``."""
    names = []
    for module in (importlib.import_module(f".{m}", __name__) for m in _MODULES):
        names += module.__all__
        globals().update((name, getattr(module, name)) for name in module.__all__)
    globals()["__all__"] = names
    return names


def __getattr__(name: str):
    # dunder probes (copy, pickle, doctest, ...) must not load the library, and
    # ``from qiglab import cli`` loads the one module it names
    if name.startswith("__") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if name in _MODULES or name == "cli":
        return importlib.import_module(f".{name}", __name__)
    _export()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list:
    return sorted(set(globals()) | set(_export()))
