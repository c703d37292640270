"""Upper bounds on the diversity of unitary constellations.

Numerically evaluates the Haar fraction of metric balls in U(n), solves the
packing equality for the critical radius, and turns it into upper bounds on
the diversity sum and product, alongside random-search baselines.

``import upb`` loads no submodule and no numpy: each public name resolves on
first access to the submodule that exports it, and numpy loads on the first
numeric operation (see _lazy_numpy).
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

# the submodules that export public names; their __all__ lists are disjoint
# (tests/test_readme.py checks), so the lookup order does not matter
_SUBMODULES = ("bounds", "constellation", "errors", "matrices", "weyl")


def _lazy_numpy():
    """The numpy module, whose __init__ runs at the first attribute access.

    Returns sys.modules["numpy"] if numpy is already imported. Otherwise it
    puts a lazy module under "numpy" in sys.modules (the importlib.util
    LazyLoader recipe), so every later ``import numpy`` in the process gets
    that module too. On Python < 3.12 LazyLoader takes no lock: two threads
    that make the first numpy access at the same moment are unsupported.
    """
    module = sys.modules.get("numpy")
    if module is None:
        import importlib.util

        spec = importlib.util.find_spec("numpy")
        if spec is None:
            raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules["numpy"] = module
        spec.loader.exec_module(module)
    return module


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = [*(n for sub in _SUBMODULES for n in __getattr__(sub).__all__), "__version__"]
    else:
        for sub in _SUBMODULES:
            module = __getattr__(sub)
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
