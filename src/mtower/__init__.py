"""Towers of characteristic p-Frattini covers of finite groups, braid orbits
on their Nielsen classes, and cusp/genus/Schur-quotient diagnostics."""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy_module(name: str):
    """The module `name`, loaded on first attribute access (the stdlib
    LazyLoader recipe); the module itself when it is already imported.
    A cache hit never touches numpy or the analysis modules, so it never
    pays for their import.  A submodule is also bound on its package, as
    an import binds it.  mtower starts no threads: LazyLoader is not
    thread-safe before 3.12."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    package, _, child = name.rpartition(".")
    if package:
        setattr(sys.modules[package], child, module)
    return module


# The modules bind numpy with `from . import np`: an `import numpy`
# statement reads the lazy module's __spec__ and so loads it at once.
np = _lazy_module("numpy")
