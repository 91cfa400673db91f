"""The five compiled LAPACK/BLAS routines the package calls, loaded from
scipy's f2py wrapper modules `scipy/linalg/_flapack` and `_fblas` without
importing `scipy.linalg`.

`scipy.linalg.lapack` and `scipy.linalg.blas` re-export these wrappers
(`from scipy.linalg._flapack import *`), so the routines are the same
Fortran entry points.  Importing `scipy.linalg` would also run its
`__init__`, which loads numpy's lazy submodules (`numpy.f2py`,
`numpy.testing`, ...): about 0.2 s and 24 MB of every process's start
(2-CPU host), for code the package never calls.  A scipy without the
wrappers fails here with ImportError; there is no second path.
"""
import os
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec

_SCIPY = find_spec("scipy")
_LINALG = [os.path.join(p, "linalg") for p in _SCIPY.submodule_search_locations] if _SCIPY else []


def _wrapper(name: str):
    spec = PathFinder.find_spec(name, _LINALG)
    if spec is None:
        raise ImportError(f"scipy's compiled wrapper linalg/{name} not found", name=name)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _wrapper("_flapack")
dgbtrf, dgbtrs, dgetrf, dgetrs = _flapack.dgbtrf, _flapack.dgbtrs, _flapack.dgetrf, _flapack.dgetrs
dgbmv = _wrapper("_fblas").dgbmv
