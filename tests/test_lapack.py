"""`dpsched._lapack` binds scipy's own compiled routines: each is the same
Fortran entry point that `scipy.linalg.lapack` or `scipy.linalg.blas`
exports, so loading them without `scipy.linalg` changes no number.  A scipy
that moves or rewraps one of them fails here."""
import ctypes

import pytest
from scipy.linalg import blas, lapack

from dpsched import _lapack

# a private prototype, so the shared ctypes.pythonapi entry keeps its types
capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


@pytest.mark.parametrize(
    "name, scipy_module",
    [("dgbtrf", lapack), ("dgbtrs", lapack), ("dgetrf", lapack), ("dgetrs", lapack),
     ("dgbmv", blas)],
)
def test_routine_is_scipys(name, scipy_module):
    ours = capsule_pointer(getattr(_lapack, name)._cpointer, None)
    assert ours
    assert ours == capsule_pointer(getattr(scipy_module, name)._cpointer, None)


def test_missing_wrapper_raises_import_error():
    with pytest.raises(ImportError, match="linalg/_no_such_wrapper not found"):
        _lapack._wrapper("_no_such_wrapper")
