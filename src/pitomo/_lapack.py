"""The seven compiled LAPACK and BLAS routines pitomo calls, taken from
scipy's f2py modules ``scipy/linalg/_flapack`` and ``_fblas``.

These are the routines ``scipy.linalg.lapack`` and ``scipy.linalg.blas``
re-export, so every result is theirs bit for bit.  The modules are loaded
from scipy's ``linalg`` directory by path, without running
``scipy/linalg/__init__.py``: that package init imports scipy's array-API
layer, which pulls in numpy's lazy submodules (``numpy.f2py``,
``numpy.testing`` and what they import) and cost about 24 MB of peak RSS
and 0.14 s of every ``import pitomo`` (64 MB and 0.25 s against 40 MB
and 0.11 s, one BLAS thread on a 2-core host).  ``import scipy`` itself stays, because it
sets up scipy's bundled shared libraries on each platform.  The routines
load with this module, so no timed call pays for the load.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os

import numpy as np
import scipy

__all__ = ["check_info", "dgeqrf", "dorgqr", "dpotrf", "dpotrs", "dsyrk", "dtrsm", "ztrtri"]

_LINALG = os.path.join(scipy.__path__[0], "linalg")


def _load(name: str):
    """The compiled module ``scipy.linalg.<name>``, executed from its file
    in scipy's ``linalg`` directory."""
    spec = importlib.machinery.PathFinder.find_spec(f"scipy.linalg.{name}", [_LINALG])
    if spec is None:
        raise ImportError(f"scipy's compiled module linalg/{name} is missing from {_LINALG}",
                          name=f"scipy.linalg.{name}", path=_LINALG)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load("_flapack")
_fblas = _load("_fblas")

dgeqrf = _flapack.dgeqrf
dorgqr = _flapack.dorgqr
dpotrf = _flapack.dpotrf
dpotrs = _flapack.dpotrs
ztrtri = _flapack.ztrtri
dsyrk = _fblas.dsyrk
dtrsm = _fblas.dtrsm


def check_info(routine: str, info: int) -> None:
    """Raise on a LAPACK status ``info`` other than 0: ``np.linalg.LinAlgError``
    when info > 0 (the routine stopped at that pivot: a leading minor not
    positive definite for ``dpotrf``, a zero diagonal entry for ``ztrtri``),
    ``ValueError`` when info < 0 (argument -info was illegal)."""
    if info > 0:
        raise np.linalg.LinAlgError(f"{routine}: failed at pivot {info}")
    if info < 0:
        raise ValueError(f"{routine}: illegal value in argument {-info}")
