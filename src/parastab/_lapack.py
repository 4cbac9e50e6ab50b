"""The three double-precision LAPACK routines parastab calls, from scipy's
f2py extension ``scipy/linalg/_flapack``, loaded without running
``scipy/__init__`` or ``scipy/linalg/__init__``: importing scipy.linalg
also imports scipy's array-API layer, which costs more start-up than the
rest of parastab's imports together.

The extension keeps its name ``scipy.linalg._flapack``, so the loader
registers it in sys.modules and a later ``import scipy.linalg`` reuses it:
``get_lapack_funcs`` then hands out these very routine objects.
"""

from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec
from pathlib import Path

_NAME = "scipy.linalg._flapack"
_linalg_dir = str(Path(find_spec("scipy").submodule_search_locations[0], "linalg"))
_spec = PathFinder.find_spec(_NAME, [_linalg_dir])
_flapack = module_from_spec(_spec)
_spec.loader.exec_module(_flapack)

dstevd = _flapack.dstevd
dpttrf = _flapack.dpttrf
dpttrs = _flapack.dpttrs
