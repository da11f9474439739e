"""Run provenance: whether the optional JIT package is installed.

No code path depends on it: the SGNS kernel is numpy only (see
:mod:`fflab.kernels`). The package is looked up, never imported.
"""

import importlib.util

HAVE_NUMBA = importlib.util.find_spec("numba") is not None
