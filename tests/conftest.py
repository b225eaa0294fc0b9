"""Suite-wide set-up that must run before numpy is imported.

numpy's BLAS would otherwise run the simplex's small dense solves on one
thread per core; beside any other busy process that oversubscription
slows some tests by more than 30x.  ``setdefault`` keeps a value the
caller exported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
