"""Test-session setup: pin every BLAS pool to one thread before numpy is imported.

The tests work on matrices of dimension 2 to 2048, where a second BLAS thread
gains little and, on a machine whose other cores are busy, spins against the
occupied core; the benchmark in perfbench/run.py pins the same variables.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
