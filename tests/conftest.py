import os
import tracemalloc

# one BLAS thread, set before numpy loads: numpy's OpenBLAS otherwise
# starts a thread pool at import, and `cli._forked` starts a worker only in
# a process that runs one OS thread, so the tests of the forked route would
# not run
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile("ci")


@pytest.fixture
def traced_peak():
    """probe(fn, *args): (fn(*args), the bytes tracemalloc saw at peak during it).

    Traces this process only, so a forked worker's allocations are not counted.
    """
    def probe(fn, *args):
        tracemalloc.start()
        try:
            return fn(*args), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return probe
