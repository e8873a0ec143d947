import os

# one BLAS thread, set before numpy loads: numpy's OpenBLAS otherwise
# starts a thread pool at import, and `ks2` forks its worker only in a
# process that runs one OS thread (`cli._forks`), so the tests of the
# forked route would not run
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile("ci")
