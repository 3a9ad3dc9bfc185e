"""Settings shared by the whole suite.

BLAS runs on one thread: its default thread pool spins when another busy
process shares a small host, which made a 0.3 s test take 14 s.  The
variables are set before anything imports numpy (hypothesis does not).

One hypothesis profile, so every property test runs the same derandomized
examples on every run, with no example database and no per-example
deadline; each test sets only its own max_examples."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from hypothesis import settings  # noqa: E402

settings.register_profile(
    "treecost", derandomize=True, database=None, deadline=None
)
settings.load_profile("treecost")
