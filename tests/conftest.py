"""Settings shared by the whole suite: one hypothesis profile, so every
property test runs the same derandomized examples on every run, with no
example database and no per-example deadline; each test sets only its own
max_examples."""

from hypothesis import settings

settings.register_profile(
    "treecost", derandomize=True, database=None, deadline=None
)
settings.load_profile("treecost")
