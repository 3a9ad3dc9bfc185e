"""Numerical tolerances and size caps shared across the library.

Values are module-level constants so call sites can override per call where a
function exposes the knob; the dimension cap (TREECOST_DIM_CAP overrides it)
is applied by check_dim to every allocation that grows with N, n or a rank.
"""

import os
from math import prod

from .errors import DimensionCapExceeded

# Relative singular-value cutoff deciding Schmidt ranks.
RANK_TOL = 1e-9

# Pure-state norm check.
NORM_TOL = 1e-9

# Measurement-set completeness deviation allowed at any vertex.
COMPLETENESS_TOL = 1e-10

# Minimum acceptable branch fidelity for a successful construction.
FIDELITY_TOL = 1e-9

# Eigenvalues closer than this (relative) are merged into one spectrum entry.
SPECTRUM_MERGE_RTOL = 1e-12

# Eigenvalues below this fraction of the largest are treated as zero.
SPECTRUM_DROP_RTOL = 1e-12

# Exact spectrum-entropy evaluation refuses more type classes than this.
TYPE_CLASS_CAP = 2_000_000

# Total amplitude count allowed for any state, including n-copy states.
DEFAULT_DIM_CAP = 2 ** 22


def dim_cap() -> int:
    """Amplitude cap, honoring the TREECOST_DIM_CAP environment override."""
    raw = os.environ.get("TREECOST_DIM_CAP")
    if raw is None:
        return DEFAULT_DIM_CAP
    return int(raw)


def size_past(factors, power: int, cap: int) -> str | None:
    """The product of factors (an int or a sequence of them) to the power,
    as text if it exceeds cap, else None.  It is at least 2^k for k =
    power * sum(bit_length(f) - 1): once k passes both the cap's bit length
    and 128 it is past the cap unbuilt, "at least 2^k" (unless a factor is
    0); below that it is built and compared exactly, so a size equal to the
    cap fits."""
    if not isinstance(factors, (list, tuple)):
        factors = (factors,)
    factors, power = list(map(int, factors)), int(power)
    k = power * (sum(map(int.bit_length, factors)) - len(factors))
    if k > max(cap.bit_length(), 128) and all(factors):
        return f"at least 2^{k}"
    size = prod(factors) ** power
    return str(size) if size > cap else None


def check_dim(what: str, factors, power=1, unit="amplitudes", cap=None):
    """Refuse a `what` of prod(factors)**power `unit` past the cap
    (dim_cap() unless given) before it is built: "<what> spans <size>
    <unit>, cap <cap>"."""
    cap = dim_cap() if cap is None else cap
    size = size_past(factors, power, cap)
    if size is not None:
        raise DimensionCapExceeded(f"{what} spans {size} {unit}, cap {cap}")
