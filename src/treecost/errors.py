"""Exception hierarchy for the treecost library."""


class TreecostError(Exception):
    """Base class for every error raised by this library."""


class NotATree(TreecostError):
    """Edge list is disconnected, cyclic, or has the wrong edge count."""


class UnknownRoot(TreecostError):
    """Requested root is not among the listed parties."""


class UnknownParty(TreecostError):
    """Party identifier does not exist in the tree."""


class UnknownEdge(TreecostError):
    """Edge does not belong to the tree."""


class IncompatibleDims(TreecostError):
    """Named state family is undefined for the requested dimensions."""


class DimensionMismatch(TreecostError):
    """Operands live on different or incompatible dimensions."""


class MalformedTensors(TreecostError):
    """Decomposition or MPS tensors are structurally inconsistent."""


class NotALine(TreecostError):
    """Operation requires a line-shaped tree rooted at an end vertex."""


class OutOfRangeIndex(TreecostError):
    """Forced outcome index outside 0..K_v-1 at a measuring vertex."""


class InsufficientResource(TreecostError):
    """An edge resource is smaller than the Schmidt rank it must carry."""

    def __init__(self, edge_label: int, required: int, supplied: int):
        self.edge_label = edge_label
        self.required = required
        self.supplied = supplied
        super().__init__(
            f"edge e{edge_label} needs a rank-{required} resource, got {supplied}"
        )


class ZeroProbabilityBranch(TreecostError):
    """Forced outcome sequence has probability 0: at some measuring vertex
    the base annihilates the branch's register (a norm that is zero or
    nan)."""


class MalformedProgram(TreecostError):
    """Measurement program is internally inconsistent."""


class EnumerationCapExceeded(TreecostError):
    """Type-class count too large; use the second-order expansion instead."""


class InvalidEpsilon(TreecostError):
    """Error parameter outside its valid open interval."""


class ThresholdBudgetExceeded(TreecostError):
    """Per-edge thresholds exceed the total error budget."""


class InvalidEta(TreecostError):
    """Lower-bound slack parameter outside its valid range."""


class InvalidGrid(TreecostError):
    """Figure grid parameters are empty or malformed."""


class DimensionCapExceeded(TreecostError):
    """Requested computation exceeds the configured amplitude cap."""


class ZeroNorm(TreecostError):
    """All amplitude mass was projected out; nothing left to normalize."""


class DegenerateDenominator(ZeroNorm):
    """Projected block keeps weight below 1e-12, too little to normalize:
    approx_state's one refusal, met alike by every reader of the projected
    block (its distance, its union bound and the construction on it)."""
