"""DNA copy-number reconstruction from SNP-array LogR/BAF tracks.

Two reconstruction routes over the same data model: continuous
piecewise-constant estimation by smoothed fused-lasso minimization with
FDR-controlled segment calling, and discrete genotype-state imputation by
dynamic programming. A simulator and benchmark harness round out the
package; the ``cnvfuse`` CLI fronts all of it.
"""

from .dpi import DpiModel, StatePath, dp_impute, dpi_fit
from .errors import (
    CnvFuseError,
    DegenerateSignal,
    NonFiniteInput,
    TooFewSnps,
    TrackFormatError,
    ZeroPivot,
)
from .fused_lasso import BetaFit, solve_mm_block, solve_mm_tdm
from .segment_caller import Call, SegmentCall, call_cnvs, merge_adjacent_calls
from .signal_model import (
    CopyState,
    SnpTrack,
    TEN_STATES,
    TuningConstants,
    default_lambdas,
    estimate_sigma,
)
from .simulate import SimSpec, TruthTrack, generate, run_benchmark, score

__version__ = "0.1.0"

__all__ = [
    "BetaFit",
    "Call",
    "CnvFuseError",
    "CopyState",
    "DegenerateSignal",
    "DpiModel",
    "NonFiniteInput",
    "SegmentCall",
    "SimSpec",
    "SnpTrack",
    "StatePath",
    "TEN_STATES",
    "TooFewSnps",
    "TrackFormatError",
    "TruthTrack",
    "TuningConstants",
    "ZeroPivot",
    "call_cnvs",
    "default_lambdas",
    "dp_impute",
    "dpi_fit",
    "estimate_sigma",
    "generate",
    "merge_adjacent_calls",
    "run_benchmark",
    "score",
    "solve_mm_block",
    "solve_mm_tdm",
    "__version__",
]
