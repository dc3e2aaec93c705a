"""Local-mixing diagnostics for evenly sampled time series.

The toolkit computes windowed permutation entropy at a range of sampling
strides, scores how strongly the per-window stride ordering deviates
from the monotone ordering expected of a well-resolved signal, and scans
bin-averaging sizes to estimate the scale on which neighboring samples
have been mixed.
"""

from .entropy import (
    PEConfig,
    PETraceSet,
    global_pe,
    multi_tau_pe,
    permutation_entropy,
    trace_blocks,
    windowed_pe,
)
from .errors import InsufficientDataError, InvalidInputError, PemixError
from .generators import (
    LorenzParams,
    MackeyGlassParams,
    lorenz_series,
    lorenz_trajectory,
    mackey_glass_series,
    sine_series,
)
from .ingest import CleaningReport, fill_gaps, load_csv, prefilter, regularize
from .mixing import (
    BinSweepResult,
    bin_average,
    bin_sweep,
    mixing_ansatz,
)
from .ordinal import (
    encode_patterns,
    pattern_distribution,
)
from .reversal import (
    ReversalSeries,
    lambda_for_range,
    reversal_series,
    windowed_rbar,
)
from .series import TimeSeries, read_series_csv, write_series_csv

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "PemixError",
    "InvalidInputError",
    "InsufficientDataError",
    "TimeSeries",
    "read_series_csv",
    "write_series_csv",
    "encode_patterns",
    "pattern_distribution",
    "PEConfig",
    "PETraceSet",
    "permutation_entropy",
    "global_pe",
    "windowed_pe",
    "multi_tau_pe",
    "trace_blocks",
    "ReversalSeries",
    "lambda_for_range",
    "reversal_series",
    "windowed_rbar",
    "BinSweepResult",
    "mixing_ansatz",
    "bin_average",
    "bin_sweep",
    "LorenzParams",
    "MackeyGlassParams",
    "lorenz_series",
    "lorenz_trajectory",
    "mackey_glass_series",
    "sine_series",
    "CleaningReport",
    "load_csv",
    "regularize",
    "fill_gaps",
    "prefilter",
]
