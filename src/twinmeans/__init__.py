"""Numerical checks for prime-interval ratio sets and their power means.

The package is organised around one pipeline: sieve primes in an interval
(x, y], form the exact ratios p_n / (p_{n+1} - 2), take power means of those
ratios, and compare the outcome against the Mertens-type constants and
asymptotic products that predict its size.  Everything is sized for a
desk machine; hard capacity caps are enforced rather than guessed at.
"""

from .analytic import (
    EULER_GAMMA,
    AsymptoticCheck,
    ConstantsBundle,
    ExactSum,
    IntervalProduct,
    ProductMethod,
    compute_constants,
    derived_constants,
    lemma1_report,
    log_t_product,
    mertens_report,
    prime_sums,
)
from .errors import CacheFormatError, CapacityError, EmptySetError
from .means import (
    IntervalReduction,
    MeanLimit,
    MeanValue,
    RatioSet,
    build_ratio_set,
    max_element,
    mean_limit,
    min_element,
    power_mean,
    reduce_interval,
)
from .selftest import SelftestReport, run_selftest
from .sieve import (
    DEFAULT_SEGMENT_SIZE,
    MAX_SIEVE_LIMIT,
    GapRecord,
    IntervalPrimes,
    PrimeFile,
    cached_primes_up_to,
    interval_primes,
    interval_windows,
    iter_prime_segments,
    load_cache,
    max_gap_up_to,
    prime_count,
    prime_stream,
    save_cache,
    twin_pairs_in,
)
from .verify import (
    C_RANGE,
    BetaSpec,
    CriterionReport,
    Theorem1Row,
    TwinPairs,
    beta_for,
    lemma2_report,
    theorem1_report,
    theorem1_scan,
    twin_criterion,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticCheck",
    "BetaSpec",
    "C_RANGE",
    "CacheFormatError",
    "CapacityError",
    "ConstantsBundle",
    "CriterionReport",
    "DEFAULT_SEGMENT_SIZE",
    "EULER_GAMMA",
    "EmptySetError",
    "ExactSum",
    "GapRecord",
    "IntervalPrimes",
    "IntervalProduct",
    "IntervalReduction",
    "MAX_SIEVE_LIMIT",
    "MeanLimit",
    "MeanValue",
    "PrimeFile",
    "ProductMethod",
    "RatioSet",
    "SelftestReport",
    "Theorem1Row",
    "TwinPairs",
    "beta_for",
    "build_ratio_set",
    "cached_primes_up_to",
    "compute_constants",
    "derived_constants",
    "interval_primes",
    "interval_windows",
    "iter_prime_segments",
    "lemma1_report",
    "lemma2_report",
    "load_cache",
    "log_t_product",
    "max_element",
    "max_gap_up_to",
    "mean_limit",
    "mertens_report",
    "min_element",
    "power_mean",
    "prime_count",
    "prime_sums",
    "prime_stream",
    "reduce_interval",
    "run_selftest",
    "save_cache",
    "theorem1_report",
    "theorem1_scan",
    "twin_criterion",
    "twin_pairs_in",
    "__version__",
]
