"""The public surface of the package, frozen.

One entry point per paper quantity: a name added to twinmeans.__all__ must
be added here too, so the surface cannot grow unnoticed.
"""

import twinmeans

PUBLIC = [
    "AsymptoticCheck", "BetaSpec", "C_RANGE", "CacheFormatError", "CapacityError",
    "ConstantsBundle", "CriterionReport", "DEFAULT_SEGMENT_SIZE", "EULER_GAMMA",
    "EmptySetError", "ExactSum", "GapRecord", "IntervalPrimes", "IntervalProduct",
    "IntervalReduction", "MAX_SIEVE_LIMIT", "MeanLimit", "MeanValue", "PrimeFile",
    "ProductMethod", "RatioElement", "RatioSet", "SelftestReport",
    "Theorem1Row", "TwinPairs", "__version__", "beta_for", "build_ratio_set",
    "cached_primes_up_to", "compute_constants", "derived_constants", "interval_primes",
    "interval_windows", "iter_prime_segments", "lemma1_report", "lemma2_report",
    "load_cache", "log_t_product", "max_element", "max_gap_up_to", "mean_limit",
    "mertens_report", "min_element", "next_prime_after", "power_mean", "prime_count",
    "prime_stream", "prime_sums", "primes_up_to", "reduce_interval", "run_selftest",
    "save_cache", "theorem1_report", "theorem1_scan", "twin_criterion",
    "twin_pairs_in",
]


def test_public_names_are_frozen_and_resolve():
    assert sorted(twinmeans.__all__) == PUBLIC
    assert len(set(twinmeans.__all__)) == len(twinmeans.__all__)
    for name in PUBLIC:
        assert getattr(twinmeans, name) is not None, name
