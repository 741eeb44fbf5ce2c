"""The exact accumulator: ExactSum gives the bits of one math.fsum over all
its terms, however they are batched, folded or spread over the exponent
range, and the prime sums built on it do not depend on the segment size or
the block size, and hold a fixed buffer beyond the sieve window.
"""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twinmeans import analytic, means, sieve
from twinmeans.analytic import ExactSum

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def bits(v: float) -> bytes:
    return struct.pack("<d", v)


# Any sign, binade and mantissa from the subnormals (2^-1074) up to 2^1012;
# 200 such terms cannot overflow a partial sum, so fsum is defined on them.
term = st.one_of(
    st.builds(
        lambda m, e, s: s * math.ldexp(m, e),
        st.floats(0.5, 1.0, exclude_max=True),
        st.integers(-1074, 1012),
        st.sampled_from([1.0, -1.0]),
    ),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1.0, -1.0]),
)


@PROPERTY_SETTINGS
@given(terms=st.lists(term, max_size=200), cuts=st.lists(st.integers(0, 200)), fold_at=st.integers(1, 9))
def test_exact_sum_matches_fsum_in_any_batches(terms, cuts, fold_at):
    want = bits(math.fsum(terms))
    assert bits(ExactSum(terms).value) == want
    # with a small fold threshold the buckets fold many times
    acc = ExactSum(_fold_at=fold_at)
    edges = sorted({0, len(terms), *(c for c in cuts if c < len(terms))})
    for a, b in zip(edges, edges[1:]):
        acc.add(np.array(terms[a:b]))
        # reading the value mid-stream leaves the state alone
        assert bits(acc.value) == bits(math.fsum(terms[:b]))
    assert bits(acc.value) == want


@PROPERTY_SETTINGS
@given(terms=st.lists(term, min_size=1, max_size=60))
def test_exact_sum_of_terms_and_their_negations_is_zero(terms):
    both = terms + [-v for v in terms]
    assert bits(ExactSum(both).value) == bits(math.fsum(both)) == bits(0.0)


def test_exact_sum_one_binade_and_many_binades():
    rng = np.random.default_rng(5)
    one = rng.uniform(1.0, 2.0, 10_000)             # one binade: the plain-sum path
    many = rng.standard_normal(10_000) * 10.0 ** rng.integers(-300, 300, 10_000)
    for arr in (one, many, np.concatenate((one, many))):
        assert bits(ExactSum(arr).value) == bits(math.fsum(arr))


def test_exact_sum_top_binade_and_non_finite_fall_back_to_fsum():
    big = np.finfo(np.float64).max
    cases = [
        [big, -big, 1.0],
        [big / 2, 3.0, big / 4, -big / 2, -0.5],
        [math.inf, 1.0, -2.0],
        [1.0, -math.inf],
        [math.nan, 1.0],
        [math.inf, math.nan],
    ]
    for terms in cases:
        assert bits(ExactSum(terms).value) == bits(math.fsum(terms))
        acc = ExactSum(_fold_at=2)
        for v in terms:
            acc.add([v])
        assert bits(acc.value) == bits(math.fsum(terms))
    with pytest.raises(ValueError):
        ExactSum([math.inf, -math.inf]).value   # as fsum: -inf + inf


def test_exact_sum_folds_its_buckets_past_the_threshold():
    acc = ExactSum(_fold_at=3)
    acc.add(np.arange(1.0, 11.0))
    assert acc._parts                       # the buckets were folded
    assert acc.value == 55.0


def test_exact_sum_empty_and_zeros():
    assert bits(ExactSum().value) == bits(0.0)
    assert bits(ExactSum([-0.0, -0.0]).value) == bits(math.fsum([-0.0, -0.0]))


def test_power_means_are_the_fsum_of_their_terms():
    rs = means.build_ratio_set(sieve.interval_primes(10**6, 1_010_000))
    vals, n = rs.values, len(rs)
    for alpha in (-800.0, -1.0, 0.5, 2.0, 800.0):
        m = (rs.sup if alpha > 0 else rs.inf).value
        s = math.fsum(((vals / m) ** alpha).tolist()) / n
        assert means.power_mean(rs, alpha).value == m * s ** (1.0 / alpha)
    logs = np.log1p(-rs.k / (rs.primes + rs.k))
    geo = means.mean_limit(rs, means.MeanLimit.ZERO).value
    assert geo == math.exp(math.fsum(logs.tolist()) / n)


# ---------------------------------------------------------------------------
# the narrow-span path: a chunk whose terms span at most 11 binades


@st.composite
def narrow_terms(draw):
    """Terms whose exponents lie in a window of 0-13 binades below a random
    top, of both signs, with zeros; windows at the bottom of the range hold
    subnormals."""
    top = draw(st.one_of(st.integers(-1074, -1000), st.integers(-1074, 1012)))
    exps = st.integers(max(top - draw(st.integers(0, 13)), -1074), top)
    term = st.one_of(
        st.builds(
            lambda m, e, s: s * math.ldexp(m, e),
            st.floats(0.5, 1.0, exclude_max=True),
            exps,
            st.sampled_from([1.0, -1.0]),
        ),
        st.sampled_from([0.0, -0.0]),
    )
    return draw(st.lists(term, max_size=300))


@PROPERTY_SETTINGS
@given(
    terms=narrow_terms(),
    cuts=st.lists(st.integers(0, 300)),
    fold_at=st.one_of(st.integers(1, 16), st.just(1 << 26)),
)
def test_narrow_span_terms_match_fsum_in_any_batches(terms, cuts, fold_at):
    acc = ExactSum(_fold_at=fold_at)
    edges = sorted({0, len(terms), *(c for c in cuts if c < len(terms))})
    for a, b in zip(edges, edges[1:]):
        acc.add(np.array(terms[a:b]))
    assert bits(acc.value) == bits(math.fsum(terms))


def span_chunk(span: int, n_top: int) -> np.ndarray:
    """2^16 terms spanning exactly `span` binades, each lo part at its
    largest magnitude with an odd last bit, and a sum that shows every bit
    of the lo parts.

    2^16 - n_top terms are 1 + L in [1, 2), where L = Q/2 - 2^-52 is the
    largest lo below half the top quantum Q = 2^(span-25).  n_top negative
    multiples of Q in the top binade cancel their hi parts and all but the
    last quantum of their lo parts: the sum is Q/2 - n*2^-52 (n odd) or
    -n*2^-52 (n even), a float in which a lo sum off by one quantum shows.
    """
    n = (1 << 16) - n_top
    q_units = -(n * (1 << (25 - span)) + n // 2)   # the top terms' sum in units of Q
    each = [q_units // n_top] * n_top
    each[-1] += q_units - sum(each)
    top = [math.ldexp(u, span - 25) for u in each]
    assert all(2.0**span <= -t < 2.0 ** (span + 1) for t in top)
    return np.array(top + [1.0 + (2.0 ** (span - 26) - 2.0**-52)] * n)


def test_exact_sum_at_span_11_and_12():
    one, other = span_chunk(11, 21), span_chunk(11, 20)
    for chunk in (one, other):
        acc = ExactSum(chunk)
        assert bits(acc.value) == bits(math.fsum(chunk))
        assert len(acc._parts) == 1          # one split: its lo sum is one exact part
    # two lo sums of the same binades together need more than 53 bits
    acc = ExactSum(one)
    acc.add(other)
    assert bits(acc.value) == bits(math.fsum(np.concatenate((one, other))))
    # at span 12 the lo parts of a chunk need 54 bits: the bucket path
    chunk = span_chunk(12, 11)
    acc = ExactSum(chunk)
    assert bits(acc.value) == bits(math.fsum(chunk))
    assert acc._parts == []


def test_exact_parts_stay_bounded_over_many_small_adds():
    k = np.arange(100_000)
    terms = np.column_stack((np.full(k.size, 1.0), 2.0 + k * 2.0**-40))   # 2 binades each
    acc, most = ExactSum(), 0
    for row in terms:
        acc.add(row)
        most = max(most, len(acc._parts))
    assert most <= analytic._PARTS_AT
    assert bits(acc.value) == bits(math.fsum(terms.ravel()))


# ---------------------------------------------------------------------------
# prime sums


@pytest.fixture(scope="module")
def primes_1e6():
    return sieve.primes_up_to(10**6)


@pytest.fixture(scope="module")
def cache_1e6(tmp_path_factory):
    """The TPC1 cache file of the primes up to 1e6."""
    return sieve.save_cache(10**6, str(tmp_path_factory.mktemp("cache") / "p.tpc1"))


def fsum_sums(p: np.ndarray) -> dict[str, float]:
    """The four prime sums over the primes p, each one math.fsum of its terms."""
    odd = p[p > 2]
    a = 1.0 / p
    return {
        "recip": math.fsum(a),
        "M": math.fsum(np.log1p(-a) + a),
        "C": math.fsum(np.log1p(-2.0 / odd) + 2.0 / odd),
        "twin": math.fsum(np.log1p(-2.0 / odd)),
    }


def test_prime_sums_equal_fsum_over_all_terms(primes_1e6):
    sums = analytic.prime_sums({"recip": 10**6, "M": 10**6, "C": 10**6, "twin": 10**6})
    assert sums == fsum_sums(primes_1e6)


def test_prime_sums_each_stop_at_their_own_limit(monkeypatch):
    limits = {"recip": 99_991, "M": 1_000, "C": 50_000, "twin": 3}
    want = {name: analytic.prime_sums({name: x})[name] for name, x in limits.items()}
    twin = analytic.lemma1_report(3, 3)[0].observed
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", 4096)
    sums = analytic.prime_sums(limits)
    assert sums == want
    assert twin == 0.5 * math.exp(sums["twin"])


def test_prime_sums_reject_unknown_names_and_small_limits():
    with pytest.raises(ValueError, match="unknown"):
        analytic.prime_sums({"pi": 10})
    with pytest.raises(ValueError, match="need cutoff >= 3"):
        analytic.prime_sums({"recip": 100, "C": 2})
    with pytest.raises(ValueError, match="no prime sum asked for"):
        analytic.prime_sums({})


@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
@pytest.mark.parametrize("block", [1, 7, 1 << 10, 1 << 14])
def test_prime_sums_do_not_depend_on_block_size(primes_1e6, cache_1e6, monkeypatch, block, cached):
    p = primes_1e6
    # the last prime of the third block, and the first of the fourth
    last, first = int(p[3 * block - 1]), int(p[3 * block])
    top = 10**6 if block > 1 else 10**4   # 78,498 one-prime blocks to 1e6 take ~8 s a pass
    oracle = {x: fsum_sums(p[p <= x]) for x in (top, last, first, first - 1)}
    cases = [dict.fromkeys(analytic.PRIME_SUMS, x) for x in oracle]
    cases.append({"recip": last, "M": first, "C": first - 1, "twin": top})
    want = [analytic.prime_sums(limits) for limits in cases]
    monkeypatch.setattr(sieve, "_BLOCK", block)
    for limits, default in zip(cases, want):
        got = analytic.prime_sums(limits, cache=cache_1e6 if cached else None)
        assert got == default
        assert got == {name: oracle[x][name] for name, x in limits.items()}


def test_prime_sums_hold_a_fixed_buffer_above_the_stream():
    x = 2 * 10**7

    def stream():
        for seg in sieve.prime_stream(x):
            pass

    def peak(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    stream()   # the sieve's base primes are kept between calls: build them untraced
    base = peak(stream)
    for run in (
        lambda: analytic.mertens_report(x, x),
        lambda: analytic.compute_constants(x),
        lambda: analytic.lemma1_report(x, x),
    ):
        assert peak(run) - base <= 1 << 20


def test_reports_equal_the_two_step_checks():
    # one pass to max(x, cutoff) gives what a pass per sum gives
    chk, m_hat = analytic.mertens_report(10**5, 10**3)
    assert m_hat == analytic.mertens_report(10**3, 10**3)[1]
    assert chk.observed == analytic.prime_sums({"recip": 10**5})["recip"]
    chk, consts = analytic.lemma1_report(10**3, 10**4)
    assert consts == analytic.compute_constants(10**4)
    assert chk.observed == 0.5 * math.exp(analytic.prime_sums({"twin": 10**3})["twin"])


@pytest.mark.parametrize("segment_size", [16, 1 << 12, 1 << 16, 1 << 21, 1 << 23])
def test_estimates_and_twin_product_do_not_depend_on_segment_size(monkeypatch, segment_size):
    # M, C with their tail radii, and the twin product, from one pass each
    x = 10**6
    want = analytic.lemma1_report(x, x)
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", segment_size)
    assert analytic.lemma1_report(x, x) == want


@pytest.mark.parametrize("segment_size", [64, 1 << 12, 1 << 21])
def test_cached_prime_sums_do_not_depend_on_segment_size(cache_1e6, monkeypatch, segment_size):
    limits = {"recip": 10**6, "M": 10**5, "C": 10**6, "twin": 3 * 10**5}
    want = analytic.prime_sums(limits)
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", segment_size)
    assert analytic.prime_sums(limits, cache=cache_1e6) == want
