"""One-off calibration run: measure the residual envelopes once, then freeze
the K constants into tests/test_acceptance.py.  Not part of the test suite;
kept so the frozen numbers can be regenerated.

Run:  python3 scripts/calibrate.py
"""

import math
import time

from twinmeans import analytic, verify


def timed(label, fn):
    t0 = time.perf_counter()
    out = fn()
    print(f"[{time.perf_counter() - t0:7.2f}s] {label}")
    return out


def main():
    # constants at the acceptance cutoff
    consts = timed("compute_constants(1e7)", lambda: analytic.compute_constants(10**7))
    print(f"  M={consts.M!r} C={consts.C!r}")
    print(f"  D_prime={consts.D_prime!r} D={consts.D!r} tail={consts.tail_radius!r}")
    print(f"  |C - 0.660413|  = {abs(consts.C - 0.660413):.3e}")
    print(f"  |D' - 0.183407| = {abs(consts.D_prime - 0.183407):.3e}")
    print(f"  |D - 0.876554|  = {abs(consts.D - 0.876554):.3e}")

    # prime-reciprocal sum error envelope
    m_hat = consts.M
    print("\nmertens envelope (E = |sum - loglog x - M_hat|):")
    for x in (10**4, 10**6, 10**8):
        chk, _ = timed(f"mertens_sum({x:.0e})", lambda x=x: analytic.mertens_report(x, 2))
        s = chk.observed
        e = abs(s - math.log(math.log(x)) - m_hat)
        print(f"  x={x:<10} E={e:.6e}  E*log^2x={e * math.log(x) ** 2:.6f}")

    # twin-factor product envelope
    print("\ntwin-product envelope (r = |e^D log^2 x * product - 1|):")
    for x in (10**6, 10**7, 10**8):
        chk, _ = timed(f"twin_product({x:.0e})", lambda x=x: analytic.lemma1_report(x, 3))
        tp = chk.observed
        r = abs(math.exp(consts.D) * math.log(x) ** 2 * tp - 1.0)
        print(f"  x={x:<10} r={r:.6e}  r*log^2x={r * math.log(x) ** 2:.6f}")

    # interval-product envelope
    print("\ninterval-product envelope (r = |T * x^(beta-1)/beta^2 - 1|):")
    for x in (10**6, 10**7):
        chk, bs, _ = timed(f"t_product({x:.0e})", lambda x=x: verify.lemma2_report(x, 1.0))
        t = chk.observed
        r = abs(t * math.exp((bs.beta - 1.0) * math.log(x)) / bs.beta**2 - 1.0)
        print(f"  x={x:<10} r={r:.6e}  r*log^2x={r * math.log(x) ** 2:.6f}")

    # interval mean sweep
    print("\ninterval mean sweep (c=1):")
    for x in (10**4, 10**5, 10**6, 10**7):
        row = timed(f"theorem1_report({x:.0e})", lambda x=x: verify.theorem1_report(x, 1.0))
        logx = math.log(x)
        # exact-count residual of criterion 9b: pi*log x*(1 - M0)/c - 1
        one_minus_m0 = (row.residual + 1.0) * row.interval.c / row.interval.x_beta
        r9b = row.pi_interval * logx * one_minus_m0 / row.interval.c - 1.0
        print(
            f"  x={x:<10} M_inf={float(row.m_inf)}  residual={row.residual:.6f}"
            f"  residual_approx_pi={row.residual_approx_pi:.6f}"
            f"  r9b={r9b:.6f}  r9b*logx={r9b * logx:.6f}"
            f"  pi={row.pi_interval}  twins={len(row.twin_pairs)}"
        )


if __name__ == "__main__":
    main()
