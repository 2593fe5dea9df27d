"""Accuracy study: a desk-size version of the paper's Table II.

Measures SampleCF's bias, standard deviation and ratio error for both
compression techniques in both distinct-count regimes, prints the grid
next to the analytic bounds (Theorems 1-3), and demonstrates the
histogram fast path at the paper's Example 1 scale (100M rows).

Run:  python examples/accuracy_study.py
"""

from __future__ import annotations

from repro import (EstimationEngine, EstimationRequest,
                   GlobalDictionaryCompression, NullSuppression,
                   SampleCF, dict_large_d_bound, dict_small_d_bound,
                   make_histogram, ns_stddev_bound)
from repro.core.cf_models import global_dictionary_cf, ns_cf
from repro.core.metrics import ErrorSummary
from repro.experiments import format_table

N = 200_000
K = 20
P = 2
F = 0.01
TRIALS = 100


def measure(histogram, algorithm, truth, seed) -> ErrorSummary:
    request = EstimationRequest(histogram=histogram, algorithm=algorithm,
                                fraction=F, trials=TRIALS)
    estimates = EstimationEngine(seed=seed).estimate(request).values
    return ErrorSummary.from_estimates(truth, estimates)


def main() -> None:
    small = make_histogram(N, 100, K, distribution="zipf", seed=1)
    large = make_histogram(N, N // 2, K,
                           distribution="singleton_heavy", seed=2)

    rows = []
    for regime, histogram in (("small d (100)", small),
                              (f"large d ({N // 2:,})", large)):
        ns_summary = measure(histogram, NullSuppression(),
                             ns_cf(histogram), 10)
        dict_truth = global_dictionary_cf(histogram, pointer_bytes=P)
        dict_summary = measure(
            histogram, GlobalDictionaryCompression(pointer_bytes=P),
            dict_truth, 11)
        rows.append(["null_suppression", regime,
                     f"{ns_summary.bias:+.6f}",
                     f"{ns_summary.std:.6f}",
                     f"{ns_summary.mean_ratio_error:.4f}"])
        rows.append(["global_dictionary", regime,
                     f"{dict_summary.bias:+.6f}",
                     f"{dict_summary.std:.6f}",
                     f"{dict_summary.mean_ratio_error:.4f}"])
    print(format_table(
        ["algorithm", "regime", "bias", "sigma", "mean ratio error"],
        rows,
        title=f"SampleCF accuracy (n={N:,}, f={F:.0%}, "
              f"{TRIALS} trials/cell)"))

    print("\nanalytic context:")
    print(f"  Theorem 1 sigma bound          : "
          f"{ns_stddev_bound(n=N, f=F):.6f}")
    print(f"  Theorem 2 bound (d=100)        : "
          f"{dict_small_d_bound(N, 100, K, P, F).bound:.4f}")
    print(f"  Theorem 3 bound (alpha=0.5)    : "
          f"{dict_large_d_bound(0.5, F, K, P).bound:.4f}")

    print("\nExample 1 scale (n = 100M, r = 1M) on the histogram path:")
    big = make_histogram(100_000_000, 5_000, K, seed=3)
    estimator = SampleCF(NullSuppression())
    estimate = estimator.estimate_histogram(big, 0.01, seed=4)
    print(f"  estimated CF' = {estimate.estimate:.6f} from "
          f"{estimate.sample_rows:,} sampled rows "
          f"(true CF = {ns_cf(big):.6f}; "
          f"sigma bound 0.0005)")


if __name__ == "__main__":
    main()
