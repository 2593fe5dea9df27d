"""The README's performance figures are the BENCH JSON values they cite.

Each test reads a committed baseline under ``benchmarks/results/`` and
asserts the README prints its values, rounded as printed. Regenerating
a baseline without updating the README fails here.
"""

import json
import pathlib

REPO = pathlib.Path(__file__).resolve().parent.parent


def readme_text() -> str:
    """The README with every run of whitespace collapsed to one space."""
    return " ".join((REPO / "README.md").read_text(encoding="utf-8").split())


def test_size_kernel_speedups_come_from_the_baseline():
    baseline = json.loads((REPO / "benchmarks" / "results"
                           / "BENCH_size_kernels.json").read_text())
    codecs = baseline["results"]["codecs"]
    ns = codecs["null_suppression"]
    dictionary = codecs["dictionary"]
    runs = codecs["null_suppression_runs"]
    readme = readme_text()
    for phrase in (
            f"**{ns['speedup_cold']:.1f}x** (null suppression) and "
            f"**{dictionary['speedup_cold']:.1f}x** (dictionary) cold",
            f"to **{ns['speedup_shared']:.0f}x** and "
            f"**{dictionary['speedup_shared']:.0f}x** once views are shared",
            f"`runs` mode has a kernel too, at "
            f"**{runs['speedup_cold']:.1f}x** cold"):
        assert phrase in readme, phrase
