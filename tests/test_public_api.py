"""The public API surface: exports resolve, are documented, and the
advertised quickstart works as written in the package docstring."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

SUBPACKAGES = ("storage", "compression", "sampling", "core", "workloads",
               "advisor", "experiments", "engine", "store")


class TestExports:
    def test_all_entries_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("subpackage", SUBPACKAGES)
    def test_subpackage_all_resolves(self, subpackage):
        module = importlib.import_module(f"repro.{subpackage}")
        assert module.__doc__, subpackage
        for name in module.__all__:
            assert hasattr(module, name), f"{subpackage}.{name}"

    def test_version_is_pep440ish(self):
        parts = repro.__version__.split(".")
        assert len(parts) >= 2
        assert all(part.isdigit() for part in parts[:2])

    def test_no_duplicate_exports(self):
        assert len(repro.__all__) == len(set(repro.__all__))


class TestDocstrings:
    @pytest.mark.parametrize("subpackage", SUBPACKAGES)
    def test_public_callables_documented(self, subpackage):
        module = importlib.import_module(f"repro.{subpackage}")
        undocumented = []
        for name in module.__all__:
            obj = getattr(module, name)
            if getattr(obj, "__module__", "") == "typing":
                continue  # type aliases (e.g. Literal) carry no docs
            if callable(obj) and not getattr(obj, "__doc__", None):
                undocumented.append(name)
        assert not undocumented, \
            f"{subpackage} exports lack docstrings: {undocumented}"


class TestQuickstartContract:
    def test_package_docstring_example_runs(self):
        from repro import (SampleCF, NullSuppression, make_table,
                           true_cf_table)

        table = make_table(n=2_000, d=50, k=20, seed=7)
        estimator = SampleCF(NullSuppression())
        estimate = estimator.estimate_table(table, 0.05, ["a"], seed=7)
        truth = true_cf_table(table, ["a"], NullSuppression())
        assert 0 < estimate.estimate < 1.5
        assert 0 < truth < 1.5

    def test_registry_and_scenarios_nonempty(self):
        assert len(repro.list_algorithms()) >= 8
        assert len(repro.SCENARIOS) >= 7
        assert len(repro.EXPERIMENTS) >= 14

    def test_errors_are_catchable_by_base(self):
        with pytest.raises(repro.ReproError):
            repro.get_algorithm("no_such_algorithm")
        with pytest.raises(repro.ReproError):
            repro.get_scenario("no_such_scenario")
        with pytest.raises(repro.ReproError):
            repro.CharType(0)


class TestImports:
    def test_package_and_cli_import_without_scipy(self):
        """scipy loads only when a confidence z-value or a distinct-value
        expectation is computed, never on import."""
        code = ("import sys; sys.modules['scipy'] = None; "
                "import repro, repro.cli")
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        completed = subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, text=True,
                                   timeout=120)
        assert completed.returncode == 0, completed.stderr
