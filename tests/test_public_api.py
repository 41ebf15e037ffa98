"""Smoke tests of the top-level public API surface."""

import importlib

import pytest

import repro


class TestLazyExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            repro.no_such_symbol

    def test_dir_lists_exports(self):
        listed = dir(repro)
        assert "PiecewiseLinear" in listed
        assert "e2e_delay_bound" in listed

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_caching(self):
        first = repro.PiecewiseLinear
        second = repro.PiecewiseLinear
        assert first is second


class TestSubpackageAllsResolve:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.algebra",
            "repro.arrivals",
            "repro.scheduling",
            "repro.service",
            "repro.singlenode",
            "repro.network",
            "repro.simulation",
            "repro.experiments",
            "repro.topology",
            "repro.utils",
        ],
    )
    def test_every_all_entry_exists(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name} missing"


class TestTandemIsALineTopology:
    """The tandem-only simulation names are gone: a tandem is a line
    :class:`repro.topology.Topology` run by the topology engine."""

    REMOVED = (
        "TandemNetwork",
        "TandemResult",
        "TrialResult",
        "simulate_tandem_mmoo_trials",
    )

    @pytest.mark.parametrize("module_name", ["repro", "repro.simulation"])
    def test_removed_names_not_exported(self, module_name):
        module = importlib.import_module(module_name)
        for name in self.REMOVED:
            assert name not in module.__all__
            assert not hasattr(module, name)

    def test_line_topology_names_exported(self):
        import repro.simulation as simulation

        for name in ("DagNetwork", "DagResult", "run_tandem_vectorized",
                     "simulate_tandem_mmoo", "simulate_topology_mmoo"):
            assert name in simulation.__all__
        assert "DagNetwork" in repro.__all__
        assert "Topology" in repro.__all__


class TestDocstrings:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro",
            "repro.algebra.functions",
            "repro.algebra.minplus",
            "repro.arrivals.ebb",
            "repro.arrivals.mmoo",
            "repro.arrivals.markov",
            "repro.service.leftover",
            "repro.scheduling.delta",
            "repro.network.optimization",
            "repro.network.e2e",
            "repro.simulation.engine",
            "repro.simulation.rare",
        ],
    )
    def test_module_docstrings_present(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__) > 40

    def test_public_functions_documented(self):
        from repro.network import e2e_delay_bound, solve_exact
        from repro.service import leftover_service_curve

        for obj in (e2e_delay_bound, solve_exact, leftover_service_curve):
            assert obj.__doc__ and len(obj.__doc__) > 40
