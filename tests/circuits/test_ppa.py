"""Unit tests for the pluggable PPA backends.

The load-bearing guarantee: the default (analytic) backend is bit-identical
to calling the estimators directly, so introducing the backend interface
changed no number, no cache key, and no ``DesignPoint`` identity.
"""

import json

import pytest

from repro.circuits.area_power import estimate_netlist
from repro.circuits.netlist import Netlist
from repro.circuits.ppa import (
    AnalyticPPABackend,
    PPABackend,
    PPAReportError,
    ReportPPABackend,
    load_ppa_report,
    resolve_ppa_backend,
)
from repro.circuits.timing import estimate_timing
from repro.core.design import DesignSpec
from repro.core.exploration import select_best_design
from repro.core.unary_tree import UnaryDecisionTree


def _report(modules: dict) -> dict:
    return {
        "schema_version": 1,
        "kind": "ppa_report",
        "source": "unit-test",
        "modules": modules,
    }


def _simple_netlist(name: str = "demo_block") -> Netlist:
    netlist = Netlist(name)
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    n1 = netlist.add_gate("AND2", [a, b])
    netlist.add_gate("INV", [n1], output="y")
    netlist.add_output("y")
    return netlist


class TestAnalyticBackend:
    def test_area_power_bit_identical(self, small_tree, technology):
        netlist = UnaryDecisionTree(small_tree).to_netlist("label_logic")
        assert AnalyticPPABackend().area_power(netlist, technology) == \
            estimate_netlist(netlist, technology)

    def test_timing_bit_identical(self, small_tree, technology):
        netlist = UnaryDecisionTree(small_tree).to_netlist("label_logic")
        assert AnalyticPPABackend().timing(netlist, technology) == \
            estimate_timing(netlist, technology)

    def test_digital_report_default_path_unchanged(self, small_tree, technology):
        unary = UnaryDecisionTree(small_tree)
        assert unary.digital_report(technology) == \
            unary.digital_report(technology, ppa_backend=AnalyticPPABackend())

    def test_identity_and_protocol(self):
        backend = AnalyticPPABackend()
        assert backend == AnalyticPPABackend()
        assert hash(backend) == hash(AnalyticPPABackend())
        assert backend.is_analytic
        assert isinstance(backend, PPABackend)


class TestResolve:
    def test_default_specs(self):
        assert resolve_ppa_backend(None) == AnalyticPPABackend()
        assert resolve_ppa_backend("analytic") == AnalyticPPABackend()

    def test_backend_instance_passthrough(self):
        backend = ReportPPABackend(_report({"*": {"area_mm2": 1, "power_uw": 2}}))
        assert resolve_ppa_backend(backend) is backend

    def test_mapping_and_path(self, tmp_path):
        payload = _report({"*": {"area_mm2": 1.0, "power_uw": 2.0}})
        from_mapping = resolve_ppa_backend(payload)
        assert isinstance(from_mapping, ReportPPABackend)
        path = tmp_path / "report.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        for spec in (str(path), path):
            backend = resolve_ppa_backend(spec)
            assert isinstance(backend, ReportPPABackend)
            assert backend.source == str(path)

    def test_unresolvable_spec_rejected(self):
        with pytest.raises(TypeError, match="cannot resolve"):
            resolve_ppa_backend(42)


class TestReportValidation:
    def test_wrong_kind(self):
        with pytest.raises(PPAReportError, match="kind"):
            ReportPPABackend({"schema_version": 1, "kind": "timing", "modules": {}})

    def test_wrong_schema_version(self):
        payload = _report({"m": {"area_mm2": 1, "power_uw": 2}})
        payload["schema_version"] = 99
        with pytest.raises(PPAReportError, match="schema_version"):
            ReportPPABackend(payload)

    def test_empty_modules(self):
        with pytest.raises(PPAReportError, match="non-empty"):
            ReportPPABackend(_report({}))

    def test_module_missing_numeric_field(self):
        with pytest.raises(PPAReportError, match="power_uw"):
            ReportPPABackend(_report({"m": {"area_mm2": 1.0}}))

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(PPAReportError, match="cannot read"):
            load_ppa_report(tmp_path / "missing.json")

    def test_invalid_missing_policy(self):
        payload = _report({"m": {"area_mm2": 1, "power_uw": 2}})
        with pytest.raises(ValueError, match="missing"):
            ReportPPABackend(payload, missing="ignore")


class TestReportBackend:
    def test_exact_name_lookup(self, technology):
        netlist = _simple_netlist()
        backend = ReportPPABackend(
            _report({"demo_block": {"area_mm2": 3.5, "power_uw": 150.0}})
        )
        report = backend.area_power(netlist, technology)
        assert report.area_mm2 == 3.5
        assert report.power_uw == 150.0
        # The gate census stays structural: counts come from the netlist.
        assert report.n_gates == netlist.n_gates
        assert report.cell_counts == netlist.cell_histogram()

    def test_sanitized_name_lookup(self, technology):
        netlist = _simple_netlist("demo block!")
        backend = ReportPPABackend(
            _report({"demo_block_": {"area_mm2": 1.0, "power_uw": 2.0}})
        )
        assert backend.area_power(netlist, technology).area_mm2 == 1.0

    def test_wildcard_lookup(self, technology):
        backend = ReportPPABackend(
            _report({"*": {"area_mm2": 9.0, "power_uw": 90.0}})
        )
        assert backend.area_power(_simple_netlist(), technology).power_uw == 90.0

    def test_missing_module_errors_by_default(self, technology):
        backend = ReportPPABackend(
            _report({"other": {"area_mm2": 1.0, "power_uw": 2.0}})
        )
        with pytest.raises(PPAReportError, match="no entry for module"):
            backend.area_power(_simple_netlist(), technology)

    def test_missing_module_analytic_fallback(self, technology):
        netlist = _simple_netlist()
        backend = ReportPPABackend(
            _report({"other": {"area_mm2": 1.0, "power_uw": 2.0}}),
            missing="analytic",
        )
        assert backend.area_power(netlist, technology) == \
            estimate_netlist(netlist, technology)
        assert backend.timing(netlist, technology) == \
            estimate_timing(netlist, technology)

    def test_timing_from_report(self, technology):
        netlist = _simple_netlist()
        backend = ReportPPABackend(_report({
            "demo_block": {
                "area_mm2": 1.0,
                "power_uw": 2.0,
                "critical_path_delay_ms": 42.5,
                "logic_depth": 7,
            }
        }))
        timing = backend.timing(netlist, technology)
        assert timing.critical_path_delay_ms == 42.5
        assert timing.logic_depth == 7
        assert timing.critical_path == ()
        assert timing.sampling_period_ms == 1000.0 / technology.frequency_hz

    def test_timing_falls_back_without_delay_field(self, technology):
        netlist = _simple_netlist()
        backend = ReportPPABackend(
            _report({"demo_block": {"area_mm2": 1.0, "power_uw": 2.0}})
        )
        assert backend.timing(netlist, technology) == \
            estimate_timing(netlist, technology)

    def test_not_analytic(self):
        backend = ReportPPABackend(_report({"*": {"area_mm2": 1, "power_uw": 2}}))
        assert not backend.is_analytic


class TestDesignPointIntegration:
    def _explore(self, small_split, ppa_backend):
        X_train, X_test, y_train, y_test = small_split
        return [
            DesignSpec("small", 3, depth, 0.01).evaluate_levels(
                X_train, y_train, X_test, y_test, n_classes=3,
                ppa_backend=ppa_backend,
            )
            for depth in (2, 3)
        ]

    def test_design_point_costs_bit_identical_to_seed(self, small_split):
        default = self._explore(small_split, None)
        explicit = self._explore(small_split, AnalyticPPABackend())
        for a, b in zip(default, explicit):
            assert a.hardware == b.hardware
            assert a.accuracy == b.accuracy
            assert (a.total_area_mm2, a.total_power_uw) == \
                (b.total_area_mm2, b.total_power_uw)

    def test_report_costs_flow_into_selection(self, small_split):
        report = _report({"*": {"area_mm2": 123.0, "power_uw": 456.0}})
        points = self._explore(small_split, report)
        for point in points:
            assert point.hardware.digital_area_mm2 == 123.0
            assert point.hardware.digital_power_uw == 456.0
        best = select_best_design(
            points,
            reference_accuracy=max(point.accuracy for point in points),
            max_accuracy_loss=1.0,
            objective="power",
        )
        assert best is not None
        assert best.hardware.digital_power_uw == 456.0


class TestCachePurityGuards:
    def test_suite_refuses_cache_only_with_report(self):
        from repro.analysis.experiments import run_benchmark_suite

        report = _report({"*": {"area_mm2": 1.0, "power_uw": 2.0}})
        with pytest.raises(ValueError, match="cache_only requires the analytic"):
            run_benchmark_suite(
                datasets=("seeds",), cache_only=True, ppa_backend=report
            )

    def test_study_refuses_cache_only_with_report(self):
        from repro.search.study import Study

        report = _report({"*": {"area_mm2": 1.0, "power_uw": 2.0}})
        with pytest.raises(ValueError, match="cache_only requires the analytic"):
            Study("seeds", cache_only=True, ppa_backend=report)

    def test_study_with_report_backend_bypasses_store(self):
        from repro.search.study import Study

        report = _report({"*": {"area_mm2": 1.0, "power_uw": 2.0}})
        study = Study("seeds", ppa_backend=report)
        assert study.store is None
        assert not study.use_cache
