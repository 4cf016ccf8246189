"""Tests of the benchmark harness's own arithmetic and bookkeeping.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import mqf  # noqa: E402
from mqf.fields import FieldElement  # noqa: E402

from layers import METRICS, install, layer_metrics  # noqa: E402
from tracer import Patcher, Tracer  # noqa: E402
from worker import one_pass, summarize, tail  # noqa: E402
from workloads import Indec, conjugate_coords  # noqa: E402


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds inner [2, 6] and sibling [7, 8]; inner holds leaf [3, 4].
    t = Tracer(clock=fake_clock([0, 2, 3, 4, 6, 7, 8, 10]))
    t.enter("outer")
    t.enter("inner")
    t.enter("leaf")
    t.exit()
    t.exit()
    t.enter("sibling")
    t.exit()
    t.exit()
    agg = {name: (a.calls, a.total, a.self) for (_, name), a in t.aggregates.items()}
    assert agg["leaf"] == (1, 1, 1)
    assert agg["inner"] == (1, 4, 3)
    assert agg["sibling"] == (1, 1, 1)
    assert agg["outer"] == (1, 10, 5)
    assert t.edges[("run", "outer", "inner")] == 1
    assert t.edges[("run", None, "outer")] == 1
    parents = {s[3]: s[1] for s in t.spans}
    ids = {s[3]: s[0] for s in t.spans}
    assert parents["leaf"] == ids["inner"] and parents["outer"] is None


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 1001)]
    assert tail(samples) == ("p99", 990.0)      # p99.9 would leave only 1 beyond
    assert tail(samples[:100]) == ("p90", 90.0)  # p95 would leave 5 beyond
    assert tail(samples[:20]) == ("p50", 10.0)
    assert tail([3.0, 1.0, 2.0]) == ("max", 3.0)


def _bindings():
    modules = {n: m for n, m in sys.modules.items() if n == "mqf" or n.startswith("mqf.")}
    snapshot = {(n, a): v for n, m in modules.items() for a, v in vars(m).items()}
    snapshot |= {("FieldElement", a): v for a, v in FieldElement.__dict__.items()}
    return snapshot


def test_install_wraps_every_binding_site_and_restore_undoes_it():
    import mqf.certifier
    import mqf.indecomposables
    import mqf.kernels
    import mqf.tower

    before = _bindings()
    tracer = Tracer()
    patcher, missing = install(tracer)
    try:
        assert missing == []
        original = before[("mqf.kernels", "scan_box")]
        for module in (mqf.kernels, mqf.certifier, mqf.indecomposables):
            assert module.scan_box is not original
        assert mqf.tower.search_witnesses is not before[("mqf.cf", "search_witnesses")]
        assert mqf.pair_condition_certify is mqf.certifier.pair_condition_certify
        assert FieldElement.__mul__ is not before[("FieldElement", "__mul__")]

        field = mqf.make_field([15])
        a, b = field.one(), field.from_scaled([8, -2], 2)
        verdict = mqf.pair_condition_certify(a, b)
    finally:
        patcher.restore()
    assert _bindings() == before

    metrics = layer_metrics(tracer)
    assert {name for name, _, _ in METRICS} == set(metrics) | {"trace.overhead_s"}
    assert metrics["certifier.pairs"] == 1
    assert metrics["certifier.points"] == verdict.points_scanned == metrics["kernels.points"]
    assert metrics["kernels.jobs"] == 1
    assert metrics["fields.k1.tp_calls"] >= 2   # both witnesses are checked


def test_patcher_restores_in_reverse_order():
    class Box:
        value = 1

    p = Patcher()
    p.set(Box, "value", 2)
    p.set(Box, "value", 3)
    p.restore()
    assert Box.value == 1 and p.saved == []


class TamperedIndec(Indec):
    """The real workload, with the first decomposition witness corrupted."""

    def __init__(self):
        self.records = 0
        self.target = None

    def record(self, hit, verdict):
        out = super().record(hit, verdict)
        if self.target is None and verdict.witness is not None:
            self.target = self.records
            out["verdict"]["witness"] = verdict.element.to_json()  # x - beta = 0
        self.records += 1
        return out


def _small_indec_inputs():
    # three elements of trace <= 8: one decomposable (2 = 1 + 1) and two more.
    return {"elements": [[8, 0, 0, 0], [4, 0, 0, 0], [8, 4, 0, 0]]}


def test_tampered_output_counts_as_one_failed_op():
    workload = Indec()
    state = workload.setup(_small_indec_inputs())
    clean = one_pass(workload, state, None)
    assert clean["ops"] == 3 and clean["failed"] == {}

    tampered = TamperedIndec()
    result = one_pass(tampered, state, None)
    assert result["failed"] == {tampered.target: "re-verification failed"}
    summary = summarize([clean, result], pass_is_op=False)
    assert (summary["attempted"], summary["failed"]) == (6, 1)


def test_traced_pass_reports_layers_and_leaves_code_unwrapped():
    workload = Indec()
    state = workload.setup(_small_indec_inputs())
    before = _bindings()
    traced = one_pass(workload, state, Tracer())
    assert _bindings() == before
    layers = traced["layers"]
    assert layers["indecomposables.oracle_calls"] == 3
    assert layers["indecomposables.criterion_calls"] == 3
    assert layers["fields.k2.tp_calls"] > 0 and layers["kernels.points"] > 0


def test_conjugation_is_an_involution_and_keeps_the_rational_part():
    coords = [8, 4, -2, 1]
    for s in range(4):
        image = conjugate_coords(coords, s)
        assert image[0] == 8 and conjugate_coords(image, s) == coords
