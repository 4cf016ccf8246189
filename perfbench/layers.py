"""Which public functions the traced pass wraps, and the per-layer metrics.

Layers are named after the modules of ``src/mqf``.  Wrapping happens only
from here: nothing in the library changes, and ``Patcher.restore`` puts every
original back, so untraced passes run the unmodified code.
"""

from __future__ import annotations

import sys

from tracer import Patcher, Tracer, wrap

FIELD_KS = (1, 2)

# (name, unit, better); every traced run reports all of them, 0 where the
# layer does not run on that workload.
METRICS = [
    ("kernels.jobs", "count", "lower"),
    ("kernels.points", "count", "lower"),
    ("kernels.survivors", "count", "lower"),
    ("kernels.survivor_ratio", "ratio", "higher"),
    ("kernels.busy_s", "s", "lower"),
    ("kernels.points_per_s", "1/s", "higher"),
    ("kernels.bytes_computed", "B", "lower"),
    *[(f"fields.k{k}.{m}", unit, "lower") for k in FIELD_KS for m, unit in (
        ("sign_calls", "count"), ("sign_s", "s"), ("tp_calls", "count"), ("tp_s", "s"),
        ("mul_calls", "count"), ("mul_s", "s"), ("norm_s", "s"), ("charpoly_s", "s"))],
    ("cf.oracle_calls", "count", "lower"),
    ("cf.pool_size", "count", "lower"),
    ("cf.pair_checks", "count", "lower"),
    ("cf.fields_scanned", "count", "lower"),
    ("cf.self_s", "s", "lower"),
    ("indecomposables.oracle_calls", "count", "lower"),
    ("indecomposables.oracle_self_s", "s", "lower"),
    ("indecomposables.points", "count", "lower"),
    ("indecomposables.fast_path", "count", "higher"),
    ("indecomposables.exhausted", "count", "lower"),
    ("indecomposables.decomposable", "count", "lower"),
    ("indecomposables.unknown", "count", "lower"),
    ("indecomposables.criterion_calls", "count", "lower"),
    ("indecomposables.criterion_hits", "count", "higher"),
    ("certifier.pairs", "count", "lower"),
    ("certifier.pairs_holding", "count", "lower"),
    ("certifier.points", "count", "lower"),
    ("certifier.near_misses", "count", "lower"),
    ("certifier.self_s", "s", "lower"),
    ("certifier.verify_self_s", "s", "lower"),
    ("certifier.budget_exceeded", "count", "lower"),
    ("integers.is_int_calls", "count", "lower"),
    ("integers.is_int_s", "s", "lower"),
    ("integers.mask_rows", "count", "lower"),
    ("integers.mask_kept_ratio", "ratio", "higher"),
    ("integers.mask_s", "s", "lower"),
    ("tower.select_q_s", "s", "lower"),
    ("tower.lift_s", "s", "lower"),
    ("tower.build_self_s", "s", "lower"),
    ("tower.verify_self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

ORACLE = "indecomposables.exhaustive_indecomposable"
PAIR = "certifier.pair_condition_certify"


def _on_scan_chunk(tracer: Tracer, args, item) -> None:
    coords, points = item
    tracer.count("kernels.points", points)
    tracer.count("kernels.survivors", len(coords))
    # Computed, not measured: the int64 coordinate array the chunk builds.
    tracer.count("kernels.bytes_computed", points * coords.shape[1] * 8)


def _on_mask(tracer: Tracer, args, mask) -> None:
    tracer.count("integers.mask_rows", len(mask))
    tracer.count("integers.mask_kept", int(mask.sum()))


def _on_oracle(tracer: Tracer, args, verdict) -> None:
    tracer.count("indecomposables.points", verdict.budget_used)
    tracer.count("indecomposables.fast_path", verdict.budget_used == 0)
    tracer.count(f"indecomposables.{verdict.verdict.value}")


def _on_criterion(tracer: Tracer, args, hit) -> None:
    tracer.count("indecomposables.criterion_hits", bool(hit))


def _on_pool(tracer: Tracer, args, pool) -> None:
    # quadratic_candidates(cf, ...) and _thin_pool(field, ...) both build a pool.
    source = args[0]
    d = source.D if hasattr(source, "D") else source.radicands[1]
    tracer.count("cf.pool_size", len(pool))
    tracer.count(f"cf.field:{d}")


def _on_pair(tracer: Tracer, args, verdict) -> None:
    tracer.count("certifier.pairs_holding", verdict.holds)
    tracer.count("certifier.points", verdict.points_scanned)
    tracer.count("certifier.near_misses", verdict.near_misses)


def _on_pair_error(tracer: Tracer, args, exc) -> None:
    from mqf.errors import BudgetExceededError

    if isinstance(exc, BudgetExceededError):
        tracer.count("certifier.budget_exceeded")


# (module, attribute, span name, on_result, on_error)
FUNCTIONS = [
    ("mqf.kernels", "scan_box", "kernels.scan_box", _on_scan_chunk, None),
    ("mqf.integers", "is_algebraic_integer", "integers.is_algebraic_integer", None, None),
    ("mqf.integers", "integral_mask", "integers.integral_mask", _on_mask, None),
    ("mqf.indecomposables", "exhaustive_indecomposable", ORACLE, _on_oracle, None),
    ("mqf.indecomposables", "normab_criterion", "indecomposables.normab_criterion",
     _on_criterion, None),
    ("mqf.cf", "scan_for_witnesses", "cf.scan_for_witnesses", None, None),
    ("mqf.cf", "search_witnesses", "cf.search_witnesses", None, None),
    ("mqf.cf", "quadratic_candidates", "cf.quadratic_candidates", _on_pool, None),
    ("mqf.cf", "_thin_pool", "cf._thin_pool", _on_pool, None),
    ("mqf.certifier", "pair_condition_certify", PAIR, _on_pair, _on_pair_error),
    ("mqf.certifier", "certify_witness_set", "certifier.certify_witness_set", None, None),
    ("mqf.certifier", "verify_certificate", "certifier.verify_certificate", None, None),
    ("mqf.tower", "build_tower", "tower.build_tower", None, None),
    ("mqf.tower", "select_next_q", "tower.select_next_q", None, None),
    ("mqf.tower", "lift_witnesses", "tower.lift_witnesses", None, None),
    ("mqf.tower", "verify_tower", "tower.verify_tower", None, None),
]

# FieldElement attribute -> short label; wrapped on the class itself.
METHODS = {
    "sign_at": "sign",
    "is_totally_positive": "tp",
    "__mul__": "mul",
    "__rmul__": "mul",
    "norm": "norm",
    "char_poly": "charpoly",
}


def install(tracer: Tracer) -> tuple[Patcher, list[str]]:
    """Wrap every listed function at all its binding sites in ``mqf``.

    Returns the patcher (call ``restore`` to undo) and the names that could
    not be found, which the run reports instead of failing.
    """
    from mqf.fields import FieldElement

    modules = [m for name, m in sorted(sys.modules.items())
               if (name == "mqf" or name.startswith("mqf.")) and m is not None]
    patcher = Patcher()
    missing = []
    for module_name, attr, span_name, on_result, on_error in FUNCTIONS:
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        wrapper = wrap(tracer, original, span_name, on_result=on_result, on_error=on_error)
        patcher.rebind(original, wrapper, modules)
    for attr, label in METHODS.items():
        if attr not in FieldElement.__dict__:
            missing.append(f"mqf.fields.FieldElement.{attr}")
            continue
        patcher.set(FieldElement, attr, wrap(
            tracer, FieldElement.__dict__[attr],
            lambda self, *rest, _label=label: f"fields.k{self.field.k}.{_label}"))
    return patcher, missing


def _aggregate(tracer: Tracer, field: str, match, phases=("run", "verify")) -> float:
    return sum(getattr(agg, field) for (phase, name), agg in tracer.aggregates.items()
               if phase in phases and match(name))


def _counter(tracer: Tracer, key: str) -> float:
    return sum(v for (_, k), v in tracer.counters.items() if k == key)


def _edges(tracer: Tracer, parent_prefix: str, child: str) -> int:
    return sum(n for (_, parent, name), n in tracer.edges.items()
               if name == child and parent is not None and parent.startswith(parent_prefix))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced pass (``trace.overhead_s`` excluded)."""
    def calls(name):
        return int(_aggregate(tracer, "calls", name.__eq__))

    def total(name):
        return _aggregate(tracer, "total", name.__eq__)

    def self_time(name):
        return _aggregate(tracer, "self", name.__eq__)

    def layer_self(prefix, phases=("run", "verify")):
        return _aggregate(tracer, "self", lambda name: name.startswith(prefix), phases)

    points = _counter(tracer, "kernels.points")
    busy = total("kernels.scan_box")
    survivors = _counter(tracer, "kernels.survivors")
    rows = _counter(tracer, "integers.mask_rows")
    out = {
        "kernels.jobs": _counter(tracer, "kernels.scan_box:calls"),
        "kernels.points": points,
        "kernels.survivors": survivors,
        "kernels.survivor_ratio": survivors / points if points else 0.0,
        "kernels.busy_s": busy,
        "kernels.points_per_s": points / busy if busy else 0.0,
        "kernels.bytes_computed": _counter(tracer, "kernels.bytes_computed"),
    }
    for k in FIELD_KS:
        base = f"fields.k{k}"
        out |= {
            f"{base}.sign_calls": calls(f"{base}.sign"),
            f"{base}.sign_s": total(f"{base}.sign"),
            f"{base}.tp_calls": calls(f"{base}.tp"),
            f"{base}.tp_s": total(f"{base}.tp"),
            f"{base}.mul_calls": calls(f"{base}.mul"),
            f"{base}.mul_s": total(f"{base}.mul"),
            f"{base}.norm_s": total(f"{base}.norm"),
            f"{base}.charpoly_s": total(f"{base}.charpoly"),
        }
    out |= {
        "cf.oracle_calls": _edges(tracer, "cf.", ORACLE),
        "cf.pool_size": _counter(tracer, "cf.pool_size"),
        "cf.pair_checks": _edges(tracer, "cf.", PAIR),
        "cf.fields_scanned": len({k for (_, k) in tracer.counters if k.startswith("cf.field:")}),
        "cf.self_s": layer_self("cf."),
        "indecomposables.oracle_calls": calls(ORACLE),
        "indecomposables.oracle_self_s": self_time(ORACLE),
        "indecomposables.points": _counter(tracer, "indecomposables.points"),
        "indecomposables.fast_path": _counter(tracer, "indecomposables.fast_path"),
        "indecomposables.exhausted": _counter(tracer, "indecomposables.indecomposable_by_exhaustion"),
        "indecomposables.decomposable": _counter(tracer, "indecomposables.decomposable"),
        "indecomposables.unknown": _counter(tracer, "indecomposables.unknown"),
        "indecomposables.criterion_calls": calls("indecomposables.normab_criterion"),
        "indecomposables.criterion_hits": _counter(tracer, "indecomposables.criterion_hits"),
        "certifier.pairs": calls(PAIR),
        "certifier.pairs_holding": _counter(tracer, "certifier.pairs_holding"),
        "certifier.points": _counter(tracer, "certifier.points"),
        "certifier.near_misses": _counter(tracer, "certifier.near_misses"),
        "certifier.self_s": layer_self("certifier.", ("run",)),
        "certifier.verify_self_s": layer_self("certifier.", ("verify",)),
        "certifier.budget_exceeded": _counter(tracer, "certifier.budget_exceeded"),
        "integers.is_int_calls": calls("integers.is_algebraic_integer"),
        "integers.is_int_s": total("integers.is_algebraic_integer"),
        "integers.mask_rows": rows,
        "integers.mask_kept_ratio": _counter(tracer, "integers.mask_kept") / rows if rows else 0.0,
        "integers.mask_s": total("integers.integral_mask"),
        "tower.select_q_s": total("tower.select_next_q"),
        "tower.lift_s": total("tower.lift_witnesses"),
        "tower.build_self_s": self_time("tower.build_tower"),
        "tower.verify_self_s": self_time("tower.verify_tower"),
    }
    return out
