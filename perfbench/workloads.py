"""The three benchmark workloads: inputs from a seed, the timed calls, checks.

Each workload has three steps:

* ``make_inputs(seed)`` builds JSON-able inputs without importing mqf; it is
  not timed.
* ``setup(inputs)`` turns them into mqf objects (fields and elements); the
  benchmark's ``setup_s`` covers it together with ``import mqf``.
* ``run(state, p)`` makes the timed public-API calls through ``p.call``,
  checks their outputs, and re-verifies each op's canonical JSON artifact
  through ``p.verify`` right after the op: the referee's read path.
  Interleaving verification with the ops spreads its samples over the whole
  run, as for the ops themselves, so a slow stretch of a shared machine
  weighs on both alike.

An op is one checked unit of work.  An exception, an exhausted budget, an
UNKNOWN verdict and a failed output check all mark the op as failed.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
import traceback
from pathlib import Path

EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())

# Known results, independent of the recorded digests.
DSCAN_EXPECTED = {
    "N3": {"D": 55, "witnesses": [[1, 0], [15, -2], [89, -12]],
           "scans": [215, 1605, 46057]},
    "N4": {"D": 479, "witnesses": [[1, 0], [22, -1], [197, -9], [1729, -79]],
           "scans": [159, 1113, 9891, 51499, 445731, 3986899]},
}
TOWER_OFFSETS = 8          # each level's offset is drawn from range(TOWER_OFFSETS)
TOWER_PAIRS = 16


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


class Pass:
    """Op latencies, verification time and failed ops of one pass.

    With a tracer, ``call`` and ``verify`` tag its spans "run" and "verify".
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.ops = 0
        self.latencies: list[float] = []
        self.verify_s = 0.0
        self.failed: dict[int, str] = {}

    def _phase(self, phase: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = phase

    def call(self, fn, *args, **kwargs):
        """Time one op; returns (op index, result or None if it raised)."""
        self._phase("run")
        index = self.ops
        self.ops += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # any library error is a failed op, not a crash
            self.latencies.append(time.perf_counter() - start)
            traceback.print_exc()
            self.fail(index, f"{type(exc).__name__}: {exc}")
            return index, None
        self.latencies.append(time.perf_counter() - start)
        return index, result

    def verify(self, index: int, fn, *args) -> None:
        """Time one re-verification of op ``index``; False or an exception fails it."""
        self._phase("verify")
        start = time.perf_counter()
        try:
            ok = fn(*args)
        except Exception:  # an artifact that cannot be re-verified fails its op
            traceback.print_exc()
            ok = False
        self.verify_s += time.perf_counter() - start
        if not ok:
            self.fail(index, "re-verification failed")

    def fail(self, index: int, reason: str) -> None:
        self.failed.setdefault(index, reason)

    def check(self, index: int, ok: bool, reason: str) -> None:
        if not ok:
            self.fail(index, reason)

    @property
    def run_s(self) -> float:
        return sum(self.latencies)


def _canonical(payload) -> str:
    from mqf.certifier import dumps_canonical

    return dumps_canonical(payload)


def _quadratic_coords(x) -> list:
    return [x.coeffs.get(0, 0), x.coeffs.get(1, 0)]


class Dscan:
    """The ROADMAP's two `witness` searches and their certificate checks."""

    name = "dscan"
    pass_is_op = True
    verify_repeats = 2
    seed_use = "none: the instance is fixed"

    def make_inputs(self, seed: int) -> dict:
        return {}

    def setup(self, inputs: dict) -> dict:
        from mqf import make_field

        return {key: make_field([e["D"]]) for key, e in DSCAN_EXPECTED.items()}

    def run(self, state: dict, p: Pass) -> None:
        from mqf import scan_for_witnesses

        found = {
            "N3": p.call(scan_for_witnesses, 3),
            "N4": p.call(scan_for_witnesses, 4, trace_bound=4000, d_start=479, d_limit=479),
        }
        for key, (index, ws) in found.items():
            if ws is None:
                continue
            want = DSCAN_EXPECTED[key]
            p.check(index, ws.field == state[key], f"{key}: found D={ws.field.primes}")
            p.check(index, [_quadratic_coords(x) for x in ws.elements] == want["witnesses"],
                    f"{key}: witnesses {ws.elements}")
            cert = ws.certificate
            p.check(index, cert is not None and cert.all_hold
                    and [v.points_scanned for v in cert.pairs] == want["scans"],
                    f"{key}: pair scans differ")
            if cert is None:
                continue
            text = _canonical(cert.to_json())
            p.check(index, sha256(text) == EXPECTED["dscan"][key],
                    f"{key}: certificate digest differs")
            for _ in range(self.verify_repeats):
                p.verify(index, self.verify, text)

    @staticmethod
    def verify(text: str) -> bool:
        from mqf import verify_certificate

        return not verify_certificate(json.loads(text), jobs=1)


class Tower:
    """`build_tower(55, 3, 3)` with seeded offsets, then `verify_tower`."""

    name = "tower"
    pass_is_op = True
    verify_repeats = 60
    seed_use = (f"a sequence of {TOWER_PAIRS} offset pairs from range({TOWER_OFFSETS}); "
                "pass i builds the tower for pair i")

    def make_inputs(self, seed: int) -> dict:
        # verify_tower replays is_squarefree(q) by trial division, so its cost
        # depends on the factorisation of each chosen q.  Cycling through
        # several offset pairs keeps one unlucky pair from setting verify_s.
        rng = _rng(self.name, seed)
        return {"offsets": [[rng.randrange(TOWER_OFFSETS) for _ in range(2)]
                            for _ in range(TOWER_PAIRS)]}

    def setup(self, inputs: dict) -> dict:
        from mqf import make_field

        return {"field": make_field([55]), "offsets": inputs["offsets"], "passes": 0}

    def run(self, state: dict, p: Pass) -> None:
        from mqf import build_tower

        offsets = state["offsets"][state["passes"] % len(state["offsets"])]
        state["passes"] += 1
        index, tower = p.call(build_tower, 55, 3, 3, offsets=offsets)
        if tower is None:
            return
        base = tower.base_certificate
        p.check(index, base.field == state["field"]
                and [_quadratic_coords(x) for x in base.witnesses]
                == DSCAN_EXPECTED["N3"]["witnesses"], "tower base witnesses differ")
        p.check(index, tower.field.k == 3 and tower.m_lower_bound == 3, "tower shape differs")
        text = _canonical(tower.to_json())
        key = ",".join(map(str, offsets))
        p.check(index, sha256(text) == EXPECTED["tower"][key], "tower digest differs")
        for _ in range(self.verify_repeats):
            p.verify(index, self.verify, text)

    @staticmethod
    def verify(text: str) -> bool:
        from mqf import verify_tower

        return not verify_tower(json.loads(text), jobs=1)


def conjugate_coords(coords: list[int], smask: int) -> list[int]:
    """Coordinates of the Galois conjugate that flips the generators in smask."""
    return [-c if (smask & m).bit_count() % 2 else c for m, c in enumerate(coords)]


class Indec:
    """Indecomposability of the totally positive integers of Q(sqrt2, sqrt3)."""

    name = "indec"
    pass_is_op = False
    verify_repeats = 1
    seed_use = ("each element up to the trace cap is replaced by a seeded random "
                "Galois conjugate, in seeded order")

    def make_inputs(self, seed: int) -> dict:
        # Indecomposability is Galois-invariant and the population is closed
        # under conjugation, so the stored list decides every verdict while
        # the seed still changes where each scan finds its witness.
        rng = _rng(self.name, seed)
        ind = EXPECTED["indec"]
        elements = [conjugate_coords(c, rng.randrange(4)) for c in ind["population"]]
        rng.shuffle(elements)
        return {"elements": elements}

    def setup(self, inputs: dict) -> dict:
        from mqf import make_field

        ind = EXPECTED["indec"]
        field = make_field(ind["primes"])
        den = ind["denominator"]
        return {
            "field": field,
            "elements": [field.from_scaled(c, den) for c in inputs["elements"]],
            "indecomposable": {tuple(c) for c in ind["indecomposable"]},
            "denominator": den,
        }

    def _is_listed(self, state: dict, x) -> bool:
        den, coords = x.scaled_coords()
        scale = state["denominator"] // den
        return tuple(c * scale for c in coords) in state["indecomposable"]

    def record(self, hit: bool, verdict) -> dict:
        return {"criterion": hit, "verdict": verdict.to_json()}

    def run(self, state: dict, p: Pass) -> None:
        from mqf import Verdict, exhaustive_indecomposable, normab_criterion

        def op(x):
            return normab_criterion(x), exhaustive_indecomposable(x)

        for x in state["elements"]:
            index, out = p.call(op, x)
            if out is None:
                continue
            hit, verdict = out
            p.check(index, verdict.verdict is not Verdict.UNKNOWN, "oracle budget exhausted")
            p.check(index, not hit or verdict.verdict.is_indecomposable,
                    f"norm criterion holds for decomposable {x!r}")
            p.check(index, verdict.verdict.is_indecomposable == self._is_listed(state, x),
                    f"verdict {verdict.verdict.value} disagrees with the list for {x!r}")
            p.verify(index, self.verify, state, _canonical(self.record(hit, verdict)))

    def verify(self, state: dict, text: str) -> bool:
        from mqf import Verdict, is_algebraic_integer

        field = state["field"]
        data = json.loads(text)["verdict"]
        x = field.element_from_json(data["element"])
        verdict = Verdict(data["verdict"])
        if verdict.is_indecomposable != self._is_listed(state, x):
            return False
        if verdict is not Verdict.DECOMPOSABLE:
            return True
        beta = field.element_from_json(data["witness"])
        return beta.is_totally_positive() and is_algebraic_integer(beta) \
            and (x - beta).is_totally_positive()


WORKLOADS = {w.name: w for w in (Dscan(), Tower(), Indec())}
