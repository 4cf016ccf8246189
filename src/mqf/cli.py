"""Command-line front end: every pipeline stage with exact, reproducible output.

Exit codes: 0 success/verified; 1 verified-false (a violation or refutation
was found, or nothing was found to return); 2 budget exhaustion; 3 input or
usage error.  All numbers print exactly, rationals as "n/d"; JSON files are
canonical (sorted keys) so identical runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import certifier, cf, expr, indecomposables, tower
from .certifier import WitnessSet, dumps_canonical
from .errors import BudgetExceededError, MalformedPayloadError, MqfError, WitnessNotFoundError
from .fields import make_field

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_BUDGET = 2
EXIT_INPUT = 3


def _parse_int_list(text: str) -> list[int]:
    """A comma-separated integer list: --primes, --field or --offsets."""
    try:
        return [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise MqfError(f"cannot parse integer list '{text}'")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got '{text}'")
    return value


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(dumps_canonical(payload))
    if getattr(args, "json", False):
        sys.stdout.write(dumps_canonical(payload))
    else:
        for line in text_lines:
            print(line)


def _subset_label(field, mask: int) -> str:
    if mask == 0:
        return "{}"
    bits = [str(i + 1) for i in range(field.k) if mask >> i & 1]
    return "{" + ",".join(bits) + "}"


def cmd_field(args) -> int:
    field = make_field(_parse_int_list(args.primes))
    lines = [f"field: {field!r}", f"degree: {field.degree}", "radicands:"]
    for mask in range(field.degree):
        lines.append(f"  p_{_subset_label(field, mask)} = {field.radicands[mask]}")
    payload = field.to_json() | {
        "degree": field.degree,
        "radicands": {str(m): field.radicands[m] for m in range(field.degree)},
    }
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_elem(args) -> int:
    field = make_field(_parse_int_list(args.field))
    result = expr.evaluate(field, args.expr)
    text = expr.format_result(result)
    if isinstance(result, expr.BoolResult):
        payload = {"result": result.value}
    elif isinstance(result, expr.PolyResult):
        payload = {"charpoly": [expr.format_rational(c) for c in result.coefficients]}
    else:
        payload = {"element": result.to_json()}
    _emit(args, payload, [text])
    return EXIT_OK


def cmd_indec(args) -> int:
    field = make_field(_parse_int_list(args.field))
    value = expr.evaluate(field, args.elem)
    if not isinstance(value, expr.FieldElement):
        raise MqfError("--elem must evaluate to a field element")
    verdict = indecomposables.classify_indecomposable(
        value,
        args.budget or indecomposables.DEFAULT_ORACLE_BUDGET,
        deterministic=args.deterministic,
        use_norm_criterion=not args.oracle_only,
    )
    lines = [f"element: {value!r}", f"verdict: {verdict.verdict.value}"]
    if verdict.witness is not None:
        lines.append(f"witness: {verdict.witness!r}")
    lines.append(f"budget_used: {verdict.budget_used}")
    _emit(args, verdict.to_json(), lines)
    if verdict.verdict is indecomposables.Verdict.UNKNOWN:
        return EXIT_BUDGET
    return EXIT_OK if verdict.verdict.is_indecomposable else EXIT_FALSE


def cmd_cf(args) -> int:
    expansion = cf.cf_expand(args.D)
    lines = [f"sqrt({args.D}) = [{expansion.a0}; {', '.join(map(str, expansion.period))}]",
             f"period length: {len(expansion.period)}"]
    payload = expansion.to_json()
    if args.convergents:
        conv = cf.convergents(expansion, args.convergents)
        payload["convergents"] = [[p, q] for p, q in conv]
        for n, (p, q) in enumerate(conv):
            lines.append(f"  h{n}/k{n} = {p}/{q}   p^2-Dq^2 = {p * p - args.D * q * q}")
    _emit(args, payload, lines)
    return EXIT_OK


def _witness_lines(ws: WitnessSet) -> list[str]:
    D = ws.field.radicands[1] if ws.field.k == 1 else None
    lines = [f"field: {ws.field!r}"]
    if D is not None:
        lines.append(f"D: {D}")
    for i, e in enumerate(ws.elements):
        lines.append(f"a_{i + 1} = {e!r}   (trace {expr.format_rational(e.trace())})")
    if ws.certificate is not None:
        lines.append(f"certified: m(K) >= {ws.certificate.conclusion}")
    return lines


def cmd_witness(args) -> int:
    budget = args.budget or certifier.DEFAULT_PAIR_BUDGET
    if args.D is not None:
        ws = cf.search_witnesses(args.D, args.N, args.trace_bound, pair_budget=budget)
    else:
        ws = cf.scan_for_witnesses(args.N, d_limit=args.scan_limit,
                                   trace_bound=args.trace_bound,
                                   pair_budget=budget,
                                   d_start=args.scan_start)
    _emit(args, ws.to_json(), _witness_lines(ws))
    return EXIT_OK


def _read_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:  # bad JSON, bad UTF-8, an integer too long to read
        raise MalformedPayloadError(f"{path}: not a JSON artifact: {exc}")


def cmd_certify(args) -> int:
    ws = WitnessSet.from_json(_read_json(args.input))
    cert = certifier.certify_witness_set(
        ws.elements, budget=args.budget or certifier.DEFAULT_PAIR_BUDGET, jobs=args.jobs)
    certified = WitnessSet(ws.field, ws.elements, cert)
    lines = _witness_lines(certified)
    for pair in cert.pairs:
        status = "holds" if pair.holds else f"FAILS with c = {pair.violating_c!r}"
        lines.append(f"pair ({pair.i},{pair.j}): {status}  [{pair.points_scanned} points]")
    if cert.conclusion is None:
        lines.append("no conclusion: some pair fails")
    payload = certified.to_json() if args.with_witnesses else cert.to_json()
    _emit(args, payload, lines)
    return EXIT_OK if cert.all_hold else EXIT_FALSE


def cmd_tower(args) -> int:
    result = tower.build_tower(
        args.D, args.N, args.k,
        offsets=_parse_int_list(args.offsets) if args.offsets else None,
        trace_bound=args.trace_bound,
        pair_budget=args.budget or certifier.DEFAULT_PAIR_BUDGET,
        deep_verify=args.deep_verify,
    )
    lines = [f"top field: {result.field!r}",
             f"claim: m(K) >= {result.m_lower_bound}",
             f"base: D = {result.base_d} (certified)"]
    for level, step in enumerate(result.steps):
        lines.append(
            f"step {level}: q = {step.chosen_q} "
            f"(> {max(step.degree_threshold, step.trace_threshold)})"
        )
    _emit(args, result.to_json(), lines)
    return EXIT_OK


def cmd_verify(args) -> int:
    data = _read_json(args.input)
    jobs = args.jobs
    if not isinstance(data, dict):
        raise MalformedPayloadError("expected a JSON object: a certificate, tower, or witness set")
    if "steps" in data:
        problems = tower.verify_tower(data, jobs=jobs)
        kind = "tower"
    elif "pairs" in data:
        problems = certifier.verify_certificate(data, jobs=jobs)
        kind = "certificate"
    elif "elements" in data:
        kind = "witness set"
        ws = WitnessSet.from_json(data)
        if ws.certificate is None:
            problems = ["the witness set carries no certificate"]
        else:
            # the comparison re-validates the witnesses, so the elements need
            # only equal them
            problems = certifier.compare_certificate(ws.certificate, data["certificate"],
                                                     jobs=jobs)
            if ws.certificate.witnesses != ws.elements:
                problems.insert(0, "certificate witnesses differ from the element list")
    else:
        raise MqfError("unrecognized payload: expected a certificate, tower, or witness set")
    if problems:
        print(f"{kind}: FAILED verification", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return EXIT_FALSE
    print(f"{kind}: verified")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one stderr line; main() maps it to exit 3."""

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mqf",
        description="Exact multiquadratic arithmetic and certified lower bounds "
                    "for universal quadratic forms.",
    )
    parser.add_argument("--version", action="version", version="mqf 0.1.0")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        p.add_argument("--json", action="store_true", help="print canonical JSON to stdout")
        if out:
            p.add_argument("--out", help="write canonical JSON to this file")

    p = sub.add_parser("field", help="inspect a field")
    p.add_argument("--primes", required=True, help="comma-separated generators, e.g. 2,3")
    common(p)
    p.set_defaults(handler=cmd_field)

    p = sub.add_parser("elem", help="exact element arithmetic")
    p.add_argument("--field", required=True, help="comma-separated generators")
    p.add_argument("--expr", required=True,
                   help="expression, e.g. 'tr((3+s2)^1)' or 'charpoly((s2+s6)/2)'")
    common(p)
    p.set_defaults(handler=cmd_elem)

    p = sub.add_parser("indec", help="indecomposability criterion and oracle")
    p.add_argument("--field", required=True)
    p.add_argument("--elem", required=True)
    p.add_argument("--budget", type=_positive_int, help="oracle lattice-point budget")
    p.add_argument("--deterministic", action="store_true",
                   help="lexicographically smallest decomposition witness")
    p.add_argument("--oracle-only", action="store_true",
                   help="skip the norm criterion, always run the oracle")
    common(p)
    p.set_defaults(handler=cmd_indec)

    p = sub.add_parser("cf", help="continued fraction of sqrt(D)")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--convergents", type=_positive_int, metavar="COUNT")
    common(p)
    p.set_defaults(handler=cmd_cf)

    p = sub.add_parser("witness", help="search or scan for certified witnesses")
    p.add_argument("--N", type=_positive_int, required=True,
                   help="witness count (m(K) >= N)")
    p.add_argument("--D", type=int, help="search this field only")
    p.add_argument("--scan-limit", type=int, default=cf.DEFAULT_SCAN_LIMIT,
                   help="scan squarefree D up to this bound (when --D is absent)")
    p.add_argument("--scan-start", type=int, default=2,
                   help="start the D-scan here; successive starts enumerate "
                        "successive admissible fields")
    p.add_argument("--trace-bound", type=int, default=cf.DEFAULT_TRACE_BOUND)
    p.add_argument("--budget", type=_positive_int, help="per-pair lattice budget")
    common(p)
    p.set_defaults(handler=cmd_witness)

    p = sub.add_parser("certify", help="certify a witness-set JSON file")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--budget", type=_positive_int)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--with-witnesses", action="store_true",
                   help="emit the witness set with embedded certificate instead "
                        "of the bare certificate")
    common(p)
    p.set_defaults(handler=cmd_certify)

    p = sub.add_parser("tower", help="build a certified multiquadratic tower")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--N", type=_positive_int, required=True)
    p.add_argument("--k", type=_positive_int, required=True,
                   help="tower height (degree 2^k)")
    p.add_argument("--offsets", help="comma-separated q offsets per level")
    p.add_argument("--trace-bound", type=int, default=cf.DEFAULT_TRACE_BOUND)
    p.add_argument("--budget", type=_positive_int)
    p.add_argument("--deep-verify", action="store_true",
                   help="also certify the witness set in the top field (expensive)")
    common(p)
    p.set_defaults(handler=cmd_tower)

    p = sub.add_parser("verify", help="re-derive a certificate, tower, or witness file")
    p.add_argument("input")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        return args.handler(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except WitnessNotFoundError as exc:
        suffix = " (budget-limited)" if exc.budget_limited else ""
        print(f"not found: {exc}{suffix}", file=sys.stderr)
        return EXIT_FALSE
    except (MqfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
