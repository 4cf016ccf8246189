import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mqf.kernels
from mqf.certifier import dumps_canonical
from mqf.cli import main
from mqf.errors import ExprError
from mqf.expr import BoolResult, PolyResult, evaluate, format_result
from mqf.fields import make_field


# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------

def test_expr_examples(q23):
    assert format_result(evaluate(q23, "tr((3+s2)^1)")) == "12"
    assert format_result(evaluate(q23, "s2*s3")) == "s6"
    assert format_result(evaluate(q23, "norm(2+s3)")) == "1"
    assert format_result(evaluate(q23, "charpoly((s2+s6)/2)")) == "T^4 - 4*T^2 + 1"
    assert format_result(evaluate(q23, "pos(2+(s2+s6)/2)")) == "true"
    assert format_result(evaluate(q23, "pos(1+s2)")) == "false"


def test_expr_arithmetic(q5):
    assert evaluate(q5, "(1+s5)/2*((1+s5)/2)") == evaluate(q5, "(3+s5)/2")
    assert format_result(evaluate(q5, "2^-1")) == "1/2"
    assert format_result(evaluate(q5, "(1+s5)^-1 * (1+s5)")) == "1"
    assert format_result(evaluate(q5, "-3/4")) == "-3/4"
    assert format_result(evaluate(q5, "tr(s5)")) == "0"


def test_expr_precedence(q2):
    assert format_result(evaluate(q2, "1+2*3")) == "7"
    assert format_result(evaluate(q2, "2*s2^2")) == "4"
    assert format_result(evaluate(q2, "-s2^2")) == "-2"


def test_expr_error_spans(q23):
    with pytest.raises(ExprError) as err:
        evaluate(q23, "tr(3+s7)")
    assert err.value.start == 5 and err.value.end == 7
    with pytest.raises(ExprError):
        evaluate(q23, "charpoly(2) + 1")
    with pytest.raises(ExprError):
        evaluate(q23, "1 +")
    with pytest.raises(ExprError):
        evaluate(q23, "foo(2)")
    with pytest.raises(ExprError):
        evaluate(q23, "1/0")


# ---------------------------------------------------------------------------
# CLI commands (in-process)
# ---------------------------------------------------------------------------

def run_cli(*argv):
    return main(list(argv))


def test_cli_field(capsys):
    assert run_cli("field", "--primes", "2,3") == 0
    out = capsys.readouterr().out
    assert "degree: 4" in out and "p_{1,2} = 6" in out


def test_cli_elem_trace(capsys):
    assert run_cli("elem", "--field", "2,3", "--expr", "tr((3+s2)^1)") == 0
    assert capsys.readouterr().out.strip() == "12"


def test_cli_elem_json(capsys):
    assert run_cli("elem", "--field", "2,3", "--expr", "1/2 + s6", "--json") == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"element": {"coeffs": {"0": "1/2", "3": "1/1"}}}


def test_cli_exit_codes_input_errors(capsys):
    assert run_cli("elem", "--field", "2,4", "--expr", "1") == 3       # bad field
    assert run_cli("elem", "--field", "2", "--expr", "s3") == 3        # bad token
    assert run_cli("cf", "--D", "16") == 3                             # square
    assert run_cli("nonsense") == 3                                    # bad command
    capsys.readouterr()


def test_cli_indec(capsys):
    assert run_cli("indec", "--field", "2,3", "--elem", "2+s3") == 0
    out = capsys.readouterr().out
    assert "indecomposable_by_norm" in out
    assert run_cli("indec", "--field", "2", "--elem", "2") == 1
    out = capsys.readouterr().out
    assert "decomposable" in out and "witness: 1" in out
    # fat element with a tiny budget: unknown, exit 2
    assert run_cli("indec", "--field", "2,3", "--elem", "30+s2",
                   "--budget", "10", "--deterministic") == 2
    capsys.readouterr()


def test_cli_cf(capsys):
    assert run_cli("cf", "--D", "19", "--convergents", "6") == 0
    out = capsys.readouterr().out
    assert "[4; 2, 1, 3, 1, 2, 8]" in out
    assert "170/39" in out


def test_cli_witness_certify_verify_roundtrip(tmp_path, capsys):
    wfile = tmp_path / "witness.json"
    assert run_cli("witness", "--N", "2", "--D", "15", "--trace-bound", "60",
                   "--out", str(wfile)) == 0
    capsys.readouterr()
    data = json.loads(wfile.read_text())
    assert len(data["elements"]) == 2
    assert data["certificate"]["conclusion"] == {"m_lower_bound": 2}

    cfile = tmp_path / "cert.json"
    assert run_cli("certify", "--in", str(wfile), "--out", str(cfile)) == 0
    capsys.readouterr()
    assert run_cli("verify", str(cfile)) == 0
    assert "verified" in capsys.readouterr().out
    assert run_cli("verify", str(wfile)) == 0
    capsys.readouterr()


def test_cli_verify_tampered_exit_1(tmp_path, capsys):
    cfile = tmp_path / "cert.json"
    assert run_cli("witness", "--N", "2", "--D", "15", "--trace-bound", "60",
                   "--out", str(cfile)) == 0
    data = json.loads(cfile.read_text())
    key = sorted(data["certificate"]["witnesses"][1]["coeffs"])[0]
    data["certificate"]["witnesses"][1]["coeffs"][key] = "42/1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run_cli("verify", str(bad)) == 1
    err = capsys.readouterr().err
    assert "FAILED" in err


def test_cli_witness_not_found_exit_1(capsys):
    assert run_cli("witness", "--N", "9", "--D", "2", "--trace-bound", "8") == 1
    capsys.readouterr()


def test_cli_witness_budget_limited_exit_1(capsys):
    # the set the search picks cannot be certified in 10 points: not found,
    # and the message says the budget, not the search space, ran out
    assert run_cli("witness", "--N", "3", "--D", "55", "--budget", "10") == 1
    assert "(budget-limited)" in capsys.readouterr().err


def test_cli_witness_screen_mismatch_exit_3(tmp_path, monkeypatch, capsys):
    # a screen that accepts every pair hands certification a failing set:
    # an internal error (exit 3) naming the pair, never "verified-false"
    monkeypatch.setattr("mqf.cf._pair_holds", lambda D, a, b: True)
    out = tmp_path / "w.json"
    assert run_cli("witness", "--N", "3", "--D", "55", "--out", str(out)) == 3
    assert "pair (0,1)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("D", ["1", "12", "16"])
def test_cli_witness_bad_D_exit_3(D, capsys):
    # an unusable D is an input error, not an empty search
    assert run_cli("witness", "--N", "2", "--D", D) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not found" not in err


def test_cli_verify_witness_set_with_bad_element_exit_1(tmp_path, capsys):
    # an element edited to a non-totally-positive value fails verification,
    # whether or not the certificate's witness is edited to match
    wfile = tmp_path / "witness.json"
    assert run_cli("witness", "--N", "2", "--D", "15", "--out", str(wfile)) == 0
    capsys.readouterr()
    for edit_certificate in (False, True):
        data = json.loads(wfile.read_text())
        data["elements"][1]["coeffs"]["0"] = "-5/1"
        if edit_certificate:
            data["certificate"]["witnesses"][1]["coeffs"]["0"] = "-5/1"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert run_cli("verify", str(bad)) == 1
        err = capsys.readouterr().err
        assert "FAILED" in err
        assert ("witness invalid" in err) == edit_certificate


def test_cli_deterministic_reruns_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert run_cli("witness", "--N", "2", "--D", "15", "--trace-bound", "60",
                       "--out", str(path)) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_cli_tower_and_verify(tmp_path, capsys):
    tfile = tmp_path / "tower.json"
    assert run_cli("tower", "--D", "15", "--N", "2", "--k", "2",
                   "--trace-bound", "60", "--out", str(tfile)) == 0
    capsys.readouterr()
    assert run_cli("verify", str(tfile)) == 0
    capsys.readouterr()
    data = json.loads(tfile.read_text())
    data["steps"][0]["q"] += 2
    tfile.write_text(json.dumps(data))
    assert run_cli("verify", str(tfile)) == 1
    capsys.readouterr()


def test_cli_tower_deep_verify(tmp_path, capsys):
    tfile = tmp_path / "tower.json"
    assert run_cli("tower", "--D", "15", "--N", "2", "--k", "2", "--deep-verify",
                   "--out", str(tfile)) == 0
    capsys.readouterr()
    data = json.loads(tfile.read_text())
    assert data["top_certificate"]["conclusion"] == {"m_lower_bound": 2}
    assert run_cli("verify", str(tfile)) == 0
    capsys.readouterr()


def test_cli_pool_matches_serial_with_warm_plans(tmp_path, monkeypatch, capsys):
    # two CPUs, so --jobs 2 runs the three pairs in two worker processes;
    # the witness search fills the kernel's plan memo first, and no task
    # may carry a plan across
    monkeypatch.setattr("os.cpu_count", lambda: 2)

    def refuse(self, protocol):
        raise AssertionError("a scan plan was pickled")

    monkeypatch.setattr(mqf.kernels._Plan, "__reduce_ex__", refuse)
    wfile = tmp_path / "w.json"
    assert run_cli("witness", "--N", "3", "--D", "55", "--out", str(wfile)) == 0
    assert mqf.kernels._PLANS.plans
    outputs = {}
    for jobs in ("1", "2"):
        cfile = tmp_path / jobs / "cert.json"
        cfile.parent.mkdir()
        capsys.readouterr()
        assert run_cli("certify", "--in", str(wfile), "--jobs", jobs, "--out", str(cfile)) == 0
        certify = capsys.readouterr()
        assert run_cli("verify", str(cfile), "--jobs", jobs) == 0
        verify = capsys.readouterr()
        outputs[jobs] = (cfile.read_bytes(), certify, verify)
    assert outputs["1"] == outputs["2"]
    assert "verified" in outputs["2"][2].out


def _nested(inner: str) -> str:
    return "(" * 3000 + inner + ")" * 3000


@pytest.mark.parametrize("argv, message", [
    (["cf", "--D", "19", "--convergents", "-1"], "positive integer"),
    (["witness", "--N", "0", "--D", "15"], "positive integer"),
    (["tower", "--D", "55", "--N", "3", "--k", "0"], "positive integer"),
    (["certify", "--in", "w.json", "--jobs", "0"], "positive integer"),
    (["elem", "--field", "2", "--expr", _nested("1")], "nested too deeply"),
    (["indec", "--field", "2", "--elem", _nested("3")], "nested too deeply"),
    (["elem", "--field", "2", "--expr", "0" + "-" * 5000 + "1"], "nested too deeply"),
    (["elem", "--field", "2", "--expr", "7" * 5000], "more than 3000 digits"),
    (["elem", "--field", "2", "--expr", "s" + "7" * 5000], "more than 3000 digits"),
    (["elem", "--field", "2", "--expr", "(10^3000)^2"], "too large"),
    (["elem", "--field", "2", "--expr", "s2^99999999"], "too large"),
    (["elem", "--field", "2", "--expr", "10^3000*10^3000"], "too large"),
    (["elem", "--field", "2", "--expr", "\u00b2"], "unexpected character"),  # superscript 2
    # an empty witness set, and the certificate of one (m(K) >= 0)
    (["certify", "--in", "empty.json"], "cannot certify an empty witness set"),
    (["verify", "empty-certificate.json"], "cannot certify an empty witness set"),
], ids=["convergents", "N", "k", "jobs", "elem-parens", "indec-parens", "elem-minus",
        "elem-literal", "elem-sqrt-literal", "elem-square", "elem-power", "elem-product",
        "elem-superscript", "certify-empty", "verify-empty"])
def test_cli_bad_input_exit_3(argv, message, tmp_path):
    (tmp_path / "empty.json").write_text(json.dumps(
        {"field": {"primes": [15]}, "elements": [], "certificate": None}))
    (tmp_path / "empty-certificate.json").write_text(json.dumps(
        {"conclusion": {"m_lower_bound": 0}, "field": {"primes": [15]},
         "lattice": {"denominator": 2, "kind": "superset"}, "pair_budget": 10**8,
         "pair_condition": "i<j", "pairs": [], "witnesses": []}))
    out = subprocess.run([sys.executable, "-m", "mqf.cli", *argv], cwd=tmp_path,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 3
    assert "Traceback" not in out.stderr
    assert len(out.stderr.strip().splitlines()) == 1
    assert message in out.stderr


@pytest.mark.parametrize("offsets, message", [
    ("1,2,3", "too many offsets"),
    ("x", "cannot parse"),
    ("-1", "negative"),  # counting down from -1 would never reach the q
], ids=["too-many", "not-a-number", "negative"])
def test_cli_tower_bad_offsets_exit_3(offsets, message):
    out = subprocess.run([sys.executable, "-m", "mqf.cli", "tower", "--D", "15", "--N", "2",
                          "--k", "2", "--trace-bound", "60", "--offsets", offsets],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 3
    assert "Traceback" not in out.stderr
    assert len(out.stderr.strip().splitlines()) == 1
    assert message in out.stderr


def test_cli_budget_flag_limits_certify(tmp_path, capsys):
    # certification of (1,1)-style fat pair in Q(sqrt 2) cannot finish in 10 points
    wfile = tmp_path / "w.json"
    ws = {"field": {"primes": [2]},
          "elements": [{"coeffs": {"0": "9/1"}}, {"coeffs": {"0": "9/1", "1": "1/1"}}],
          "certificate": None}
    wfile.write_text(json.dumps(ws))
    code = run_cli("certify", "--in", str(wfile), "--budget", "10",
                   "--out", str(tmp_path / "c.json"))
    capsys.readouterr()
    assert code in (1, 2)  # violation found fast (exit 1) or budget stop (exit 2)


def test_cli_missing_file_exit_3(capsys):
    assert run_cli("verify", "/nonexistent/file.json") == 3
    capsys.readouterr()


def test_cli_subprocess_smoke(tmp_path):
    out = subprocess.run([sys.executable, "-m", "mqf.cli", "--version"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "mqf" in out.stdout
    out = subprocess.run(
        [sys.executable, "-m", "mqf.cli", "elem", "--field", "2,3", "--expr", "norm(2+s3)"],
        capture_output=True, text=True)
    assert out.returncode == 0 and out.stdout.strip() == "1"


def test_cli_scan_start_enumerates_successive_fields(tmp_path, capsys):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert run_cli("witness", "--N", "2", "--scan-limit", "100",
                   "--trace-bound", "200", "--out", str(first)) == 0
    d1 = json.loads(first.read_text())["field"]["primes"][0]
    assert run_cli("witness", "--N", "2", "--scan-limit", "100",
                   "--trace-bound", "200", "--scan-start", str(d1 + 1),
                   "--out", str(second)) == 0
    d2 = json.loads(second.read_text())["field"]["primes"][0]
    assert d2 > d1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# verify on hostile input: exit 3 with one line, never a traceback
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Real witness, certificate and tower files (one tower with a top certificate)."""
    root = tmp_path_factory.mktemp("artifacts")
    paths = {name: root / f"{name}.json" for name in
             ("witness", "certificate", "tower", "deep_tower")}
    assert main(["witness", "--N", "2", "--D", "15", "--trace-bound", "60",
                 "--out", str(paths["witness"])]) == 0
    assert main(["certify", "--in", str(paths["witness"]),
                 "--out", str(paths["certificate"])]) == 0
    tower = ["tower", "--D", "15", "--N", "2", "--k", "2", "--trace-bound", "60"]
    assert main(tower + ["--out", str(paths["tower"])]) == 0
    assert main(tower + ["--deep-verify", "--out", str(paths["deep_tower"])]) == 0
    return {name: json.loads(path.read_text()) for name, path in paths.items()}


def _reproduction(certificate, case):
    data = json.loads(json.dumps(certificate))
    if case == "pairs-null":
        data["pairs"] = None
    elif case == "coefficient-x/2":
        data["witnesses"][1]["coeffs"]["0"] = "x/2"
    elif case == "int64-radicand":
        # squarefree and below 2^63, but 15 times it is not
        data["field"]["primes"] = [15, 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43 * 47 * 53]
        data["lattice"]["denominator"] = 4
    else:
        data["field"]["primes"] = [15, 2, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
    return data


@pytest.mark.parametrize("case", ["pairs-null", "coefficient-x/2", "int64-radicand",
                                  "twelve-primes"])
def test_cli_verify_hostile_certificate_exit_3(case, artifacts, tmp_path):
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(_reproduction(artifacts["certificate"], case)))
    out = subprocess.run([sys.executable, "-m", "mqf.cli", "verify", str(path)],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 3
    assert "Traceback" not in out.stderr
    assert len(out.stderr.strip().splitlines()) == 1


def test_cli_verify_tower_with_non_squarefree_q_exit_3(artifacts, tmp_path, capsys):
    # 4q is prime to 15 and above both bounds; parsing the top field refuses it
    data = json.loads(json.dumps(artifacts["tower"]))
    q = 4 * data["steps"][0]["q"]
    data["steps"][0]["q"] = data["field"]["primes"][1] = q
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert f"{q} is not a squarefree integer" in err


# Replacement values: every JSON type, malformed and non-canonical rationals,
# an over-long integer string.  Positive integers are left out: pair_budget
# and step offsets are recorded but not replayed, so a different positive
# value there verifies.
HOSTILE = [None, True, False, 0, -1, 2.5, "", "x/2", "1/1", "2/2", "01/1", "12",
           "9" * 5000, [], [1], {}, {"coeffs": {}}, {"primes": [2, 3]}]


def _paths(node, path=()):
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _mutations(doc, rng):
    """(label, mutated copy) for every node: two replacements, and a dropped,
    added or duplicated member where the node is an object or a list."""
    def edited(path, op):
        box = [json.loads(json.dumps(doc))]  # gives the root a parent too
        parent, key = box, 0
        for step in path:
            parent, key = parent[key], step
        op(parent, key)
        return box[0]

    def put(value):
        return lambda parent, key: parent.__setitem__(key, value)

    for path, node in list(_paths(doc)):
        for value in rng.sample(HOSTILE, 2):
            yield f"{path} = {str(value)[:20]}", edited(path, put(value))
        if path:
            yield f"del {path}", edited(path, lambda parent, key: parent.pop(key))
        if isinstance(node, dict):
            yield f"{path} + extra", edited(path, lambda parent, key: parent[key].update(extra=1))
        if isinstance(node, list) and node:
            yield f"{path} + dup", edited(path, lambda parent, key: parent[key].append(node[-1]))


def test_cli_verify_fuzzed_artifacts(artifacts, tmp_path, capsys):
    rng = random.Random(2026)
    path = tmp_path / "mutated.json"
    codes = {0: 0, 1: 0, 2: 0, 3: 0}
    for name, doc in artifacts.items():
        original = dumps_canonical(doc)
        for label, mutated in _mutations(doc, rng):
            path.write_text(json.dumps(mutated))
            code = main(["verify", str(path)])  # an uncaught exception fails here
            err = capsys.readouterr().err
            assert code in codes, (name, label)
            assert "Traceback" not in err
            if code == 3:
                assert len(err.strip().splitlines()) == 1, (name, label, err)
            if code == 0:
                assert dumps_canonical(mutated) == original, (name, label)
            codes[code] += 1
    assert codes[3] > 100 and codes[1] > 10
