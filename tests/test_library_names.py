"""Every public module-level function or class in ``src/mqf`` is reached from
outside the tests: code that only the tests call belongs in ``tests/``."""

import ast
import re
from pathlib import Path

import mqf

ROOT = Path(__file__).resolve().parent.parent


def _names_used(nodes) -> set[str]:
    out = set()
    for tree in nodes:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name)
    return out


def unreached(sources: dict[str, str], exported, harness: str) -> list[str]:
    """The public top-level functions and classes of ``sources`` (module name
    -> text) that are not exported, not used by another module or elsewhere
    in their own, and not named in the ``harness`` text."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = {name: _names_used([tree]) for name, tree in trees.items()}
    out = []
    for module, tree in trees.items():
        elsewhere = set().union(*(u for m, u in used.items() if m != module))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            name = node.name
            if (name in exported or name in elsewhere
                    or name in _names_used(n for n in tree.body if n is not node)
                    or re.search(rf"\b{name}\b", harness)):
                continue
            out.append(f"{module}.{name}")
    return out


def test_every_public_name_is_reached_from_the_library():
    sources = {p.stem: p.read_text() for p in sorted((ROOT / "src" / "mqf").glob("*.py"))}
    harness = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    assert unreached(sources, mqf.__all__, harness) == []


def test_a_name_only_the_tests_reach_is_reported():
    sources = {
        "a": "def kept():\n    return helper()\n\ndef helper():\n    return 1\n\n"
             "def lonely(n):\n    return lonely(n - 1) if n else 0\n\nclass Exported:\n    pass\n",
        "b": "from .a import kept\n\ndef bench_only():\n    return kept()\n",
    }
    assert unreached(sources, ["Exported"], "b.bench_only()") == ["a.lonely"]
