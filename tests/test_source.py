"""Checks on the package source itself."""

import ast
import importlib.util
import re
from pathlib import Path

import qmoments
from qmoments.mpoly import MPoly

SOURCES = sorted(Path(qmoments.__file__).parent.glob("*.py"))


def test_no_check_is_stripped_by_optimize():
    # `python -O` drops every assert statement and every `if __debug__:`
    # block, so a check in the package raises an exception instead
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__"):
                found.append("%s:%d" % (path.name, node.lineno))
    assert len(SOURCES) > 10
    assert found == []


def test_packed_format_stays_inside_mpoly():
    # only mpoly.py reads or builds the packed fields of an MPoly
    packed = re.compile(r"\b(_packed|_Laurent)\b|\._(coeffs|w|L|V|mag|span|deg)\b")
    found = [
        path.name
        for path in SOURCES
        if path.name != "mpoly.py" and packed.search(path.read_text())
    ]
    assert "mpoly.py" in {path.name for path in SOURCES}
    assert found == []


def test_benchmark_tracer_patches_and_restores():
    # perfbench/tracer.py patches qmoments functions and methods by name, so
    # a rename in the package would break a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracing.install_layers(tracer)
        patches = list(tracer._patches)
        x = MPoly.var(0, 2, "q")
        (x + 1).mul(x - 1)
    finally:
        tracer.restore()
    patched = {(getattr(obj, "__name__", ""), key) for obj, key, _ in patches}
    for attr in ("mul", "__add__", "__radd__", "scale", "divexact"):
        assert ("MPoly", attr) in patched
    # hooked names no workload may enter, so no trim may drop them first
    for attr in ("__add__", "__radd__", "__mul__", "__rmul__", "__pow__", "inverse", "scale", "subs_z"):
        assert ("ZSeries", attr) in patched
    for module, name in (("hall_littlewood", "hl_p"), ("rbasis", "c_coeff"), ("rbasis", "rlambda_poly"),
                         ("groups", "enumerate_subgroups")):
        assert ("qmoments." + module, name) in patched
    assert tracer.stats["mpoly.mul"][0] == 1
    assert tracer.counts["mpoly.mul.term_pairs"] == 4
    assert [key for obj, key, value in patches if vars(obj)[key] is not value] == []


def test_every_module_level_name_is_used():
    # a module-level def or class that nothing names outside its own
    # definition, in src/, tests/ or perfbench/, is dead code
    root = Path(__file__).resolve().parents[1]
    files = SOURCES + sorted((root / "tests").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    texts = {path: path.read_text() for path in files}
    unused = []
    for path in SOURCES:
        lines = texts[path].splitlines(keepends=True)
        for node in ast.parse(texts[path], str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list]) - 1
            rest = "".join(lines[:start] + lines[node.end_lineno :])
            name = re.compile(r"\b%s\b" % re.escape(node.name))
            if not name.search(rest) and not any(name.search(t) for p, t in texts.items() if p != path):
                unused.append("%s:%s" % (path.name, node.name))
    assert len(SOURCES) > 10
    assert unused == []


def _literal_repr(node):
    """repr of a literal argument's value; None for any other argument."""
    try:
        return repr(ast.literal_eval(node))
    except (ValueError, TypeError, SyntaxError):
        return None


def test_no_parameter_takes_one_value_at_every_call():
    # a parameter of a module-level src/ function that every direct call in
    # src/, tests/ or perfbench/ passes as the same literal, or leaves at
    # its default, is a constant; a non-literal or starred argument varies,
    # and a function with no direct call is skipped
    root = Path(__file__).resolve().parents[1]
    files = SOURCES + sorted((root / "tests").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}
    signatures = {}
    for path in SOURCES:
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
                fields = list(zip(positional, defaults)) + list(zip(args.kwonlyargs, args.kw_defaults))
                signatures.setdefault(node.name, []).append(
                    ("%s:%s" % (path.name, node.name), [(a.arg, d) for a, d in fields], len(positional))
                )
    # "file:function(parameter)" -> the literal reprs passed, None if one varies
    values = {}
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            for where, fields, npos in signatures.get(name, ()):
                starred = any(isinstance(a, ast.Starred) for a in call.args)
                starred |= any(k.arg is None for k in call.keywords)
                given = dict(zip([f for f, _ in fields[:npos]], call.args))
                given.update((k.arg, k.value) for k in call.keywords)
                for field, default in fields:
                    node = None if starred else given.get(field, default)
                    seen = values.setdefault("%s(%s)" % (where, field), set())
                    seen.add(None if node is None else _literal_repr(node))
    constant = sorted(key for key, seen in values.items() if len(seen) == 1 and None not in seen)
    assert len(signatures) > 100
    assert constant == []
