"""Checks on the package source itself."""

import ast
import re
from pathlib import Path

import qmoments

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
    # only mpoly.py reads or builds the packed form of an MPoly
    found = [
        path.name
        for path in SOURCES
        if path.name != "mpoly.py" and re.search(r"\b(_packed|_Laurent)\b", path.read_text())
    ]
    assert "mpoly.py" in {path.name for path in SOURCES}
    assert found == []
