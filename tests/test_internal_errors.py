"""Internal soundness checks raise InternalError (CLI exit 4), never assert."""

import ast
from pathlib import Path

import pytest

import xlat.galois as galois
from xlat.cli import EXIT_INTERNAL, main
from xlat.errors import InternalError
from xlat.polycore import parse_polynomial

SRC = Path(__file__).parent.parent / "src" / "xlat"


def _assert_sites(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno, "raise AssertionError"


def test_no_assert_in_library_code():
    """python -O strips assert statements, and AssertionError prints a traceback."""
    sites = [
        f"{path.name}:{line}: {what}"
        for path in sorted(SRC.glob("*.py"))
        for line, what in _assert_sites(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert sites == []


def test_true_group_missing_from_catalog_is_an_internal_error(monkeypatch, capsys):
    # the Galois group of x^4+x^2+x+1 is S4; without it, the odd candidates
    # C4 and D4 are both excluded by the Frobenius patterns
    text = "x^4+x^2+x+1"
    f = parse_polynomial(text)
    true_group = galois.galois_group(f)
    full = galois.catalog_for_degree
    monkeypatch.setattr(
        galois, "catalog_for_degree", lambda d: [e for e in full(d) if e is not true_group]
    )
    with pytest.raises(InternalError, match="filtered out"):
        galois.galois_group(f)
    assert main(["galois", text]) == EXIT_INTERNAL
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("internal error: ") and out.err.count("\n") == 1
