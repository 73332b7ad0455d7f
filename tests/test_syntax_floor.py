"""The oldest Python that pyproject.toml admits must at least parse the code.

``requires-python`` is ``>=3.10``.  Parsing with ``feature_version=(3, 10)``
rejects syntax added after 3.10, such as ``except*``, on whatever newer
interpreter runs the suite.  This is a best-effort check of syntax only:
the parser does not promise to reject every newer construct, and nothing
here checks that the standard-library names the code uses exist on 3.10.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = (3, 10)
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def test_floor_matches_pyproject():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()


def test_sources_found():
    assert len(SOURCES) >= 20


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
