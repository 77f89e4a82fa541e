"""precats runs on the oldest Python its ``requires-python`` admits: every
module of the package parses as that version's grammar, and no pattern
``dumps`` compiles uses a form the ``re`` module of that version lacks."""

import ast
import pathlib
import re

import pytest

from precats import dumps

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "precats"


def _floor() -> tuple[int, int]:
    """The version ``requires-python`` names in pyproject.toml, ``>=3.x``."""
    spec = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                     (ROOT / "pyproject.toml").read_text(), re.M)
    return int(spec[1]), int(spec[2])


def test_the_floor_is_python_3_10():
    assert _floor() == (3, 10)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_module_parses_at_the_floor(path):
    ast.parse(path.read_text(), str(path), feature_version=_floor())


def test_dump_patterns_use_no_possessive_or_atomic_form():
    """Possessive quantifiers (``*+``, ``++``, ``?+``, ``}+``) and atomic
    groups (``(?>``) came with Python 3.11."""
    patterns = [value.pattern for value in vars(dumps).values() if isinstance(value, re.Pattern)]
    patterns += [value.__self__.pattern for value in vars(dumps).values()
                 if isinstance(getattr(value, "__self__", None), re.Pattern)]
    assert len(patterns) >= 5, patterns
    for pattern in patterns:
        assert not re.search(r"(?<!\\)[*+?}]\+|\(\?>", pattern), pattern
