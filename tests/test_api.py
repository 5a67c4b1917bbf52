"""Public names: every __all__ entry of the package and its modules resolves,
none is listed twice, and the README lists exactly the package's."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import sgswe

MODULES = ["sgswe"] + [f"sgswe.{m.name}" for m in pkgutil.iter_modules(sgswe.__path__)]
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve_once(name):
    module = importlib.import_module(name)
    assert len(module.__all__) == len(set(module.__all__))
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_readme_public_api_matches_all():
    # the bullet list right after the heading line, up to the next blank line
    after = README.read_text().split("The public API (`sgswe.__all__`):", 1)[1]
    bullets = after.lstrip("\n").split("\n\n", 1)[0]
    listed = re.findall(r"`(\w+)`", bullets)
    assert sorted(listed) == sorted(n for n in sgswe.__all__ if n != "__version__")
