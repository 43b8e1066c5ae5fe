"""The public names of the package agree with each other: ``__all__``, what
``wkbrec/__init__.py`` imports and what README lists as exported."""

import ast
import inspect
import re
from collections import Counter
from pathlib import Path

import wkbrec

ROOT = Path(__file__).resolve().parents[1]


def test_every_name_in_all_resolves_once():
    assert [name for name, n in Counter(wkbrec.__all__).items() if n > 1] == []
    assert [name for name in wkbrec.__all__ if not hasattr(wkbrec, name)] == []


def test_every_public_import_is_in_all():
    tree = ast.parse(Path(inspect.getfile(wkbrec)).read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    public = [
        name
        for name in imported
        if not name.startswith("_") and not inspect.ismodule(getattr(wkbrec, name))
    ]
    assert public
    assert sorted(set(public) - set(wkbrec.__all__)) == []


def test_readme_lower_level_pieces_are_exported():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = re.search(r"^Lower-level pieces are exported too:.*?(?=\n\n)", text, re.S | re.M)
    names = re.findall(r"`(\w+)`", paragraph.group(0))
    assert len(names) > 10
    assert [name for name in names if name not in wkbrec.__all__] == []
