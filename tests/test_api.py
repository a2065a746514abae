"""The public surface: every exported name has a caller outside its module."""

import inspect
import re
from pathlib import Path

import fluxlab as fl

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fluxlab"


def test_every_export_has_a_caller():
    # a caller is another module of the package (a run), a demo, or
    # README's library tour and module table; tests do not count
    sources = {p: p.read_text() for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    sources.update({p: p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))})
    sources[ROOT / "README.md"] = (ROOT / "README.md").read_text()
    orphans = []
    for name in fl.__all__:
        obj = getattr(fl, name)
        home = obj.__name__ if inspect.ismodule(obj) else obj.__module__
        own = PACKAGE / (home.rsplit(".", 1)[-1] + ".py")
        word = re.compile(rf"(?<!\w){re.escape(name)}(?!\w)")
        if not any(word.search(text) for path, text in sources.items() if path != own):
            orphans.append(name)
    assert orphans == []
