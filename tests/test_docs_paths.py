"""Every backticked ``repro.…`` path in the docs names something that exists.

The prose docs cite modules, classes and functions by dotted path.  Each
such path (a backticked span that is nothing but ``repro`` and dotted
names) must resolve: its longest importable module prefix is imported and
the rest looked up as attributes, so a deleted or renamed API cannot
outlive its mention in the docs.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ["docs/API.md", "DESIGN.md", "README.md", "docs/REPRODUCING.md", "EXPERIMENTS.md"]

_PATH = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)`")


def _documented_paths():
    return sorted({(doc, p) for doc in DOCS for p in _PATH.findall((ROOT / doc).read_text())})


def _resolve(path):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ModuleNotFoundError(path)


def test_docs_cite_paths():
    # The scan itself works: the docs cite dozens of paths.
    assert len({p for _, p in _documented_paths()}) > 40


@pytest.mark.parametrize("doc, path", _documented_paths(), ids=lambda v: v)
def test_documented_path_resolves(doc, path):
    try:
        _resolve(path)
    except (ImportError, AttributeError) as exc:
        pytest.fail(f"{doc} cites `{path}`, which does not resolve: {exc}")
