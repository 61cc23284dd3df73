"""The public names, in ``tpnet.__all__`` and in README.md, resolve."""

import importlib
import re
from pathlib import Path

import tpnet

README = Path(__file__).resolve().parent.parent / "README.md"
DOTTED = re.compile(r"\btpnet(?:\.[A-Za-z_]\w*)+")


def _resolve(dotted: str):
    """Import the longest module prefix of ``dotted``, then walk the rest as
    attributes."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def test_readme_dotted_names_resolve():
    names = sorted(set(DOTTED.findall(README.read_text(encoding="utf-8"))))
    assert names, "README.md names no tpnet objects"
    missing = []
    for name in names:
        try:
            _resolve(name)
        except (ImportError, AttributeError):
            missing.append(name)
    assert missing == []


def test_all_names_resolve():
    assert [name for name in tpnet.__all__ if not hasattr(tpnet, name)] == []
