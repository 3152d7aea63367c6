import importlib
import re
from pathlib import Path

import psdorder as po

RETIRED = {"spectral_criterion", "ando_candidate", "strength_dominates", "strength_bisection"}


def readme_api() -> list[str]:
    """The names listed after the colon of each ``- `psdorder.<module>`:`` item of the README's API list."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    items = re.findall(r"^- `psdorder\.\w+`:(.*?)(?=\n- |\n\n|\Z)", section, re.M | re.S)
    return [name for item in items for name in re.findall(r"`(\w+)`", item)]


def test_public_api():
    """Every name in `psdorder.__all__` resolves, the retired restatements are exported
    nowhere, and the README's API list names exactly `psdorder.__all__`."""
    assert all(hasattr(po, name) for name in po.__all__)
    assert len(set(po.__all__)) == len(po.__all__)
    for module in (po, importlib.import_module("psdorder.lattice"), importlib.import_module("psdorder.strength")):
        assert RETIRED.isdisjoint(vars(module)), module.__name__
        assert RETIRED.isdisjoint(module.__all__), module.__name__
    listed = readme_api()
    assert len(set(listed)) == len(listed)
    assert sorted(listed) == sorted(po.__all__)
