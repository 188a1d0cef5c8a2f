"""The package exports exactly its library modules' ``__all__`` lists.

Each library module of ``src/polyprec`` (all but ``cli``, the command line)
declares its public names in ``__all__``, and the package re-exports them, so
a name is public when, and only when, one module lists it.
"""

import importlib
from collections import Counter

from test_public_surface import ROOT, exported_names

LIBRARY_MODULES = sorted(
    path.stem
    for path in (ROOT / "src" / "polyprec").glob("*.py")
    if path.stem not in ("__init__", "cli")
)


def declared_names() -> Counter:
    """How many library modules list each name in their ``__all__``."""
    return Counter(
        name
        for module in LIBRARY_MODULES
        for name in importlib.import_module(f"polyprec.{module}").__all__
    )


def test_each_name_is_declared_by_one_module():
    assert sorted(name for name, count in declared_names().items() if count > 1) == []


def test_exports_are_the_declared_names():
    assert sorted(exported_names() ^ set(declared_names())) == []
