"""The package's public names: ``__all__`` is exactly what it exports."""

import types

import dblab


def test_all_names_resolve_and_cover_the_public_imports():
    assert len(set(dblab.__all__)) == len(dblab.__all__)
    for name in dblab.__all__:
        assert hasattr(dblab, name), name
    public = {name for name, value in vars(dblab).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public <= set(dblab.__all__), sorted(public - set(dblab.__all__))
