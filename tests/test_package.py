"""The package namespace: ``__all__`` and the public attributes agree."""
import types

import monotensor


def test_exports_match_public_attributes():
    exported = monotensor.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(monotensor, name)] == []
    public = {
        name for name, value in vars(monotensor).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(exported)) == []
