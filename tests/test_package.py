"""The package namespace and the README's Python examples."""
import pathlib
import re
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


def test_readme_python_blocks_run_as_their_comments_state():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    p, data = namespace["p"], namespace["data"]
    assert namespace["cyclic_moment"](p * p, data) == 21 / 32
    assert namespace["monotone_moment"](p * p, data) == 21 / 64
    assert namespace["evaluate_state"](namespace["big"], 2, "monotone") == 21 / 64
    assert namespace["big"].poly_matrix.shape == (6, 6)
    assert str(namespace["kept"]) == "a1 a1 + (b1)° a1 a1 (b1)°"
