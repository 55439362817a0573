"""The README's library quick start runs as written, and every public name
of lqmfg exists, once."""

import ast
import pathlib
import re
import warnings

import lqmfg

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    section = README.read_text(encoding="utf-8").split(
        "## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs():
    code = quick_start()
    imported = {alias.name for node in ast.walk(ast.parse(code))
                if isinstance(node, ast.ImportFrom) and node.module == "lqmfg"
                for alias in node.names}
    assert imported <= set(lqmfg.__all__), imported - set(lqmfg.__all__)
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        exec(compile(code, str(README), "exec"), namespace)
    assert namespace["best"] in {row[0] for row in namespace["study"].rows}


def test_every_public_name_exists_once():
    assert len(set(lqmfg.__all__)) == len(lqmfg.__all__)
    for name in lqmfg.__all__:
        assert hasattr(lqmfg, name), name
