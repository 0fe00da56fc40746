"""Import layering of the package.

The modules stack as numerics < channel < base < schemes < registry <
evaluate < cli: each may import only modules below it.  A fresh interpreter
imports one lower module; none of the modules above it may then be loaded.
No module names a module of its own layer or above in any import statement,
function-local ones included.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import alignsim

LAYERS = [
    ["numerics"],
    ["channel"],
    ["base"],
    ["output_feedback", "retro_csit_ic3", "retro_csit_x"],
    ["registry"],
    ["evaluate"],
    ["cli"],
]

SRC = str(Path(alignsim.__file__).resolve().parent.parent)


def _loaded_after_import(module: str) -> set[str]:
    code = (
        "import json, sys\n"
        f"import alignsim.{module}\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [env.get("PYTHONPATH")])])
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    return set(json.loads(out))


@pytest.mark.parametrize("level, module", [(0, "numerics"), (1, "channel"), (2, "base")])
def test_lower_layers_load_nothing_above_them(level, module):
    above = {f"alignsim.{name}" for layer in LAYERS[level + 1 :] for name in layer}
    loaded = _loaded_after_import(module)
    assert f"alignsim.{module}" in loaded
    assert sorted(loaded & above) == []


def test_no_import_statement_reaches_up():
    level_of = {name: level for level, layer in enumerate(LAYERS) for name in layer}
    package = Path(alignsim.__file__).resolve().parent
    for name, level in level_of.items():
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                target = node.module.split(".")[0]
                assert level_of[target] < level, f"{name} imports {target}"
            elif isinstance(node, ast.ImportFrom):
                assert node.module.split(".")[0] != "alignsim", name
            elif isinstance(node, ast.Import):
                assert all(a.name.split(".")[0] != "alignsim" for a in node.names), name
