"""Import-order guard for the ``repro`` package.

The subpackage ``__init__`` modules of ``repro.core``, ``repro.simulator``,
``repro.adversary`` and their siblings hold only docstrings, so importing one
submodule never drags a whole sibling package in midway through another's
initialisation.  ``repro.core.common_coin`` imports
``repro.simulator.messages``: were the simulator package to re-export its
scheduler, that import would initialise every adversary module while
``repro.core`` is half-built, and an adversary module importing from
``repro.core.agreement`` would break ``import repro``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _import_tree() -> list[tuple[int, str]]:
    """``(depth, module)`` per ``-X importtime`` line of ``import repro``.

    The lines come in completion order: a module's imports precede it, one
    indentation step deeper.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro"],
        env=env, capture_output=True, text=True, check=True,
    )
    tree = []
    for line in completed.stderr.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        name = line.split("|")[2]
        if name.strip() == "imported package":
            continue
        tree.append((len(name) - len(name.lstrip()), name.strip()))
    return tree


def _nested_under(tree: list[tuple[int, str]], module: str) -> list[str]:
    """The modules first imported while ``module`` was initialising."""
    index = next(i for i, (_, name) in enumerate(tree) if name == module)
    depth = tree[index][0]
    nested = []
    for child_depth, name in reversed(tree[:index]):
        if child_depth <= depth:
            break
        nested.append(name)
    return nested


def test_the_common_coin_initialises_no_adversary_module():
    nested = _nested_under(_import_tree(), "repro.core.common_coin")
    assert [name for name in nested if name.startswith("repro.adversary")] == []
