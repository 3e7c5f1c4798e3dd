"""The solvers' stopping rule has one home, read from the source with ``ast``.

Both solves a run makes, the ERM oracle and the offline trainer, are
``offline.projected_gradient``, and ``offline`` alone decides when each one
stops: ``ERM_TOL`` and ``ERM_MAX_ITERS`` for the oracle, ``GRAD_MAP_TOL`` for
the trainer. Neither public solver takes a tolerance or a cap, no other
module under ``src/co2learn/`` assigns one of the three constants, and only
``offline`` calls ``projected_gradient``, whose keywords set the rule.
"""

import ast
import inspect
from pathlib import Path

import pytest

from co2learn import offline

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "co2learn"
HOME = "offline.py"
CONSTANTS = {"ERM_TOL", "ERM_MAX_ITERS", "GRAD_MAP_TOL"}
STOPPING_PARAMETERS = {"tol", "max_iters", "grad_map_tol"}


def assigned_names(tree: ast.AST) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            names += [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
    return names


def calls(tree: ast.AST, name: str) -> int:
    return sum(isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                       getattr(node.func, "attr", None))
               for node in ast.walk(tree))


@pytest.mark.parametrize("solver", [offline.erm_oracle, offline.train_offline],
                         ids=lambda f: f.__name__)
def test_no_solver_takes_a_stopping_rule(solver):
    assert not STOPPING_PARAMETERS & set(inspect.signature(solver).parameters)


def test_only_offline_assigns_the_constants_and_calls_the_solver():
    modules = {path.name: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    assert HOME in modules
    found = [f"{name} assigns {constant}" for name, tree in modules.items() if name != HOME
             for constant in CONSTANTS & set(assigned_names(tree))]
    found += [f"{name} calls projected_gradient" for name, tree in modules.items()
              if name != HOME and calls(tree, "projected_gradient")]
    assert not found, "; ".join(found) + ": the stopping rule lives in offline.py"
    home = assigned_names(modules[HOME])
    assert all(home.count(constant) == 1 for constant in CONSTANTS)
    assert calls(modules[HOME], "projected_gradient") == 2  # erm_oracle and train_offline
