"""The ball rule's one home, read from the source with ``ast``.

``geometry.max_norm`` is the largest norm inside a ball, and ``LossSpec``
holds it, once, as ``D_max`` and ``R_max``. A module that kept a tolerance
of its own, or borrowed ``geometry``'s, could decide membership differently,
as four checks once did with four slacks. So no module under
``src/co2learn/`` but ``geometry.py`` defines, imports or reads a ball
tolerance, ``LossSpec`` builds both edges with ``max_norm``, and every domain
check compares against one of them. Below radius 1 the rule's absolute
slack shrinks with the radius, so it never admits a loss above 1 by more
than rounding.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from co2learn.geometry import Sample, max_norm
from co2learn.losses import LossSpec, loss

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "co2learn"
HOME = "geometry.py"
TOLERANCES = {"_INSIDE_RTOL", "_DOMAIN_ATOL"}
CHECKS = {("losses.py", "check_sample"): "D_max",
          ("losses.py", "_check_domain"): "R_max",
          ("pool.py", "set_state"): "R_max",
          ("offline.py", "train_offline"): "R_max"}


def tolerance_uses(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of every definition, import or read of a ball tolerance."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            continue
        found += [(name, node.lineno) for name in names if name in TOLERANCES]
    return found


def parse(module: str) -> ast.AST:
    return ast.parse((PACKAGE / module).read_text())


def definitions(tree: ast.AST) -> dict[str, ast.AST]:
    return {node.name: node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def reads(fn: ast.AST, attr: str) -> bool:
    return any(isinstance(node, ast.Attribute) and node.attr == attr for node in ast.walk(fn))


def calls(fn: ast.AST, name: str) -> int:
    return sum(isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
               for node in ast.walk(fn))


def test_only_geometry_holds_a_ball_tolerance():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {m.name for m in modules} >= {HOME} | {module for module, _ in CHECKS}
    found = [f"{m.name}:{line} uses {name}" for m in modules if m.name != HOME
             for name, line in tolerance_uses(ast.parse(m.read_text()))]
    assert not found, "; ".join(found) + ": use LossSpec's D_max and R_max instead"
    assert {name for name, _ in tolerance_uses(parse(HOME))} == {"_INSIDE_RTOL"}
    assert "max_norm" in definitions(parse(HOME))


def test_loss_spec_builds_both_edges_with_the_rule():
    post_init = definitions(definitions(parse("losses.py"))["LossSpec"])["__post_init__"]
    assert calls(post_init, "max_norm") == 2
    assert reads(post_init, "D") and reads(post_init, "R")


def test_every_domain_check_compares_against_an_edge():
    missing = []
    for (module, name), edge in CHECKS.items():
        defined = definitions(parse(module))
        if name not in defined or not reads(defined[name], edge):
            missing.append(f"{module}:{name} must compare against spec.{edge}")
    assert not missing, ", ".join(missing)


@pytest.mark.parametrize("R,D", [(1e-6, 1e6), (1e-9, 1e9)])
def test_the_slack_shrinks_with_a_small_radius(R, D):
    # an absolute 1e-9 past R = 1e-9 doubles the radius and lifts the loss
    # of -D R far above 1; below r = 1 the slack is 1e-9 r
    spec = LossSpec(D=D, R=R, dim=1)
    try:
        value = loss(np.array([R + 9e-10]), Sample(np.array([-D]), 1), spec)
    except ValueError:
        return
    assert value <= 1 + 1e-8


def test_the_rule_at_unit_radius_is_unchanged():
    assert max_norm(1.0) == (1.0 + 2e-12) + 1e-9
