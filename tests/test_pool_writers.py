"""The writers of ``ExpertPool``'s state, read from the source with ``ast``.

``set_state`` sets the whole state, checked; ``process_labeled`` steps it
in place, because it is the hot path. A third method that assigns one of
the private state attributes would skip ``set_state``'s checks, so every
such assignment must sit in one of these two.
"""

import ast
from pathlib import Path

POOL = Path(__file__).resolve().parents[1] / "src" / "co2learn" / "pool.py"
STATE = {"_experts", "_alpha", "_nu", "_t", "_G", "_w"}
WRITERS = ("set_state", "process_labeled")


def written(target: ast.expr):
    """The state attributes an assignment target writes: ``self.<name>``,
    or an item or attribute of it."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from written(elt)
    elif isinstance(target, ast.Starred):
        yield from written(target.value)
    elif isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name) \
            and target.value.id == "self":
        if target.attr in STATE:
            yield target.attr
    elif isinstance(target, (ast.Attribute, ast.Subscript)):
        yield from written(target.value)


def state_writes() -> list[tuple[str, str, int]]:
    """(innermost enclosing function, attribute, line) of every assignment,
    and every ``setattr`` by name, of a state attribute in pool.py."""
    tree = ast.parse(POOL.read_text())
    owner = {}
    for fn in ast.walk(tree):  # breadth first, so an inner function wins
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for node in ast.walk(fn):
                owner[node] = getattr(fn, "name", "<lambda>")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            attrs = [a for target in node.targets for a in written(target)]
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            attrs = list(written(node.target))
        elif isinstance(node, ast.Call) and (getattr(node.func, "id", None) == "setattr"
                                             or getattr(node.func, "attr", None) == "__setattr__"):
            attrs = [a.value for a in node.args if isinstance(a, ast.Constant) and a.value in STATE]
        else:
            continue
        found += [(owner.get(node, "<module>"), attr, node.lineno) for attr in attrs]
    return found


def test_only_set_state_and_process_labeled_write_the_state():
    others = [f"pool.py:{line} writes self.{attr} in {fn}"
              for fn, attr, line in state_writes() if fn not in WRITERS]
    assert not others, "; ".join(others) + ": commit through set_state instead"


def test_set_state_writes_all_of_it_and_a_step_its_own_part():
    by_writer = {fn: set() for fn in WRITERS}
    for fn, attr, _ in state_writes():
        by_writer.setdefault(fn, set()).add(attr)
    assert by_writer["set_state"] == STATE
    # the online row is written in place by ogd_update, not assigned
    assert by_writer["process_labeled"] == {"_alpha", "_t", "_w"}
