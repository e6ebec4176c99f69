"""Design guard: a family's description lives in families.py and
discrete.py.  The other layers ask it for a classical type
(families.classical) or a system, and never dispatch on a family's name."""

import ast
from pathlib import Path

import pytest

import orthopoly
from orthopoly import families as F

NAME_FREE = ("cli.py", "io.py", "kernels.py", "measures.py", "momentprob.py",
             "recurrence.py")


def family_name_uses(source: str) -> list[int]:
    """Lines that compare something to a family name, also as a member of a
    literal tuple, list or set, or that key a literal dict by one."""
    def named(node) -> bool:
        items = (node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set))
                 else [node])
        return any(isinstance(e, ast.Constant) and e.value in F.PARAMETERS
                   for e in items)

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            hit = any(named(e) for e in (node.left, *node.comparators))
        elif isinstance(node, ast.Dict):
            hit = any(k is not None and named(k) for k in node.keys)
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("module", NAME_FREE)
def test_layer_does_not_dispatch_on_family_names(module):
    path = Path(orthopoly.__file__).parent / module
    assert family_name_uses(path.read_text(encoding="utf-8")) == []


def test_guard_sees_comparisons_and_dict_keys():
    source = ('if spec.family == "laguerre": pass\n'
              'ok = f in ("krawtchouk", "x")\n'
              'which = {"hermite": 1}.get(f)\n'
              'fine = kind == F.LAGUERRE or f == "family"\n')
    assert family_name_uses(source) == [1, 2, 3]
