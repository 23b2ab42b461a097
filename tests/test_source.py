import ast
from pathlib import Path

import liftmcg


def test_no_assert_statements_in_src():
    # checks that guard results must survive python -O, so they raise instead
    found = []
    for path in sorted(Path(liftmcg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found
