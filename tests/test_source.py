import ast
from pathlib import Path

import liftmcg


ENVIRONMENT = {"environ", "environb", "getenv"}


def _nodes():
    for path in sorted(Path(liftmcg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            yield path.name, node


def test_no_assert_statements_in_src():
    # checks that guard results must survive python -O, so they raise instead
    found = [f"{name}:{node.lineno}" for name, node in _nodes() if isinstance(node, ast.Assert)]
    assert not found, found


def test_no_module_reads_the_environment():
    # every knob is an argument or a CLI option, so none can be a silent no-op
    found = [f"{name}:{node.lineno}" for name, node in _nodes()
             if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT)
             or (isinstance(node, ast.ImportFrom) and node.module == "os"
                 and any(alias.name in ENVIRONMENT for alias in node.names))]
    assert not found, found
