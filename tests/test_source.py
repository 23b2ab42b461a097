import ast
import json
import subprocess
import sys
from pathlib import Path

import liftmcg


ENVIRONMENT = {"environ", "environb", "getenv"}


def _trees():
    for path in sorted(Path(liftmcg.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _nodes():
    for name, tree in _trees():
        for node in ast.walk(tree):
            yield name, node


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


# functions that no command reaches, each with the reason it stays in src/;
# adding one states that a change adds code that nothing runs
_SNF = "the Smith normal form behind abelianization"
_ORACLE = "the brute-force stabilizer oracle, which perfbench and the tests call"
NOT_REACHED = {
    "arith_perm.smith_normal_form": _SNF,
    "arith_perm._link_unit": _SNF,
    "arith_perm._read": _SNF,
    "arith_perm._root": _SNF,
    "arith_perm._diagonalize": _SNF,
    "fpgroups.abelianization": "public API; perfbench's abelianize_raw times it",
    "fpgroups.Presentation._abelianization": "abelianization's value, kept in the presentation",
    "fpgroups.reidemeister_schreier_full": "public API; perfbench's abelianize_raw calls it",
    "fpgroups._rs_memo": "reidemeister_schreier_full's memo",
    "fpgroups.evaluate_perm": "API the README documents",
    "fpgroups.Presentation.__str__": "str(p), which the README documents",
    "genvec.act": "API the README documents",
    "genvec.stabilizer_bruteforce": _ORACLE,
    "genvec._assert_subgroup": _ORACLE,
    "genvec._check_against_bruteforce": _ORACLE,
    "genvec._generates": _ORACLE,
    "datasets.hyperelliptic": "public API: a named family",
    "datasets.balanced_superelliptic": "public API: a named family",
    "datasets.doubled": "public API: a named family",
    "datasets.canonical_form": "public API: equivalence of data sets",
    "datasets.equivalence_witness": "public API: equivalence of data sets",
    "datasets.are_equivalent": "public API: equivalence of data sets",
}


def _defs():
    """(file name, first line, name) -> dotted name of each function defined
    in the package, nested ones too; the first line is a decorator's where
    there is one, as in the function's code object."""
    def walk(module, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                yield (module, first, child.name), prefix + child.name
                yield from walk(module, child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(module, child, f"{prefix}{child.name}.")
            else:
                yield from walk(module, child, prefix)

    for module, tree in _trees():
        yield from walk(module, tree, module.removesuffix(".py") + ".")


def unreached_functions(genera) -> tuple[list[str], list[str]]:
    """The functions that tests/reach_trace.py does not see called over the
    given genera and NOT_REACHED does not list, and the entries of
    NOT_REACHED that were called or name no function."""
    trace = Path(__file__).with_name("reach_trace.py")
    root = Path(liftmcg.__file__).parent.parent
    out = subprocess.run([sys.executable, str(trace), str(root), *map(str, genera)],
                         capture_output=True, text=True, check=True).stdout
    reached = {tuple(key) for key in json.loads(out)}
    defs = dict(_defs())
    missed = sorted(name for key, name in defs.items()
                    if key not in reached and name not in NOT_REACHED)
    stale = sorted(set(NOT_REACHED) - {name for key, name in defs.items() if key not in reached})
    return missed, stale


def test_every_function_is_reached():
    # every command over genus 2-4 and the refusals; CI runs genus 5-6
    assert unreached_functions((2, 3, 4)) == ([], [])
