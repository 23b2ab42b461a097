import hashlib
import json
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import jsonschema
from hypothesis import given, settings
from hypothesis import strategies as st

from liftmcg import analysis, fpgroups, schemas
from liftmcg.arith_perm import CapacityError
from liftmcg.cli import main
from liftmcg.datasets import (
    DataSet,
    DataSetParseError,
    enumerate_spherical,
    parse_dataset,
    render_dataset,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", "(7,0;(1,7),(2,7),(4,7))")
    assert code == 0
    assert "genus 3" in out


def test_validate_failure_exit_2(capsys):
    code, out, _ = run(capsys, "validate", "(4,0;(1,2),(1,4))")
    assert code == 2
    for label in ("cond_ii", "cond_iv", "rh_non_integer"):
        assert label in out


def test_validate_json(capsys):
    code, out, _ = run(capsys, "validate", "--format", "json", "(2,0;(1,2)_6)")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schemas.VALIDATION_SCHEMA)
    assert payload["genus"] == 2 and payload["valid"]


def test_parse_error_exit_1(capsys):
    code, out, err = run(capsys, "validate", "(4,0;(1,2),(1,4)")
    assert code == 1
    assert "line 1" in err and "column" in err
    # parsed, but refused by dataset(): reported at the degree's column
    code, out, err = run(capsys, "validate", "(1,0;(1,2))")
    assert code == 1 and out == ""
    assert "degree must be >= 2, got 1 (line 1, column 2)" in err


def test_overlong_integer_is_a_parse_error(capsys):
    code, out, err = run(capsys, "validate", "(" + "1" * 5000 + ",0;(1,2),(1,2))")
    assert code == 1 and out == ""
    assert "too long" in err and "(line 1, column 2)" in err


def test_non_ascii_digits_are_a_parse_error(capsys):
    code, out, err = run(capsys, "validate", "(2,0;(1,2)_\u00b2)")  # superscript two
    assert code == 1 and out == ""
    assert "expected an integer" in err and "(line 1, column 12)" in err
    two = "\u0662"  # Arabic-Indic digit two
    code, out, err = run(capsys, "validate", f"({two},0;" + ",".join([f"(1,{two})"] * 6) + ")")
    assert code == 1 and out == ""
    assert "expected an integer" in err and "(line 1, column 2)" in err


def test_usage_error_exit_1(capsys):
    code, _, err = run(capsys, "enumerate", "one")
    assert code == 1
    code, _, err = run(capsys, "enumerate", "2", "--jobs", "4")  # removed flag
    assert code == 1 and "--jobs" in err
    code, _, err = run(capsys, "enumerate", "99")
    assert code == 1
    # int() would read the first four as a genus: 2, 2, 2 and 20
    for genus in ("\u0662", " 2", "+2", "2_0", "1" * 5000):
        code, out, err = run(capsys, "enumerate", genus)
        assert code == 1 and out == "", genus
        assert err.startswith("error: ") and len(err.splitlines()) == 1, genus
    assert "5000 digits is too long" in err and len(err) < 100


def test_enumerate_text_and_json(capsys):
    code, out, _ = run(capsys, "enumerate", "2")
    assert code == 0
    assert "8 classes of genus 2" in out
    assert "(2,0;(1,2)_6)" in out

    code, out, _ = run(capsys, "enumerate", "2", "--format", "json")
    payload = json.loads(out)
    jsonschema.validate(payload, schemas.ENUMERATE_SCHEMA)
    assert payload["count"] == 8


def test_analyze_json_schema_and_byte_stability(capsys):
    args = ("analyze", "(6,0;(1,2),(1,2),(1,3),(2,3))", "--format", "json")
    code, first, _ = run(capsys, *args)
    assert code == 0
    jsonschema.validate(json.loads(first), schemas.ANALYSIS_SCHEMA)
    code, second, _ = run(capsys, *args)
    assert first == second


def test_analyze_capacity_exit_3(capsys):
    # genus 40, |H1| = 10: a coset table of index 9!, nine columns wide
    code, out, err = run(capsys, "analyze", "(11,0;" + ",".join(
        f"({d},11)" for d in range(1, 11)) + ")")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "exceeds the cap" in err
    assert "Traceback" not in err


def test_analyze_rewrite_volume_exit_3(capsys):
    # genus 40, k = 42: passes the coset-table cap at index 11,480, but
    # Reidemeister-Schreier would rewrite 59.3M relator letters
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", "(3,0;(1,3)_39,(2,3)_3)")
    assert time.perf_counter() - start < 2.0
    assert code == 3 and out == ""
    assert err.startswith("error: rewriting 5164 relator letters") and err.count("\n") == 1


def test_json_is_one_line_per_output(capsys):
    calls = [("validate", "(2,0;(1,2)_6)"), ("enumerate", "2"),
             ("analyze", "(6,0;(1,2),(1,2),(1,3),(2,3))"),
             ("present", "(6,0;(1,2),(1,2),(1,3),(2,3))"),
             ("classify", "(7,0;(1,7),(2,7),(4,7))"), ("table1",), ("verify",)]
    for call in calls:
        code, out, err = run(capsys, *call, "--format", "json")
        assert code == 0 and err == "", call
        assert out.count("\n") == 1 and out.endswith("}\n"), call
        json.loads(out)


def test_analyze_hyperelliptic_genus_6(capsys):
    code, out, err = run(capsys, "analyze", "(2,0;(1,2)_14)")
    assert code == 0 and err == ""
    assert "LMod = Mod(S_{0,14})" in out


def test_branch_point_bound(capsys):
    code, out, _ = run(capsys, "validate", "(2,0;(1,2)_62)")
    assert code == 0 and "genus 30" in out
    for verb in ("validate", "analyze"):
        code, out, err = run(capsys, verb, "(2,0;(1,2)_63)")
        assert code == 3 and out == ""
        assert err.startswith("error: 63 branch points exceed the cap of 62")


def test_modulus_bound(capsys):
    big = "(100000007,0;(1,100000007),(1,100000007),(100000005,100000007))"
    code, out, _ = run(capsys, "validate", big)
    assert code == 0 and "genus 50000003" in out
    for verb in ("analyze", "classify"):
        start = time.perf_counter()
        code, out, err = run(capsys, verb, big)
        assert time.perf_counter() - start < 2.0
        assert code == 3 and out == ""
        assert err == "error: modulus 100000007 exceeds the cap of 122\n"
    code, out, _ = run(capsys, "classify", "(122,0;(1,2),(1,61),(59,122))")  # genus 30
    assert code == 0 and out.startswith("case (iii)")


def test_analyze_text_lines(capsys):
    code, out, _ = run(capsys, "analyze", "(2,0;(1,2)_6)")
    assert code == 0
    assert "LMod = Mod(S_{0,6})" in out
    code, out, _ = run(capsys, "analyze", "(6,0;(1,2),(1,2),(1,3),(2,3))")
    assert "[Mod:LMod] = 6" in out


def test_analyze_rejects_scope(capsys):
    code, out, _ = run(capsys, "analyze", "(6,0;(1,2),(1,3),(1,6))")
    assert code == 2 and "genus 1" in out
    code, out, _ = run(capsys, "analyze", "(2,1;(1,2),(1,2))")
    assert code == 2 and "spherical" in out


def test_present_text_and_json(capsys):
    code, out, _ = run(capsys, "present", "(6,0;(1,2),(1,2),(1,3),(2,3))")
    assert code == 0
    assert "N(F)" in out and "C(F)" in out and "F^6" in out

    code, out, _ = run(capsys, "present", "--format", "json",
                       "(6,0;(1,2),(1,2),(1,3),(2,3))")
    payload = json.loads(out)
    jsonschema.validate(payload, schemas.PRESENT_SCHEMA)
    assert payload["normalizer"]["provenance"] == "built_in"


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "(8,0;(1,4),(1,8),(5,8))")
    assert code == 0
    assert "Z8 x|_5 Z2" in out
    code, out, _ = run(capsys, "classify", "(2,0;(1,2)_6)")
    assert code == 2
    assert "3 branch points" in out
    # genus is refused before k != 3
    code, out, _ = run(capsys, "classify", "(2,0;(1,2)_4)")
    assert (code, out) == (2, "genus 1 is outside the genus >= 2 scope\n")


def test_table1(capsys):
    code, out, _ = run(capsys, "table1")
    assert code == 0
    assert out.count("\n") >= 10
    assert "Z7 x|_2 Z3" in out and "Z12 x|_5 Z2" in out

    code, out, _ = run(capsys, "table1", "--format", "json")
    payload = json.loads(out)
    jsonschema.validate(payload, schemas.TABLE_SCHEMA)
    assert [r["normalizer"]["text"] for r in payload["rows"]] == [
        "Z7 x|_2 Z3", "Z7 x Z2", "Z8 x|_5 Z2", "Z8 x Z2",
        "Z9", "Z12 x|_5 Z2", "Z12", "Z14"]


def test_verify(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "overall: PASS" in out
    code, out, _ = run(capsys, "verify", "--format", "json")
    payload = json.loads(out)
    jsonschema.validate(payload, schemas.VERIFY_SCHEMA)
    assert payload["ok"] and len(payload["checks"]) == 16
    assert "alternate_readings" not in payload


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "table1", "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    jsonschema.validate(payload, schemas.TABLE_SCHEMA)


def test_out_flag_unwritable_path_exit_1(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "validate", "(2,0;(1,2)_6)", "--out", str(target))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not target.exists()


def test_roundtrip_enumerated_through_cli(capsys):
    code, out, _ = run(capsys, "enumerate", "3", "--format", "json")
    from liftmcg.datasets import parse_dataset

    for text in json.loads(out)["datasets"]:
        assert render_dataset(parse_dataset(text)) == text


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def _import_root() -> str:
    import liftmcg

    return str(Path(liftmcg.__file__).resolve().parent.parent)


def test_json_byte_stable_across_processes():
    # -B: the bare env drops PYTHONDONTWRITEBYTECODE, and the run must not
    # leave bytecode in the source tree
    cmd = [sys.executable, "-B", "-m", "liftmcg.cli", "analyze",
           "(6,0;(1,2),(1,2),(1,3),(2,3))", "--format", "json"]
    runs = [subprocess.run(cmd, capture_output=True, text=True,
                           env={"PYTHONHASHSEED": str(seed), "PATH": "/usr/bin:/bin",
                                "PYTHONPATH": _import_root()})
            for seed in (0, 1)]
    assert runs[0].returncode == 0 and runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout


def test_closed_stdout_ends_quietly():
    cmd = [sys.executable, "-B", "-m", "liftmcg.cli", "enumerate", "30"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": _import_root()})
    proc.stdout.close()  # the reader is gone before the first write
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


def test_classify_json(capsys):
    code, out, err = run(capsys, "classify", "--format", "json", "(7,0;(1,7),(2,7),(4,7))")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["dataset"] == "(7,0;(1,7),(2,7),(4,7))"
    assert payload["case"] == "i" and payload["twist"] == 2 and payload["genus"] == 3
    assert payload["normalizer"]["text"] == "Z7 x|_2 Z3"
    assert payload["centralizer"]["text"] == "Z7"
    assert payload["lmod"]["text"] == "Z3"


def test_classify_verb_agrees_with_analyze_genus_2_to_8(capsys):
    # the verb and analyze each build H1 from the vector, on separate paths
    three_point = [ds for genus in range(2, 9) for ds in enumerate_spherical(genus)
                   if ds.k == 3]
    assert len(three_point) == 61
    cases = set()
    for ds in three_point:
        text = render_dataset(ds)
        analysis._report_memo.cache_clear()
        code, out, err = run(capsys, "classify", "--format", "json", text)
        assert (code, err) == (0, "") and analysis._report_memo.cache_info().misses == 0
        expected = analysis.classification_json(analysis.analyze(ds).classification)
        assert json.loads(out) == {"dataset": text, **expected}, text
        cases.add(expected["case"])
    assert cases == {"i", "ii_a", "ii_b", "iii"}


def test_analyze_text_irreducible_and_pure_centralizer(capsys):
    code, out, _ = run(capsys, "analyze", "(7,0;(1,7),(2,7),(4,7))")
    assert code == 0
    lines = out.splitlines()
    assert "CLMod = PMod(S_{0,3})" in lines
    assert "CLMod presentation (pmod_sphere): <1>" in lines
    assert "Irreducible case (i): N(F) = Z7 x|_2 Z3, C(F) = Z7" in lines
    assert not any(line.startswith("LMod = Mod") for line in lines)


SCOPE_REASONS = (
    ("(4,0;(1,2),(1,4))", "invalid: cond_ii, cond_iv, rh_non_integer"),
    ("(2,1;(1,2),(1,2))", "not spherical (g0 != 0)"),
    ("(6,0;(1,2),(1,3),(1,6))", "genus 1 is outside the genus >= 2 scope"),
    ("(2,0;(1,2)_4)", "genus 1 is outside the genus >= 2 scope"),
)


def test_scope_refusals_exit_2_with_the_reason_on_stdout(tmp_path, capsys):
    for verb in ("analyze", "present", "classify"):
        for text, reason in SCOPE_REASONS:
            for fmt in ("text", "json"):
                code, out, err = run(capsys, verb, "--format", fmt, text)
                assert (code, out, err) == (2, reason + "\n", ""), (verb, text, fmt)
    target = tmp_path / "reason.txt"
    code, out, err = run(capsys, "present", "(2,1;(1,2),(1,2))", "--out", str(target))
    assert (code, out, err) == (2, "", "")
    assert target.read_text() == "not spherical (g0 != 0)\n"


def test_consecutive_calls_share_no_state(tmp_path, capsys):
    seven = "(7,0;(1,7),(2,7),(4,7))"
    text = (0, "valid, genus 3\n", "")
    assert run(capsys, "validate", "--bogus", seven)[0] == 1
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys, "validate", seven) == text
    code, out, _ = run(capsys, "validate", "--format", "json", seven)
    assert code == 0 and json.loads(out)["genus"] == 3
    assert run(capsys, "validate", seven) == text
    target = tmp_path / "v.txt"
    assert run(capsys, "validate", "--out", str(target), seven) == (0, "", "")
    assert run(capsys, "validate", seven) == text


# the hyperelliptic (genus 2-5), balanced-superelliptic, glued-rotation and
# doubled members that the benchmark's command-line mix analyzes and presents
FAMILY_MEMBERS = (
    "(2,0;(1,2)_6)", "(2,0;(1,2)_8)", "(2,0;(1,2)_10)", "(2,0;(1,2)_12)",
    "(3,0;(1,3)_2,(2,3)_2)", "(3,0;(1,3)_3,(2,3)_3)", "(5,0;(1,5)_2,(4,5)_2)",
    "(6,0;(1,2)_2,(1,3),(2,3))", "(4,0;(1,2)_2,(1,4),(3,4))",
    "(10,0;(1,2)_2,(1,5),(4,5))", "(8,0;(1,2)_2,(1,8),(7,8))",
    "(14,0;(1,2)_2,(1,7),(6,7))", "(12,0;(1,2)_2,(1,12),(11,12))",
    "(18,0;(1,2)_2,(1,9),(8,9))", "(16,0;(1,2)_2,(1,16),(15,16))",
    "(6,0;(1,3),(2,3),(1,6),(5,6))", "(8,0;(1,4),(3,4),(3,8),(5,8))",
    "(10,0;(1,5),(4,5),(3,10),(7,10))",
)


def test_analyze_and_present_print_alike_whichever_verb_ran_first(capsys):
    three_point = [render_dataset(ds) for genus in range(2, 6)
                   for ds in enumerate_spherical(genus) if ds.k == 3]
    assert len(three_point) == 26
    for text in three_point + list(FAMILY_MEMBERS):
        for fmt in ("text", "json"):
            cold, after_other = {}, {}
            for verb, other in (("analyze", "present"), ("present", "analyze")):
                analysis._report_memo.cache_clear()
                fpgroups.preimage_presentation.cache_clear()
                cold[verb] = run(capsys, verb, "--format", fmt, text)
                after_other[other] = run(capsys, other, "--format", fmt, text)
                assert analysis._report_memo.cache_info()[:2] == (1, 1)  # (hits, misses)
            assert cold["analyze"][0] == cold["present"][0] == 0, (text, fmt)
            assert after_other == cold, (text, fmt)


# sha256 over (argv, exit code, stdout, stderr) of each call below, in order:
# validate, analyze and classify on every spherical class of genus 2-5, then
# table1, verify and enumerate 7, then three refusals (a parse error, an
# out-of-scope class, the modulus cap), each in both formats; `present` is
# pinned by test_present_pinned
CLI_OUTPUTS_SHA256 = (
    "a1f8085cf9d187bacf85d9670a6b99e3b6b08f3aecde9066c802f728117e7698")
REFUSALS = (
    ("validate", "(4,0;(1,2),(1,4)"),
    ("analyze", "(2,1;(1,2),(1,2))"),
    ("analyze", "(100000007,0;(1,100000007),(1,100000007),(100000005,100000007))"),
)


def test_cli_outputs_pinned_genus_2_to_5(capsys):
    classes = [render_dataset(ds) for genus in range(2, 6) for ds in enumerate_spherical(genus)]
    calls = ([(verb, text) for text in classes for verb in ("validate", "analyze", "classify")]
             + [("table1",), ("verify",), ("enumerate", "7")] + list(REFUSALS))
    digest = hashlib.sha256()
    for call in calls:
        for fmt in ("text", "json"):
            argv = [*call, "--format", fmt]
            code = main(argv)
            captured = capsys.readouterr()
            digest.update(repr((argv, code, captured.out, captured.err)).encode())
    assert len(classes) == 64
    assert digest.hexdigest() == CLI_OUTPUTS_SHA256


# the text grammar's characters, other scripts' digits and a stray letter
MUTATION_ALPHABET = "()0123456789,;_-+ \t\n\u0662\u00b2x"
GENUS_2_TO_4 = [render_dataset(ds) for genus in range(2, 5) for ds in enumerate_spherical(genus)]


def _mutate(text: str, edits) -> str:
    for kind, at, char in edits:
        if kind == "insert":
            at %= len(text) + 1
            text = text[:at] + char + text[at:]
        elif text:
            at %= len(text)
            text = text[:at] + (char if kind == "substitute" else "") + text[at + 1:]
    return text


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.sampled_from(GENUS_2_TO_4),
       st.lists(st.tuples(st.sampled_from(("substitute", "insert", "delete")),
                          st.integers(0, 200), st.sampled_from(MUTATION_ALPHABET)),
                min_size=1, max_size=4))
def test_mutated_data_sets_are_parsed_or_refused_cleanly(text, edits):
    text = _mutate(text, edits)
    try:
        assert isinstance(parse_dataset(text), DataSet)
    except (DataSetParseError, CapacityError):
        pass
    for verb in ("validate", "classify"):
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([verb, text])
        err = err.getvalue()
        assert code in (0, 1, 2, 3), (verb, text)
        assert "Traceback" not in err, (verb, text)
        assert sum(line.startswith("error:") for line in err.splitlines()) <= 1, (verb, text)
