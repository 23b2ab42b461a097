import json
import subprocess
import sys
import time
from pathlib import Path

import jsonschema

from liftmcg import schemas
from liftmcg.cli import main


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
    assert payload["ok"]


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
    from liftmcg.datasets import parse_dataset, render_dataset

    for text in json.loads(out)["datasets"]:
        assert render_dataset(parse_dataset(text)) == text


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def _import_root() -> str:
    import liftmcg

    return str(Path(liftmcg.__file__).resolve().parent.parent)


def test_json_byte_stable_across_processes():
    cmd = [sys.executable, "-m", "liftmcg.cli", "analyze",
           "(6,0;(1,2),(1,2),(1,3),(2,3))", "--format", "json"]
    runs = [subprocess.run(cmd, capture_output=True, text=True,
                           env={"PYTHONHASHSEED": str(seed), "PATH": "/usr/bin:/bin",
                                "PYTHONPATH": _import_root()})
            for seed in (0, 1)]
    assert runs[0].returncode == 0 and runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout


def test_closed_stdout_ends_quietly():
    cmd = [sys.executable, "-m", "liftmcg.cli", "enumerate", "30"]
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
