"""Run one workload of the liftmcg benchmark and print its metrics.

    python3 perfbench/run.py --workload sweep_g2_6 --seed 1 --seconds 32 --trace 0

Run it from the repository root: the library is imported from ./src, never
from an installed copy.  The run is one process with one thread.  It makes
``--seconds`` divided by the workload's nominal pass time passes over the
workload's operations (at least one), so the number of passes does not
depend on how fast the machine happens to be.  Each pass starts from a fresh
import of the library, so nothing the library caches survives from one pass
to the next, and each pass's set-up (import plus input generation) is timed.
An operation's time is its fastest over the passes.  Every
answer is checked against reference.json after its operation, outside the
timed region.  ``--trace 1`` adds one traced pass and reports the per-layer
metrics instead of the end-to-end ones.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record, with provenance and every
failure, goes to perfbench/results/.  The exit code is 1 when an answer is
wrong and 2 when the library cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

import oracle
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
LAYERS = ("arith_perm", "datasets", "genvec", "fpgroups", "analysis", "cli")
SETUP_SAMPLES = 5
TAIL_BEYOND = 10       # the tail percentile keeps this many samples above it


class OpTimeout(BaseException):
    """Raised by the interval timer; not an Exception, so that no handler in
    the library can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout


class LibraryMissing(Exception):
    pass


def fresh_import():
    """Import liftmcg from ./src, dropping any copy imported before."""
    for name in [m for m in sys.modules if m == "liftmcg" or m.startswith("liftmcg.")]:
        del sys.modules[name]
    try:
        lib = importlib.import_module("liftmcg")
        for layer in LAYERS:
            importlib.import_module(f"liftmcg.{layer}")
    except ImportError as exc:
        raise LibraryMissing(f"cannot import liftmcg from {SRC}: {exc}") from None
    if not Path(lib.__file__).resolve().is_relative_to(SRC.resolve()):
        raise LibraryMissing(f"liftmcg was imported from {lib.__file__}, not {SRC}")
    return lib


def setup(workload, ref, seed, recorder=None):
    """Import the library and generate the workload's inputs in seeded order."""
    start = perf_counter()
    lib = fresh_import()
    if recorder is not None:
        recorder.install()
    ops = workload.build(lib, ref)
    random.Random(seed).shuffle(ops)
    return perf_counter() - start, ops


def run_op(op, limit_s):
    """Call the operation under the interval timer; (result, error, seconds)."""
    result, error = None, None
    start = perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit_s)
            result = op.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        error = "timeout"
    except Exception as exc:  # a failed operation is recorded, not fatal
        error = type(exc).__name__
    return result, error, perf_counter() - start


def run_pass(ops, workload, recorder=None) -> dict:
    """One pass over the operations.  A failed operation is charged the
    workload's per-operation limit."""
    charged, failures, letters, wrong = {}, [], 0, 0
    for op in ops:
        if recorder is not None:
            recorder.op = op.label
        gc.collect()  # no garbage of earlier operations, so order does not matter
        result, error, elapsed = run_op(op, workload.limit_s)
        if error is None:
            if recorder is not None and op.verb.startswith("cli."):
                recorder.note_output(result[1])
            try:
                problem, n_letters = op.check(result)
            except Exception as exc:  # an unreadable answer is a wrong answer
                problem, n_letters = f"check raised {type(exc).__name__}: {exc}", 0
            letters += n_letters
            if problem is not None:
                error = f"wrong answer: {problem}"
                wrong += 1
        if error is not None:
            failures.append({"workload": workload.name, "verb": op.verb, "op": op.label,
                             "error": error, "elapsed_s": elapsed})
            elapsed = workload.limit_s
        charged[op.label] = elapsed
    return {"ops": len(ops), "op_s": charged, "failures": failures, "wrong": wrong,
            "out_letters": letters}


def op_stats(seconds: list[float]) -> dict:
    ms = sorted(s * 1000 for s in seconds)
    tail = max(0, len(ms) - TAIL_BEYOND - 1)
    return {
        "wall_s": sum(seconds),
        "op_ms_geomean": math.exp(statistics.fmean(math.log(max(x, 1e-6)) for x in ms)),
        "op_ms_p50": statistics.median(ms),
        "op_ms_tail": ms[tail],
        "tail_percentile": 100 * (tail + 1) / len(ms),
    }


def best_of_passes(passes: list[dict], limit_s: float) -> list[float]:
    """Per operation, its fastest time over the passes, or the limit if it
    failed in any pass."""
    failed = {f["op"] for p in passes for f in p["failures"]}
    return [limit_s if label in failed else min(p["op_s"][label] for p in passes)
            for label in passes[0]["op_s"]]


# ---------------------------------------------------------------------------
# provenance


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _tree_digest(root: Path, patterns: tuple[str, ...]) -> str:
    h = hashlib.sha256()
    for path in sorted(p for pat in patterns for p in root.rglob(pat)):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, workload, labels) -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _tree_digest(SRC / "liftmcg", ("*.py",)),
        "bench_sha256": _tree_digest(HERE, ("*.py", "reference.json")),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "op_limit_s": workload.limit_s,
        "ops_in_run_order": labels,
        "excluded": workloads.EXCLUDED.get(workload.name, {}),
    }


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args, ref) -> dict:
    """All passes of one run; returns the result record."""
    workload = workloads.WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    passes, setups = [], []
    for _ in range(max(1, int(args.seconds // workload.pass_s))):
        setup_s, ops = setup(workload, ref, args.seed)
        setups.append(setup_s)
        passes.append(run_pass(ops, workload))
        del ops
        gc.collect()
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup(workload, ref, args.seed)[0])
        gc.collect()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    best = op_stats(best_of_passes(passes, workload.limit_s))
    end_to_end = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (best["wall_s"], "s"),
        "op_ms_geomean": (best["op_ms_geomean"], "ms"),
        "op_ms_p50": (best["op_ms_p50"], "ms"),
        "out_letters": (passes[0]["out_letters"], "letters"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    # The tail swings by more than any bound BENCHMARK.json may set on this
    # kind of machine, so it is recorded and printed but not bounded.
    record = {"end_to_end": end_to_end, "op_ms_tail": best["op_ms_tail"],
              "tail_percentile": best["tail_percentile"], "setup_samples_s": setups}
    if args.trace:
        untraced_wall = statistics.median(sum(p["op_s"].values()) for p in passes)
        recorder = tracer.Recorder()
        _, ops = setup(workload, ref, args.seed, recorder)
        traced = run_pass(ops, workload, recorder)
        passes.append(traced)
        layers = recorder.per_layer()
        layers["trace.overhead_share"] = (
            sum(traced["op_s"].values()) / untraced_wall - 1, "ratio")
        record["per_layer"] = layers
        RESULTS.mkdir(exist_ok=True)
        recorder.dump(RESULTS / f"{args.workload}-seed{args.seed}.spans.json")
    record["provenance"] = provenance(args, workload, list(passes[0]["op_s"]))
    record["passes"] = [{k: v for k, v in p.items() if k != "failures"} for p in passes]
    record["failures"] = [f for p in passes for f in p["failures"]]
    record["attempted"] = sum(p["ops"] for p in passes)
    record["wrong"] = sum(p["wrong"] for p in passes)
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        ref = oracle.load_reference()
        record = measure(args, ref)
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = record["per_layer"] if args.trace else record["end_to_end"]
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for f in record["failures"]:
        print(f"failed: {f['verb']} {f['op']}: {f['error']} after {f['elapsed_s']:.3f}s",
              file=sys.stderr)
    n_ops = record["passes"][0]["ops"]
    print(f"{args.workload}: {len(record['passes'])} passes of {n_ops} ops; "
          f"op_ms_tail (p{record['tail_percentile']:.1f} of {n_ops} ops) = "
          f"{record['op_ms_tail']:.6g} ms; record in {out.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": record["wrong"] == 0,
        "attempted": record["attempted"],
        "failed": len(record["failures"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if record["wrong"] else 0


if __name__ == "__main__":
    sys.exit(main())
