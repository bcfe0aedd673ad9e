"""End-to-end benchmark of the cayleytones CLI.

    python3 perfbench/run.py --workload search-extend --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. It generates the workload's inputs from
the seed, times a fresh-interpreter set-up several times, then runs one
closed-loop client (worker.py, one op at a time) that calls
cayleytones.cli.main in-process. The client makes one whole pass over the
ops in a fresh process; passes are started until the time is up, and the
throughput is the work of a pass over the median pass time. The host's speed
drifts, so the gated times are rescaled by a reference loop timed in the same
processes (see end_to_end). Every output is checked. The last line of stdout
is one JSON object with the end-to-end metrics (--trace 0) or, with
--trace 1, the per-layer metrics of a traced replay and the tracing
overhead. Details of each run go to perfbench/_out/.

Workloads:
  search-extend   extend on the even systems n = 10..30, refine on n <= 20
  search-queries  thousands of small CLI calls on every system with n <= 40
  render          a seeded plan of 400 s of audio
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
SETUP_RUNS = 4  # before and again after the client, so two spells of the host are sampled
# Passes made by each side, untraced and traced, of a traced run; the sides alternate.
TRACE_PASSES = 2
WORKER_TIMEOUT_S = 170
# The reference loop's time (worker.reference) that norm_work_per_s assumes:
# only a scale, close to the loop's time on a quiet x86-64 core.
REF_NOMINAL_S = 0.005

SETUP_PROBE = """
import contextlib, io, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cayleytones.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cayleytones.cli.main(["--help"])
elapsed = time.perf_counter() - start
assert code == 0, code
sys.path.insert(0, sys.argv[2])
from worker import reference
print(elapsed, sorted(reference() for _ in range(5))[2])
"""

PER_LAYER_TIMES = (
    "cli.main",
    "counterpoint.to_json",
    "counterpoint.extend",
    "counterpoint.verify",
    "counterpoint.weak",
    "counterpoint.strong",
    "counterpoint.maximal",
    "counterpoint.refine",
    "counterpoint.other",
    "cayley.is_isometry",
    "cayley.is_generating",
    "cayley.distance",
    "music.system",
    "music.theory",
    "modular.units",
    "modular.other",
    "audio.parse",
    "audio.oscillator",
    "audio.envelope",
    "audio.mix",
    "audio.assemble",
    "audio.quantize",
    "audio.write",
)
PER_LAYER_CALLS = (
    "cli.main",
    "counterpoint.verify",
    "counterpoint.weak",
    "cayley.is_isometry",
    "cayley.is_generating",
    "cayley.distance",
    "modular.units",
)
PER_LAYER_COUNTS = (
    "counterpoint.subsets_accepted",
    "counterpoint.partitions",
    "counterpoint.maps_examined",
    "counterpoint.involutive_isometries",
    "counterpoint.witnesses",
    "audio.events",
    "audio.voices",
    "audio.samples",
)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CAYLEYTONES_SEED_SORT"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(argv: list[str], cwd: Path) -> str:
    proc = subprocess.run(
        [sys.executable, "-E", *argv],
        cwd=cwd,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def measure_setup() -> list[tuple[float, float]]:
    """Fresh-interpreter set-up times, each with the reference loop's time
    in the same interpreter."""
    probes = []
    for _ in range(SETUP_RUNS):
        elapsed, ref = run_child(["-c", SETUP_PROBE, str(SRC), str(HERE)], ROOT).split()
        probes.append((float(elapsed), float(ref)))
    return probes


def run_pass(work: Path, number: int, trace: bool = False):
    """One pass of the client over every op, in a fresh process; return its
    call records, each tagged with the pass number, and its summary."""
    results = work / f"pass{number}.jsonl"
    argv = [str(HERE / "worker.py"), "--src", str(SRC), "--ops", str(work / "ops.json"), "--results", str(results)]
    if trace:
        argv += ["--spans", str(work / f"pass{number}-spans.csv.gz"), "--layers", str(work / f"pass{number}-layers.json")]
    run_child(argv, work)
    calls = []
    with open(results, encoding="utf-8") as handle:
        for line in handle:
            calls.append(json.loads(line))
    summary = calls.pop()
    if not summary.get("done") or summary["calls"] != len(calls):
        raise RuntimeError(f"worker results {results} are incomplete")
    for call in calls:
        call["pass"] = number
    return calls, summary


def run_passes(work: Path, seconds: float):
    """Untraced passes, started until `seconds` have passed (at least one)."""
    calls, summaries = [], []
    started = time.perf_counter()
    while not summaries or time.perf_counter() - started < seconds:
        pass_calls, summary = run_pass(work, len(summaries))
        calls += pass_calls
        summaries.append(summary)
    return calls, summaries


class Checker:
    """Checks calls against their ops; one verdict per distinct (op, stdout)."""

    def __init__(self, workload: str, ops: list[dict], files: dict, seed: int, work: Path):
        self.workload, self.ops, self.files, self.work = workload, ops, files, work
        self.rng = random.Random(f"check:{workload}:{seed}")
        sys.path.insert(0, str(SRC))
        import numpy
        from cayleytones import cayley, counterpoint, modular

        self.numpy = numpy
        self.lib = checks.LibraryOracle((counterpoint, cayley, modular))
        self.strong_sample = set(self.rng.sample(range(len(ops)), min(40, len(ops))))
        self.stdout: dict = {}
        self.verdicts: dict = {}
        self.partitions: dict = {}  # (p, q) -> K lists reported by extend
        self.file_hashes: dict = {}  # output file -> hash written by the first call

    def _content(self, index: int, call: dict) -> str | None:
        op = self.ops[index]
        kind, stdout = op["kind"], self.stdout[(index, call["sha"])]
        if kind == "render":
            plan = json.loads(self.files[workloads.PLAN_FILE])
            wav = self.work / workloads.WAV_FILE
            return checks.check_render(stdout, plan) or checks.check_wav(wav, plan, self.numpy)
        if kind in ("distance", "validate", "circle", "scale", "chords"):
            return checks.check_music(op, stdout)
        report = json.loads(stdout)
        if kind == "extend":
            error = checks.check_extend(op, report, self.rng, self.lib)
            if error is None:
                self.partitions[(op["p"], op["q"])] = [r["K"] for r in report["partitions"]]
            return error
        if kind == "strong":
            return checks.check_strong(op, report, index in self.strong_sample, self.lib)
        if kind == "weak":
            return checks.check_weak(op, report, self.lib)
        if kind == "maximal":
            return checks.check_maximal(op, report, self.rng, self.lib)
        raise ValueError(f"no check for {kind}")

    def _verdict(self, call: dict) -> str | None:
        op = self.ops[call["op"]]
        kind, code, stderr = op["kind"], call["code"], call["stderr"]
        if call["exc"]:
            return f"raised out of main: {call['exc']}"
        if code not in (0, 2):
            return f"exit {code}"
        if kind == "malformed":
            if code != 2 or call["bytes_out"] or not checks.one_line_error(stderr):
                return f"malformed argv gave exit {code} without a one-line error"
            return None
        if code == 2:
            if not checks.one_line_error(stderr):
                return "exit 2 without a one-line error"
            documented = checks.DOCUMENTED_EXIT_2.get(kind)
            if kind == "maximal" and documented in stderr and op["map"] is None:
                return None
            if kind == "refine" and stderr.startswith(documented):
                return self._refine(call)
            return "unexpected exit 2"
        if kind == "maximal" and op["map"] is None:
            return "exit 0 although the system has no weak witness"
        if kind == "refine":
            return self._refine(call)
        return self._content(call["op"], call)

    def _refine(self, call: dict) -> str | None:
        op = self.ops[call["op"]]
        partitions = self.partitions.get((op["p"], op["q"]))
        if partitions is None:
            return "no checked extend output on this system to refine"
        stdout = self.stdout.get((call["op"], call["sha"]), "")
        return checks.check_refine(op, call["code"], stdout, call["stderr"], partitions)

    def failures(self, calls: list[dict]) -> list[dict]:
        for call in calls:
            if "stdout" in call:
                self.stdout[(call["op"], call["sha"])] = call.pop("stdout")
        failed = []
        # Refine is checked against the extend output, so extend goes first.
        for call in sorted(calls, key=lambda c: self.ops[c["op"]]["kind"] == "refine"):
            key = (call["op"], call["sha"], call["code"], call["exc"], call["stderr"])
            if key not in self.verdicts:
                try:
                    self.verdicts[key] = self._verdict(call)
                except Exception as error:  # a malformed output fails its op
                    self.verdicts[key] = f"check raised {type(error).__name__}: {error}"
            verdict = self.verdicts[key]
            # Every call, traced or not, must write the same bytes for the same input.
            for name, digest in call.get("files", {}).items():
                if self.file_hashes.setdefault(name, digest) != digest and verdict is None:
                    verdict = f"{name} differs from the bytes the first call wrote"
            if verdict:
                lines = call["stderr"].splitlines()
                failed.append(
                    {
                        "pass": call["pass"],
                        "op": call["op"],
                        "argv": self.ops[call["op"]]["argv"],
                        "reason": verdict,
                        "stderr": lines[0] if lines else "",
                    }
                )
        return failed


def input_self_check(workload: str, seed: int) -> list[str]:
    """One seed gives byte-identical inputs; another seed different inputs of the same size."""
    errors = []
    a, b, c = (workloads.generate(workload, s) for s in (seed, seed, seed + 1))
    if workloads.digest(*a) != workloads.digest(*b):
        errors.append("the same seed gave different inputs")
    if workloads.digest(*a) == workloads.digest(*c):
        errors.append("two seeds gave identical inputs")
    if workloads.sizes(workload, *a) != workloads.sizes(workload, *c):
        errors.append("two seeds gave inputs of different sizes")
    return errors


def environment() -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def end_to_end(workload, ops, files, calls, summaries, checker, setup) -> tuple[dict, dict]:
    """Throughput is a pass's work over the median pass time: every pass is
    the same ops, cold in a fresh process, timed as the sum of its calls.
    The gated times are rescaled to a host on which the worker's reference
    loop takes REF_NOMINAL_S: each pass time by the median reference time
    of its pass, each set-up probe by the reference time in its interpreter."""
    pass_s = checks.median([s["wall_s"] for s in summaries])
    pass_refs = [checks.median(s["ref_s"]) for s in summaries]
    norm_pass_s = checks.median([s["wall_s"] * REF_NOMINAL_S / ref for s, ref in zip(summaries, pass_refs)])
    if workload == "search-extend":
        # A refine op searches the same partitions as extend on its system.
        work = sum(len(checker.partitions.get((op["p"], op["q"]), ())) for op in ops)
        named = "partitions_per_s"
    elif workload == "search-queries":
        work = len(ops)
        named = "queries_per_s"
    else:
        work = checks.expected_frames(json.loads(files[workloads.PLAN_FILE])) / checks.SAMPLE_RATE
        named = "audio_x_realtime"
    rate = work / pass_s
    norm_rate = work / norm_pass_s
    setup_s = checks.median([elapsed for elapsed, _ in setup])
    norm_setup_s = checks.median([elapsed * REF_NOMINAL_S / ref for elapsed, ref in setup])
    latencies = [c["latency_s"] for c in calls]
    value, percentile, samples = checks.tail(latencies)
    metrics = {
        "norm_work_per_s": {"value": norm_rate, "unit": "work/s"},
        "peak_rss_mb": {"value": checks.median([s["maxrss_kb"] for s in summaries]) / 1024, "unit": "MB"},
        "setup_s": {"value": norm_setup_s, "unit": "s"},
    }
    nominal = f"at a reference loop of {REF_NOMINAL_S} s"
    summary_metrics = {
        named: (rate, "x" if workload == "render" else "1/s"),
        "norm_work_per_s": (norm_rate, f"work/s {nominal}"),
        "reference_loop_ms": (1000 * checks.median(pass_refs), "ms, median of the passes' medians"),
        "passes": (len(summaries), f"of {pass_s:.4g} s median, first {summaries[0]['wall_s']:.4g} s"),
        "op_p50_ms": (1000 * checks.median(latencies), f"ms/n={samples}"),
        "op_tail_ms": (1000 * value, f"ms@p{percentile:.2f}/n={samples}"),
        "peak_rss_mb": (metrics["peak_rss_mb"]["value"], "MB"),
        "setup_s": (norm_setup_s, f"s {nominal}"),
        "raw_setup_s": (setup_s, "s"),
    }
    return metrics, summary_metrics


def merge_layers(parts: list[dict]) -> dict:
    """Sum the per-layer tables, counts and span counts of the traced passes."""
    merged = {"layers": {}, "counts": {}, "spans": 0}
    for part in parts:
        for name, row in part["layers"].items():
            into = merged["layers"].setdefault(name, {"calls": 0, "self_s": 0.0})
            into["calls"] += row["calls"]
            into["self_s"] += row["self_s"]
        for key, value in part["counts"].items():
            merged["counts"][key] = merged["counts"].get(key, 0) + value
        merged["spans"] += part["spans"]
    return merged


def per_layer(workload, traced, traced_summaries, untraced_summaries, layers) -> tuple[dict, list[str]]:
    table, counts = layers["layers"], layers["counts"]
    metrics = {}
    for layer in PER_LAYER_TIMES:
        metrics[f"{layer}.self_s"] = {"value": table.get(layer, {}).get("self_s", 0.0), "unit": "s"}
    for layer in PER_LAYER_CALLS:
        metrics[f"{layer}.calls"] = {"value": table.get(layer, {}).get("calls", 0), "unit": "count"}
    for key in PER_LAYER_COUNTS:
        metrics[key] = {"value": counts.get(key, 0), "unit": "count"}
    accepted = counts.get("counterpoint.subsets_accepted", 0)
    ratio = counts.get("counterpoint.partitions", 0) / accepted if accepted else 0.0
    metrics["counterpoint.dedup_ratio"] = {"value": ratio, "unit": "ratio"}
    metrics["cli.bytes_out"] = {"value": sum(c["bytes_out"] for c in traced), "unit": "B"}
    # float64 event pieces and their concatenation, then the int16 array and its bytes.
    metrics["audio.buffer_bytes_computed"] = {"value": 20 * counts.get("audio.samples", 0), "unit": "B"}
    self_sum = sum(row["self_s"] for name, row in table.items() if not name.startswith("fn:"))
    wall = sum(s["wall_s"] for s in traced_summaries)
    # Overhead per pass: median traced pass minus median untraced pass.
    traced_pass, untraced_pass = (checks.median([s["wall_s"] for s in side]) for side in (traced_summaries, untraced_summaries))
    metrics["trace.wall_s"] = {"value": wall, "unit": "s"}
    metrics["trace.untraced_pass_s"] = {"value": untraced_pass, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_pass - untraced_pass, "unit": "s"}
    metrics["trace.self_sum_s"] = {"value": self_sum, "unit": "s"}
    metrics["trace.spans"] = {"value": layers["spans"], "unit": "count"}
    errors = []
    if not 0 <= wall - self_sum <= 0.01 * wall:
        errors.append(f"layer self times add up to {self_sum:.6f} s of {wall:.6f} s traced")
    if workload == "render" and any(name.startswith("counterpoint.") for name in table):
        errors.append("a counterpoint span appears on render")
    if workload == "search-queries" and "counterpoint.extend" in table:
        errors.append("a counterpoint.extend span appears on search-queries")
    return metrics, errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "cayleytones" / "cli.py").is_file():
        print(f"error: no cayleytones sources under {SRC}", file=sys.stderr)
        return 1

    errors = input_self_check(args.workload, args.seed)
    ops, files = workloads.generate(args.workload, args.seed)
    env = environment()
    scratch = HERE / "_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        (work / "ops.json").write_text(json.dumps([{"argv": op["argv"], "files": op.get("files", [])} for op in ops]))
        for name, data in files.items():
            (work / name).write_bytes(data)
        checker = Checker(args.workload, ops, files, args.seed, work)
        setup = []
        if args.trace == 0:
            setup = measure_setup()
            calls, summaries = run_passes(work, args.seconds)
            setup += measure_setup()
            failed = checker.failures(calls)
            metrics, named = end_to_end(args.workload, ops, files, calls, summaries, checker, setup)
        else:
            calls, summaries = [], []
            for number in range(2 * TRACE_PASSES):
                pass_calls, summary = run_pass(work, number, trace=number % 2 == 1)
                calls += pass_calls
                summaries.append(summary)
            untraced, traced = summaries[0::2], summaries[1::2]
            failed = checker.failures(calls)
            traced_numbers = range(1, 2 * TRACE_PASSES, 2)
            layers = merge_layers([json.loads((work / f"pass{i}-layers.json").read_text()) for i in traced_numbers])
            traced_calls = [c for c in calls if c["pass"] % 2 == 1]
            metrics, trace_errors = per_layer(args.workload, traced_calls, traced, untraced, layers)
            errors += trace_errors
            named = {}
            OUT.mkdir(exist_ok=True)
            stem = f"{args.workload}-seed{args.seed}"
            for i in traced_numbers:
                shutil.copyfile(work / f"pass{i}-spans.csv.gz", OUT / f"{stem}-pass{i}-spans.csv.gz")
            (OUT / f"{stem}-layers.json").write_text(json.dumps(layers, indent=1, sort_keys=True))
        attempted = len(calls)
        # Every pass is a fresh process, so pass 0 holds each op's cold first call.
        latencies = [[c["pass"], c["op"], c["latency_s"]] for c in calls]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    fail_ratio = f"{len(failed)}/{attempted}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "inputs": workloads.sizes(args.workload, ops, files),
        "fail_ratio": fail_ratio,
        "failures": failed,
        "pass_s": [summary["wall_s"] for summary in summaries],
        "pass_ref_s": [checks.median(summary["ref_s"]) if summary["ref_s"] else None for summary in summaries],
        "setup_probes_s": setup,  # [elapsed, reference loop]
        "latencies_s": latencies,  # [pass, op, seconds]
        "errors": errors,
        "metrics": metrics,
        "workload_metrics": {name: {"value": v, "unit": u} for name, (v, u) in named.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for failure in failed[:20]:
        print(f"failed op {failure['argv']}: {failure['reason']} [{failure['stderr']}]", file=sys.stderr)
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"inputs: {json.dumps(record['inputs'])}")
    for name, (value, unit) in named.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    if args.trace:
        rows = sorted(((m["value"], k) for k, m in metrics.items() if k.endswith(".self_s")), reverse=True)
        for value, name in rows:
            if value:
                print(f"{args.workload} {name} = {value:.6f} s")
    print(f"{args.workload} fail_ratio = {fail_ratio} (failed/attempted)")
    result = {
        "correct": not failed and not errors,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
