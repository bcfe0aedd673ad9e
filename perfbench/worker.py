"""Closed-loop client: one pass over the ops, calling cayleytones.cli.main in-process.

Run by run.py in a fresh interpreter with the work directory as its
current directory, once per pass, so nothing the program keeps in memory
carries from one pass to the next. It reads the ops (only their argv reach
the program), calls them one at a time in order, and writes one JSON line
per call: latency, exit code, stderr, a hash of stdout and, the first time
an op produces a given stdout, the stdout itself. Unless it traces, it
also times a fixed reference loop at a steady rate, during the ops as well
as between them. The last line holds the pass's summed latency, the
reference times and the peak resident set size. With --spans it traces the
calls and writes the spans and the per-layer table.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

# The host's speed drifts by up to 2x over seconds to minutes, and the
# program's speed drifts with it. run.py divides the pass time by the median
# time of reference(), sampled every REF_EVERY_S in the same process.
REF_EVERY_S = 0.2


def reference() -> float:
    start = time.perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(30000):
        table[i & 1023] = i
        total += table.get((i * 7) & 1023, 0)
    ",".join([str(i) for i in range(3000)]).split(",")
    return time.perf_counter() - start


class Sampler:
    """Times reference() from a SIGALRM handler, so that samples also fall
    inside ops that run for seconds, and keeps the time the samples took out
    of the op latencies."""

    def __init__(self):
        self.refs: list[float] = []
        self.paused = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.refs.append(reference())
        self.paused += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _file_hash(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--ops", required=True)
    parser.add_argument("--results", required=True)
    parser.add_argument("--spans", help="trace, and write the spans here")
    parser.add_argument("--layers", help="per-layer table written here when tracing")
    args = parser.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import cayleytones
    from cayleytones import cli

    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"cayleytones imported from {cli.__file__}, not from {src}")

    with open(args.ops, encoding="utf-8") as handle:
        ops = json.load(handle)
    tracer = None
    if args.spans:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(cayleytones)
    seen: set[tuple[int, str]] = set()
    wall = 0.0
    sampler = Sampler()
    if not tracer:  # a sample inside a span would count as the program's time
        sampler.start()
    with open(args.results, "w", encoding="utf-8") as results:
        for index, op in enumerate(ops):
            out, err = io.StringIO(), io.StringIO()
            code, exc = None, None
            if tracer:
                tracer.op = index
            entry = cli.main  # the traced wrapper once installed
            paused = sampler.paused
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = entry(list(op["argv"]))
            except (Exception, SystemExit) as error:  # an escape from main is a failed op
                exc = f"{type(error).__name__}: {error}"
            latency = time.perf_counter() - t0 - (sampler.paused - paused)
            wall += latency
            text = out.getvalue()
            data = text.encode()
            sha = hashlib.sha256(data).hexdigest()
            record = {
                "op": index,
                "latency_s": latency,
                "code": code,
                "exc": exc,
                "stderr": err.getvalue(),
                "sha": sha,
                "bytes_out": len(data),
            }
            if (index, sha) not in seen:
                seen.add((index, sha))
                record["stdout"] = text
            if code == 0:
                record["files"] = {name: _file_hash(name) for name in op.get("files", ())}
            results.write(json.dumps(record) + "\n")
        sampler.stop()
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        summary = {"done": True, "calls": len(ops), "wall_s": wall, "ref_s": sampler.refs, "maxrss_kb": maxrss_kb}
        results.write(json.dumps(summary) + "\n")
    if tracer:
        tracer.uninstall()
        with open(args.layers, "w", encoding="utf-8") as handle:
            json.dump({"layers": tracer.layers(), "counts": tracer.counts, "spans": len(tracer.spans)}, handle)
        tracer.write(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
