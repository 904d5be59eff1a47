"""Closed-loop verdict benchmark for the haarlab CLI.

    python3 bench/run.py --workload lattice --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The seed generates one round of
inputs for the workload (see workloads.py); every input's expected answer
is computed by oracle.py, which shares no code with haarlab.  The run
repeats whole rounds until `--seconds` have passed and at least
MIN_INVOCATIONS commands have run, so every run has the same input mix.

--trace 0 runs `python -m haarlab.cli` once per input, one process at a
time, and reports the end-to-end metrics.  --trace 1 runs the same
inputs through `haarlab.cli.run` in this process, each once untraced and
once traced by tracing.py, and reports per-layer metrics per round plus
the tracing overhead.  Both print the result as the last
line of standard output; progress and the layer table go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Enough invocations that ten or more lie beyond the 90th percentile.
MIN_INVOCATIONS = 100
#: Fresh interpreters timed for setup_s (after one that compiles bytecode).
SETUP_REPEATS = 15
#: An invocation still running after this long is killed and counted failed.
INVOCATION_TIMEOUT_S = 120

PER_LAYER = [
    # metric, unit, span name or counter, kind
    ("topology.space_build_s", "s", "topology.space_build", "self"),
    ("topology.space_build_calls", "count", "topology.space_build", "calls"),
    ("topology.closure_s", "s", "topology.closure", "self"),
    ("topology.closure_calls", "count", "topology.closure", "calls"),
    ("topology.closure_distinct_ratio", "ratio", "topology.closure", "distinct"),
    ("topology.interior_s", "s", "topology.interior", "self"),
    ("topology.flags_s", "s", "topology.flags", "self"),
    ("groups.table_validate_s", "s", "groups.table_validate", "self"),
    ("groups.normal_subgroups_s", "s", "groups.normal_subgroups", "self"),
    ("groups.coset_topology_s", "s", "groups.coset_topology", "self"),
    ("groups.top_group_validate_s", "s", "groups.top_group_validate", "self"),
    ("groups.identity_closure_s", "s", "groups.identity_closure", "self"),
    ("groups.quotient_s", "s", "groups.quotient", "self"),
    ("measure.is_haar_s", "s", "measure.is_haar", "self"),
    ("measure.is_haar_calls", "count", "measure.is_haar", "calls"),
    ("measure.is_haar_distinct_ratio", "ratio", "measure.is_haar", "distinct"),
    ("measure.sets_swept", "count", "measure.sets_swept", "counter"),
    ("measure.solution_space_s", "s", "measure.solution_space", "self"),
    ("measure.fubini_s", "s", "measure.fubini", "self"),
    ("measure.push_pull_s", "s", "measure.push_pull", "self"),
    ("covering.covering_number_s", "s", "covering.covering_number", "self"),
    ("covering.covering_number_calls", "count", "covering.covering_number", "calls"),
    ("covering.existence_s", "s", "covering.existence", "self"),
    ("plane.certificate_build_s", "s", "plane.certificate_build", "self"),
    ("plane.certificate_verify_s", "s", "plane.certificate_verify", "self"),
    ("plane.certificate_verify_calls", "count", "plane.certificate_verify", "calls"),
    ("plane.tile_pairs_checked", "count", "plane.tile_pairs_checked", "counter"),
    ("plane.cylinder_s", "s", "plane.cylinder", "self"),
    ("cli.run_self_s", "s", "cli.run", "self"),
    ("cli.load_s", "s", "cli.load", "self"),
    ("cli.report_bytes", "bytes", "cli.report_bytes", "counter"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "HAARLAB_"))}
    env["PYTHONPATH"] = str(SRC)
    return env


class Tally:
    """Outcome counts; a wrong answer also keeps its reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.accepted = {}  # op index -> (exit code, report bytes) already checked

    def record(self, index, op, code, out, err):
        self.attempted += 1
        if self.accepted.get(index) == (code, out) and not err:
            return
        reason = "traceback on stderr" if err else None
        if reason is None:
            try:
                report = json.loads(out)
            except ValueError:
                report = None
            reason = op.check(code, report)
        if reason is None:
            self.accepted[index] = (code, out)
            return
        self.failed += 1
        if not (op.known_fault and reason == "known fault"):
            self.wrong.append(f"op {index} {op.cmd}: {reason}")


def write_inputs(ops, work):
    paths = []
    for i, op in enumerate(ops):
        path = work / f"op{i:03d}.json"
        path.write_text(json.dumps(op.data), encoding="utf-8")
        paths.append(path)
    return paths


def cli_args(op, path):
    return [op.cmd, "--input", str(path), *op.argv]


# -- untraced: one child process per command --------------------------------


def invoke(argv, env, err_path):
    """Run one command; return (exit code, stdout, stderr, seconds, rusage)."""
    with open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
            killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return proc.returncode, out, err.read(), elapsed, usage


def measure_setup(env):
    argv = [sys.executable, "-c", "import haarlab.cli"]
    subprocess.run(argv, env=env, cwd=ROOT, check=True)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_untraced(ops, paths, seconds, work):
    env = child_env()
    setup_s = measure_setup(env)
    tally = Tally()
    latencies = []
    peak_kb = 0
    rounds = 0
    start = time.perf_counter()
    while True:
        for i, (op, path) in enumerate(zip(ops, paths)):
            argv = [sys.executable, "-m", "haarlab.cli", *cli_args(op, path)]
            code, out, err, elapsed, usage = invoke(argv, env, work / "stderr.txt")
            latencies.append(elapsed)
            peak_kb = max(peak_kb, usage.ru_maxrss)
            tally.record(i, op, code, out, err)
        rounds += 1
        if time.perf_counter() - start >= seconds and tally.attempted >= MIN_INVOCATIONS:
            break
    log(f"{rounds} rounds, {len(latencies)} invocations in {time.perf_counter() - start:.1f} s")
    metrics = {
        "setup_s": (setup_s, "s"),
        "verdicts_per_s": (len(latencies) / sum(latencies), "1/s"),
        "verdict_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "verdict_p90_ms": (statistics.quantiles(latencies, n=10)[-1] * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return tally, metrics


# -- traced: in process, spans around each layer ------------------------------


def load_haarlab():
    sys.path.insert(0, str(SRC))
    import haarlab
    from haarlab import cli, covering, groups, measure, plane, topology

    if not Path(haarlab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported haarlab from {haarlab.__file__}, not from {SRC}")
    mods = {"haarlab": haarlab, "cli": cli, "covering": covering, "groups": groups}
    mods.update({"measure": measure, "plane": plane, "topology": topology})
    return mods


def run_op(mods, index, op, path, tally, tracer=None):
    """One command through cli.run; returns its wall time, exit code and report."""
    buf = io.StringIO()
    err = b""
    if tracer is not None:
        tracer.install()
        tracer.begin_op(index)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = mods["cli"].run(cli_args(op, path))
    except Exception:  # a traceback is a failed operation, not a crash
        code, err = -1, traceback.format_exc().encode()
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
            tracer.uninstall()
    out = buf.getvalue().encode()
    tally.record(index, op, code, out, err)
    return wall, code, out


def run_traced(ops, paths, seconds, work, workload, seed):
    """Each command runs twice per round, untraced and traced, in an order
    that alternates from one command to the next, so that drift in machine
    speed falls on both sides of the overhead estimate alike."""
    import tracing

    mods = load_haarlab()
    tracer = tracing.Tracer(mods)
    tally = Tally()
    plain = traced = 0.0
    report_bytes = 0
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        for i, (op, path) in enumerate(zip(ops, paths)):
            for with_trace in (False, True) if (i + rounds) % 2 == 0 else (True, False):
                if with_trace:
                    wall, _, out = run_op(mods, i, op, path, tally, tracer)
                    traced += wall
                    report_bytes += len(out)
                else:
                    plain += run_op(mods, i, op, path, tally)[0]
        rounds += 1
    tracer.counts["cli.report_bytes"] = report_bytes
    totals = tracer.totals()
    metrics = {}
    for name, unit, key, kind in PER_LAYER:
        self_s, calls = totals.get(key, (0.0, 0))
        if kind == "self":
            value = self_s / rounds
        elif kind == "calls":
            value = calls / rounds
        elif kind == "distinct":
            value = tracer.distinct[key] / calls if calls else 1.0
        else:
            value = tracer.counts[key] / rounds
        metrics[name] = (value, unit)
    metrics["trace.overhead_pct"] = ((traced / plain - 1) * 100, "%")
    trace_path = work / "trace.jsonl"
    tracer.write(trace_path, {"workload": workload, "seed": seed, "rounds": rounds})
    print_layer_table(workload, metrics, rounds, plain / rounds, traced / rounds, trace_path)
    return tally, metrics


def print_layer_table(workload, metrics, rounds, plain, traced, trace_path):
    total = sum(v for v, u in metrics.values() if u == "s") or 1.0
    log(f"\nper-layer metrics, {workload}, per round ({rounds} traced rounds)")
    for name, (value, unit) in metrics.items():
        share = f"{100 * value / total:5.1f}% of self time" if unit == "s" else ""
        log(f"  {name:34s} {value:14.6g} {unit:6s} {share}")
    log(f"  in-process round: untraced {plain:.3f} s, traced {traced:.3f} s")
    log(f"  spans written to {trace_path.relative_to(ROOT)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "haarlab" / "cli.py").is_file():
        log(f"no haarlab sources under {SRC}: run from a full checkout")
        return 2
    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    ops = workloads.WORKLOADS[args.workload](args.seed)
    paths = write_inputs(ops, work)
    log(f"{args.workload}: {len(ops)} commands per round, seed {args.seed}")

    if args.trace:
        tally, metrics = run_traced(ops, paths, args.seconds, work, args.workload, args.seed)
    else:
        tally, metrics = run_untraced(ops, paths, args.seconds, work)
    for line in tally.wrong[:20]:
        log(f"WRONG {line}")
    print(
        json.dumps(
            {
                "correct": not tally.wrong,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
