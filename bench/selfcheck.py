"""Self-check of the benchmark: tiny rounds, tracing and tampered reports.

    python3 bench/selfcheck.py

Runs a tiny round of every workload through the CLI and checks each
report with the oracle, runs the same commands in process under the
tracer and requires byte-identical reports, and then shows that the
oracle rejects three tampered reports: one flipped covering count, one
missing tile and one wrong verdict.  Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import sys

import run
import tracing
import workloads

SEED = 7


def cli_report(op, path, work):
    argv = [sys.executable, "-m", "haarlab.cli", *run.cli_args(op, path)]
    code, out, err, _, _ = run.invoke(argv, run.child_env(), work / "stderr.txt")
    return code, out, err


def main():
    if not (run.SRC / "haarlab" / "cli.py").is_file():
        print(f"no haarlab sources under {run.SRC}", file=sys.stderr)
        return 2
    problems = []
    mods = run.load_haarlab()
    tracer = tracing.Tracer(mods)
    saved = {}
    for name, build in workloads.WORKLOADS.items():
        work = run.WORK / "selfcheck" / name
        work.mkdir(parents=True, exist_ok=True)
        ops = build(SEED, tiny=True)
        paths = run.write_inputs(ops, work)
        tally = run.Tally()
        for i, (op, path) in enumerate(zip(ops, paths)):
            code, out, err = cli_report(op, path, work)
            tally.record(i, op, code, out, err)
            saved[(name, i)] = (op, code, out)
            _, traced_code, traced_out = run.run_op(mods, i, op, path, run.Tally(), tracer)
            if (traced_code, traced_out) != (code, out):
                problems.append(f"{name} op {i}: traced report differs from the CLI's")
        faults = sum(op.known_fault for op in ops)
        print(
            f"{name}: {tally.attempted} commands, {tally.failed} failed "
            f"({faults} known faults), wrong: {len(tally.wrong)}"
        )
        problems += tally.wrong
        if tally.failed != faults:
            problems.append(f"{name}: {tally.failed} failures, expected {faults}")
    spans = tracer.totals()
    for span in ("topology.closure", "measure.is_haar", "plane.certificate_verify", "cli.run"):
        if span not in spans:
            problems.append(f"tracer recorded no {span} span")

    def tamper(cmd, edit, label):
        for (_, _), (op, code, out) in saved.items():
            report = json.loads(out)
            if op.cmd != cmd or not edit(report, probe=True):
                continue
            if op.check(code, report) is not None:
                problems.append(f"{label}: untampered report rejected")
            bad = copy.deepcopy(report)
            edit(bad, probe=False)
            reason = op.check(code, bad)
            print(f"tampered ({label}): {'rejected, ' + reason if reason else 'ACCEPTED'}")
            if reason is None:
                problems.append(f"{label}: tampered report accepted")
            return
        problems.append(f"{label}: no report to tamper with")

    def flip_count(report, probe):
        rows = report["results"]["covering_table"]
        if not probe:
            rows[len(rows) // 2]["count"] += 1
        return bool(rows)

    def drop_tile(report, probe):
        tiles = report["results"]["translates"]
        if not probe:
            tiles.pop(len(tiles) // 2)
        return len(tiles) > 1

    def flip_verdict(report, probe):
        res = report["results"]
        if not probe:
            res["is_haar"] = not res["is_haar"]
        return not res["is_haar"]

    tamper("construct", flip_count, "flipped covering count")
    tamper("counterexample", drop_tile, "missing tile")
    tamper("verify-haar", flip_verdict, "wrong verdict")
    for line in problems:
        print(f"PROBLEM {line}")
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problems")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
