"""One SHA-256 over every report of the seeded benchmark rounds.

    python3 tools/report_digest.py [SEED ...]        (default seeds: 1 2 3)

Run from anywhere inside a source checkout.  For each seed it builds the
`lattice`, `haar` and `certificate` rounds of bench/workloads.py (imported,
never written), runs every command in this process through
`haarlab.cli.run`, imported from this checkout's src/, and feeds
(workload, seed, op index, exit code, report bytes) into one hash.  Two
checkouts that print the same digest produced byte-identical reports and
exit codes on every command.  The command count goes to stderr.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave bench/ as checked out
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from haarlab import cli  # noqa: E402

WORKLOADS = ("lattice", "haar", "certificate")


def run_op(op, path):
    """Exit code and report bytes of one command; a traceback is code -1
    with the exception's type name as its report."""
    # A fresh file each time: on ext4, replacing the contents of a file
    # that has data (by truncation or by a rename over it) flushes it to
    # disk on close, tens of milliseconds per command.
    path.unlink(missing_ok=True)
    path.write_text(json.dumps(op.data), encoding="utf-8")
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.run([op.cmd, "--input", str(path), *op.argv])
    except Exception as exc:  # noqa: BLE001 - recorded in the digest
        return -1, type(exc).__name__.encode()
    return code, buf.getvalue().encode()


def digest(seeds):
    h = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        for workload in WORKLOADS:
            for seed in seeds:
                for index, op in enumerate(workloads.WORKLOADS[workload](seed)):
                    code, report = run_op(op, path)
                    head = f"{workload}\0{seed}\0{index}\0{code}\0{len(report)}\0"
                    h.update(head.encode() + report)
                    count += 1
    return h.hexdigest(), count


def main(argv=None):
    seeds = [int(s) for s in (sys.argv[1:] if argv is None else argv)] or [1, 2, 3]
    hexdigest, count = digest(seeds)
    print(f"{count} commands, seeds {seeds}", file=sys.stderr)
    print(hexdigest)


if __name__ == "__main__":
    main()
