"""Benchmark of the isoresolvent CLI: end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid-n128 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py): grid-n128, scan-n64, verify-n8; ``all`` runs
each in its own process.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced run.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric with its unit and the raw numbers behind it.  A full record
(per-command times, environment, set-up children) is written to
``.perfbench_out/`` in the checkout, next to the span file of a traced run.

The package is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("grid-n128", "scan-n64", "verify-n8")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="shrunken workloads for the benchmark's tests")
    return p


def _import_package() -> str | None:
    """Import the package from SRC with BLAS pinned; returns an error or None."""
    calib.pin_blas_threads(os.environ)
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401  load both BLAS libraries before the package
    import scipy.linalg  # noqa: F401

    before = calib.blas_threads()
    import isoresolvent.cli

    after = calib.blas_threads()
    if not os.path.abspath(isoresolvent.cli.__file__).startswith(SRC + os.sep):
        return f"isoresolvent was imported from {isoresolvent.cli.__file__}, not from {SRC}"
    if before != after:
        return f"importing isoresolvent changed the BLAS threads: {before} -> {after}"
    nproc = len(os.sched_getaffinity(0))
    if any(n != calib.BLAS_THREADS or n > nproc for n in after.values()):
        return f"BLAS threads {after} are not pinned to {calib.BLAS_THREADS} (nproc {nproc})"
    return None


def _print_table(result, env: dict, args) -> None:
    d = result.detail
    raw = d.get("raw", {})
    print(f"[perfbench] workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} commands={len(d['commands'])} attempted={result.attempted} "
          f"failed={result.failed} fail_frac={result.failed / result.attempted:.4f} correct={result.correct}")
    kinds = sum((Counter(c["kinds"]) for c in d["commands"]), Counter())
    bad_tokens = sum(c["csv_bad_tokens"] for c in d["commands"])
    print(f"[perfbench] failed units by kind: {dict(kinds)}; malformed CSV tokens: {bad_tokens}")
    print(f"[perfbench] python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"nproc={env['nproc']} blas_threads={env['blas_threads']} blas={env['blas']}")
    print(f"[perfbench] reference kernel: median {d['ref_median_s']:.5f} s before a command, nominal "
          f"{d['ref_nominal_s']} s; calibrated = raw / (kernel / nominal), per command")
    print(f"{'metric':48} {'value':>14} {'unit':6} {'raw':>14}")
    for name, m in result.metrics.items():
        raw_value = raw.get(name)
        if raw_value is None:
            raw_value = raw.get("self_ms_per_unit", {}).get(name.removesuffix(".self_ms_per_unit"))
        shown = f"{raw_value:14.6g}" if isinstance(raw_value, (int, float)) else f"{'':14}"
        print(f"{name:48} {m['value']:14.6g} {m['unit']:6} {shown}")


def _run_one(args) -> int:
    error = _import_package()
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 3
    import harness
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.tiny:
        workload = workloads.tiny(workload)
    env = calib.environment()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv")
        result = harness.run(workload, args.seed, args.seconds, bool(args.trace), SRC, workdir, spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump({"environment": env, "correct": result.correct, "attempted": result.attempted,
                   "failed": result.failed, "metrics": result.metrics, **result.detail}, fh, indent=1)
    _print_table(result, env, args)
    print(result.line())
    return 0


def _run_all(args) -> int:
    """Each workload in a fresh process, so peak memory is per workload."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} failed with exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "isoresolvent", "cli.py")):
        print(f"perfbench: no isoresolvent package under {SRC}", file=sys.stderr)
        return 2
    return _run_all(args) if args.workload == "all" else _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
