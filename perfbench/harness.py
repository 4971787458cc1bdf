"""Closed-loop runs of one workload and the metrics they report.

An untraced run gives the end-to-end metrics.  A traced run gives the
per-layer metrics: it runs each command twice, untraced and then traced, so
the tracing overhead is a paired ratio on identical inputs.  Every command
is calibrated with the reference kernel timed just before it (see calib),
so a run that spans a change of machine speed is still calibrated right.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import calib
import scenarios as sc
import tracer as tr
from workloads import Workload

HERE = os.path.dirname(os.path.abspath(__file__))

# (name, unit) of the end-to-end metrics, reported with tracing off.
END_TO_END = (
    ("setup_s", "s"),
    ("cmd_s_p50", "s"),
    ("work_per_s", "1/s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)

# Functions whose calls and self time are reported per unit in the traced run.
LAYER_FUNCTIONS = tuple(name for name, _, _ in tr.FUNCTIONS if name != "cli.main")

# (name, unit) of the per-layer metrics that are not per-function.
LAYER_EXTRAS = (
    ("cli.self_ms_per_cmd", "ms"),
    ("cli.out_bytes_per_unit", "B"),
    ("cli.csv_bad_tokens_per_unit", "count"),
    ("cli.import_ms", "ms"),
    ("gap.samples_per_arc", "count"),
    ("gap.false_certificates", "count"),
    ("gap.false_rejections", "count"),
    ("gap.precondition_raised", "count"),
    ("gap.sample.floor_x", "ratio"),
    ("resolvents.at.floor_x", "ratio"),
    ("isometry.defect_spaces.repeat_frac", "ratio"),
    ("numerics.guarded_inverse.singular_raised", "count"),
    ("numerics.flops_per_unit", "flop"),
    ("trace.overhead_frac", "ratio"),
)


def per_layer_names() -> list[tuple[str, str]]:
    out = []
    for name in LAYER_FUNCTIONS:
        out += [(f"{name}.calls_per_unit", "count"), (f"{name}.self_ms_per_unit", "ms")]
    return out + list(LAYER_EXTRAS)


# Reference-kernel passes timed before each command.
REF_REPS = 5
# Repetitions of each bare LAPACK floor after a traced command.
FLOOR_REPS = 7


@dataclass
class Record:
    k: int
    units: int
    raw_s: float
    cpu_s: float
    ref_s: float
    speed: float  # speed factor of the command's moment
    failed: int
    kinds: Counter
    out_bytes: int
    samples: int
    bad_tokens: int
    traced: bool = False
    floors: dict = field(default_factory=dict)


def _invoke(cli, argv: list[str]) -> tuple[int | None, float, float]:
    """Run ``cli.main(argv)``; returns (exit code or None, wall s, cpu s)."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else None
    except Exception:
        traceback.print_exc(file=sys.stderr)
        code = None
    return code, time.perf_counter() - t0, time.process_time() - c0


def _run_command(cli, schedule, k: int, ref_s: float, tracer: tr.Tracer | None = None) -> Record:
    cmd = schedule.command(k)
    for path in cmd.outputs:
        if os.path.exists(path):
            os.remove(path)
    if tracer is not None:
        tracer.begin(k)
    try:
        code, raw, cpu = _invoke(cli, cmd.argv)
    finally:
        if tracer is not None:
            tracer.end()
    score = cmd.check(code)
    return Record(k, cmd.units, raw, cpu, ref_s, calib.speed(ref_s), score.failed, score.kinds, score.out_bytes,
                  score.samples, score.bad_tokens, traced=tracer is not None)


def _setup_children(workload: Workload, scenario: str, src: str, workdir: str) -> list[dict]:
    """Time ``import isoresolvent.cli`` and ``parse_scenario`` in fresh processes."""
    out = []
    for _ in range(workload.setup_children):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_child.py"), src, scenario],
            capture_output=True, text=True, timeout=150, cwd=workdir,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup child failed:\n{proc.stderr}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        if any(n != calib.BLAS_THREADS for n in child["blas_threads"].values()):
            raise RuntimeError(f"setup child runs BLAS with {child['blas_threads']} threads")
        out.append(child)
    return out


class _Floors:
    """Bare LAPACK work a formula cannot avoid, at the workload's size."""

    def __init__(self, n: int):
        eye = np.eye(n, dtype=complex)
        self.a = eye - 0.5 * sc.haar_unitary(np.random.default_rng(7), n)
        self.eye = eye

    def _median(self, fn) -> float:
        times = []
        for _ in range(FLOOR_REPS):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def measure(self) -> dict:
        return {
            "solve_s": self._median(lambda: np.linalg.solve(self.a, self.eye)),
            "svd_s": self._median(lambda: np.linalg.svd(self.a, compute_uv=False)),
        }


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> {"value", "unit"}
    detail: dict  # raw numbers kept next to each metric, for the record file

    def line(self) -> str:
        return json.dumps({"correct": self.correct, "attempted": self.attempted,
                           "failed": self.failed, "metrics": self.metrics})


def _correct(records: list[Record]) -> bool:
    """True when every failed unit is a false certificate.

    False certificates on arcs that hold an atom are the known sampling
    defect of ``arc_scan``: they count in ``failed``, ``ok_frac`` and
    ``gap.false_certificates``.  Any other wrong output makes the run
    incorrect.
    """
    for r in records:
        other = sum(n for kind, n in r.kinds.items() if kind != "false_certificate")
        if other:
            return False
    return True


def run(workload: Workload, seed: int, seconds: float, trace: bool, src: str, workdir: str,
        spans_path: str) -> Result:
    """Run ``workload`` for ``seconds`` of command time; a traced run writes
    its spans to ``spans_path``."""
    import isoresolvent.cli as cli

    schedule = workload.prepare(seed, workdir)
    children = _setup_children(workload, schedule.scenario_paths[0], src, workdir)
    kernel = calib.ReferenceKernel()
    kernel.seconds(REF_REPS)
    _run_command(cli, schedule, 0, calib.REF_NOMINAL_S)  # warm-up: first-call costs are not per command

    deadline = time.monotonic() + max(60.0, 6.0 * seconds)
    records: list[Record] = []
    tracer = tr.Tracer() if trace else None
    floors = _Floors(workload.n) if trace else None
    k, spent = 0, 0.0
    while True:
        at_boundary = k % workload.block == 0
        done = spent >= seconds and (not trace or k >= workload.counted)
        if at_boundary and (done or time.monotonic() > deadline):
            break
        records.append(_run_command(cli, schedule, k, kernel.seconds(REF_REPS)))
        spent += records[-1].raw_s
        if trace:
            records.append(_run_command(cli, schedule, k, kernel.seconds(REF_REPS), tracer))
            records[-1].floors = floors.measure()
            spent += records[-1].raw_s
        k += 1

    attempted = sum(r.units for r in records)
    failed = sum(r.failed for r in records)
    setup = _setup_metrics(children)
    if trace:
        metrics, detail = _layer_metrics(workload, records, tracer, setup)
        tracer.write_spans(spans_path)
        detail["spans_file"] = spans_path
    else:
        metrics, detail = _end_to_end_metrics(records, setup)
    detail.update({
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "ref_nominal_s": calib.REF_NOMINAL_S,
        "ref_median_s": statistics.median(r.ref_s for r in records),
        "setup_children": children,
        "commands": [
            {"k": r.k, "traced": r.traced, "units": r.units, "raw_s": r.raw_s, "cpu_s": r.cpu_s,
             "ref_s": r.ref_s, "speed": r.speed, "failed": r.failed, "kinds": dict(r.kinds), "out_bytes": r.out_bytes,
             "csv_bad_tokens": r.bad_tokens,
             **r.floors}
            for r in records
        ],
    })
    return Result(_correct(records), attempted, failed, metrics, detail)


def _setup_metrics(children: list[dict]) -> dict:
    calibrated = [(c["import_s"] + c["parse_s"]) / calib.speed(c["ref_s"]) for c in children]
    return {
        "setup_s": statistics.median(calibrated),
        "setup_raw_s": statistics.median(c["import_s"] + c["parse_s"] for c in children),
        "import_ms": 1e3 * statistics.median(c["import_s"] / calib.speed(c["ref_s"]) for c in children),
        "import_raw_ms": 1e3 * statistics.median(c["import_s"] for c in children),
        "blas_threads": [c["blas_threads"] for c in children],
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _end_to_end_metrics(records: list[Record], setup: dict) -> tuple[dict, dict]:
    raw = [r.raw_s for r in records]
    calibrated = [r.raw_s / r.speed for r in records]
    units = sum(r.units for r in records)
    failed = sum(r.failed for r in records)
    values = {
        "setup_s": setup["setup_s"],
        "cmd_s_p50": statistics.median(calibrated),
        "work_per_s": units / sum(calibrated),
        "ok_frac": (units - failed) / units,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw_values = {
        "setup_s": setup["setup_raw_s"],
        "cmd_s_p50": statistics.median(raw),
        "work_per_s": units / sum(raw),
        "fail_frac": failed / units,
    }
    metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}
    return metrics, {"raw": raw_values, "setup": setup, "commands_run": len(records),
                     "cpu_over_wall": sum(r.cpu_s for r in records) / sum(raw)}


def _median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _layer_metrics(workload: Workload, records: list[Record], tracer: tr.Tracer,
                   setup: dict) -> tuple[dict, dict]:
    traced = [r for r in records if r.traced]
    speed = {r.k: r.speed for r in traced}
    plain = {r.k: r for r in records if not r.traced}
    counted = [r for r in traced if r.k < workload.counted]
    units_counted = sum(r.units for r in counted)
    units_all = sum(r.units for r in traced)
    in_count = {r.k for r in counted}

    calls, self_s, self_raw = Counter(), Counter(), Counter()
    cmd_calls, inclusive = Counter(), Counter()  # keyed by (name, cmd)
    for span, self_time in zip(tracer.spans, tracer.self_seconds()):
        name, start, end, parent, cmd = span
        self_s[name] += self_time / speed[cmd]
        self_raw[name] += self_time
        inclusive[(name, cmd)] += end - start
        cmd_calls[(name, cmd)] += 1
        if cmd in in_count:
            calls[name] += 1

    values = {}
    for name in LAYER_FUNCTIONS:
        values[f"{name}.calls_per_unit"] = calls[name] / units_counted
        values[f"{name}.self_ms_per_unit"] = 1e3 * self_s[name] / units_all

    def raised(name, exc):
        return sum(n for (fn, e, cmd), n in tracer.raised.items() if fn == name and e == exc and cmd in in_count)

    kinds = sum((r.kinds for r in counted), Counter())
    arcs = units_counted if workload.unit == "arc" else 0
    at = "resolvents.ResolventFn.at"
    at_floor = [inclusive[(at, r.k)] / cmd_calls[(at, r.k)] / r.floors["solve_s"]
                for r in traced if cmd_calls[(at, r.k)]]
    sample_floor = [inclusive[("gap.arc_scan", r.k)] / r.samples / r.floors["svd_s"]
                    for r in traced if r.samples and cmd_calls[("gap.arc_scan", r.k)]]
    defect_calls = sum(tracer.defect_calls[k] for k in in_count)
    values.update({
        "cli.self_ms_per_cmd": 1e3 * self_s["cli.main"] / len(traced),
        "cli.out_bytes_per_unit": sum(r.out_bytes for r in counted) / units_counted,
        "cli.csv_bad_tokens_per_unit": sum(r.bad_tokens for r in counted) / units_counted,
        "cli.import_ms": setup["import_ms"],
        "gap.samples_per_arc": sum(r.samples for r in counted) / arcs if arcs else 0.0,
        "gap.false_certificates": kinds["false_certificate"],
        "gap.false_rejections": kinds["false_rejection"],
        "gap.precondition_raised": raised("gap.build_gap_operators", "PreconditionViolated"),
        "gap.sample.floor_x": _median_or_zero(sample_floor),
        "resolvents.at.floor_x": _median_or_zero(at_floor),
        "isometry.defect_spaces.repeat_frac":
            sum(tracer.defect_repeats[k] for k in in_count) / defect_calls if defect_calls else 0.0,
        "numerics.guarded_inverse.singular_raised": raised("numerics.guarded_inverse", "SingularOperator"),
        "numerics.flops_per_unit": sum(tracer.flops[k] for k in in_count) / units_counted,
        "trace.overhead_frac": statistics.median(r.raw_s / plain[r.k].raw_s for r in traced) - 1.0,
    })
    metrics = {name: _metric(values[name], unit) for name, unit in per_layer_names()}
    detail = {
        "raw": {
            "self_ms_per_unit": {name: 1e3 * self_raw[name] / units_all for name in LAYER_FUNCTIONS},
            "cli.self_ms_per_cmd": 1e3 * self_raw["cli.main"] / len(traced),
            "cli.import_ms": setup["import_raw_ms"],
        },
        "setup": setup,
        "counted_commands": workload.counted,
        "units_counted": units_counted,
        "missing_functions": tracer.missing,
        "raised": {f"{fn}:{e}": n for (fn, e, cmd), n in tracer.raised.items()},
        "flops_formula": tr.FLOPS_FORMULA,
        "floors_median": {
            "solve_s": statistics.median(r.floors["solve_s"] for r in traced),
            "svd_s": statistics.median(r.floors["svd_s"] for r in traced),
        },
    }
    return metrics, detail

