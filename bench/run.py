"""Benchmark of minkinv: compute and certify Minkowski inverses, end to end.

Run from the root of a checkout::

    python3 bench/run.py --workload solve --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Workloads (see ``workloads.py`` for the instance mix):

* ``solve``  - ``X = mink_inverse(A)`` then ``check_candidate(A, X)``.
* ``oracle`` - ``cross_check(A)``.
* ``cli``    - ``minkinv inverse A.json X.json``, then
  ``minkinv check A.json X.json`` (skipped when ``inverse`` exits 1), both
  through ``minkinv.cli.main(argv)`` in the benchmark's process.

Each run is one process calling the program one request at a time, in a
closed loop with a single caller and one BLAS thread.  The program is
imported from ``src/`` of the checkout.  Set-up (import, instance
generation, file writing for ``cli``, one warm-up request) is repeated
``SETUP_REPEATS`` times and its median reported; each repeat times the
import in a fresh interpreter.  Then requests run for ``--seconds`` seconds
of request time; every answer is judged against the benchmark's own ground
truth (``truth.py``) outside the timed interval.  Last, the scale probe
(``workloads.generate_instances``) runs each scaled instance once, untimed.

Times are reported at reference speed.  The host's speed drifts by up to a
half for seconds to minutes at a time, in CPU time as much as in wall time,
which would bury any change the bounds are meant to catch.  So a fixed
calibration task that does not call the package (``calibration``) runs
between timed requests and between set-ups, and every time is reported as
measured times ``REF_CALIBRATION_S`` over the calibration time measured
around it (see ``timed_loop``).  The raw figures are kept in the result
file.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` takes one
round of the pool and runs each request untraced and then twice traced,
back to back, and prints the per-layer metrics (see ``tracing.py``) and
the scale probe's failed share, ``scale_probe.failed_frac``.  For
``cli`` each request also runs as child processes of the real command, which
gives ``cli.startup_ms``.  The traced outputs (and for ``cli`` the child
processes' outputs) must equal the untraced ones bit for bit, and the
per-request span counts and LAPACK work must repeat exactly between the two
traced runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` and
``failed`` count the timed requests (the traced ones with ``--trace 1``),
and ``failed`` those whose answer does not match the ground truth.
``correct`` is false when any of them failed, or when a scale-probe failure
is not the known defect of its instance's scale
(``workloads.KNOWN_FAILURES``); with ``--trace 1`` it is also false when
tracing changed an output or a count.  A fuller record, with the
environment, source line counts, raw times and the scale probe's failure
breakdown by kind and by scale, is written to ``bench/out/``.

``--smoke`` runs every workload on tiny shapes in both modes and checks
that every printed metric is declared in ``BENCHMARK.json``, that the
ground-truth checker rejects a wrong candidate and flags a wrong refusal,
and that ``correct`` excuses only the known scale defects.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); "
                "import minkinv, minkinv.cli, workloads; print(time.perf_counter() - t0)")
BLAS_THREADS = 1
# The calibration task's time at reference speed, about its median on the
# 2-vCPU host the benchmark was tuned on; CALIBRATION_REPEATS runs give one
# reading, their median.  A timed request is calibrated by the median of the
# CALIBRATION_WINDOW readings before it and as many after it.
REF_CALIBRATION_S = 0.00125
CALIBRATION_REPEATS = 7
CALIBRATION_WINDOW = 3
# The CPUs the run may use, and the one it is pinned to (see ``main``).
NPROC_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
PINNED_CPU = NPROC_CPUS[0] if NPROC_CPUS else None
SRC_MODULES = ("matio", "cli", "dense_core", "minkowski", "verify", "solvers")
# ROADMAP's count baseline: n = 50, rank 3n/5, seed 1
COUNT_BASELINE_SPEC = dict(rows=50, cols=50, rank=30, seed=1)


@dataclass
class Record:
    """One judged request."""

    inst: object
    seconds: float
    kind: str | None            # failure kind, None when correct
    fingerprint: object = None
    useful: tuple[int, int] = (0, 0)
    speed: float = 1.0          # calibration factor: seconds * speed is at reference speed

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.speed


def calibration() -> float:
    """Reference over current speed: ``REF_CALIBRATION_S`` / calibration time.

    The task is a 64x64 complex SVD; it calls nothing of the package.  On
    the host the benchmark was tuned on, the workloads' request times track
    it more closely than they track a pure-Python loop or a mix of the two.
    """
    import numpy as np

    P = np.random.default_rng(0).standard_normal((64, 128)).view(np.complex128)
    times = []
    for _ in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        np.linalg.svd(P)
        times.append(time.perf_counter() - t0)
    return REF_CALIBRATION_S / statistics.median(times)


def environment(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    nproc = len(NPROC_CPUS) if NPROC_CPUS else os.cpu_count()
    lines = {}
    for mod in SRC_MODULES:
        with open(SRC / "minkinv" / f"{mod}.py", encoding="utf-8") as fh:
            lines[mod] = sum(1 for _ in fh)
    return {"cpu": cpu, "nproc": nproc, "pinned_cpu": PINNED_CPU,
            "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
            "seed": seed, "src_lines": lines}


def run_one(wl, inst, request, tracer=None) -> Record:
    """One judged request; under a tracer, inside a "request" span."""
    if tracer is None:
        t0 = time.perf_counter()
        out = request(inst)
        dt = time.perf_counter() - t0
    else:
        with tracer.span("request") as span:
            out = request(inst)
        dt = span.end - span.start
    out = wl.collect(inst, out)
    useful = wl.useful(inst, out) if hasattr(wl, "useful") else (0, 0)
    return Record(inst, dt, wl.judge(inst, out), wl.fingerprint(out), useful)


def timed_loop(wl, pool, seconds: float) -> tuple[list[Record], float]:
    """Requests in schedule order until ``seconds`` of request time have passed.

    A calibration reading follows every request (and precedes the first).
    Each request's factor is the median of the readings in a window around
    it, so one disturbed reading does not move it and a change of the host's
    speed that lasts longer than the window is followed.
    """
    records = []
    busy = 0.0
    readings = [calibration()]
    while busy < seconds:
        records.append(run_one(wl, pool[len(records) % len(pool)], wl.request))
        readings.append(calibration())
        busy += records[-1].seconds
    for i, r in enumerate(records):     # request i ran between readings i and i + 1
        r.speed = statistics.median(
            readings[max(0, i + 1 - CALIBRATION_WINDOW):i + 1 + CALIBRATION_WINDOW])
    return records, busy


def breakdown(records: list[Record], by_scale: bool = False) -> dict[str, int]:
    """Failure counts by kind, or by kind and scale exponent."""
    kinds = {}
    for r in records:
        if r.kind is not None:
            key = f"{r.kind} k={r.inst.k}" if by_scale else r.kind
            kinds[key] = kinds.get(key, 0) + 1
    return dict(sorted(kinds.items()))


def unexpected_failures(records: list[Record]) -> int:
    """Failures other than the known defect of their instance's scale."""
    import workloads

    return sum(r.kind is not None and r.kind != workloads.KNOWN_FAILURES.get(r.inst.k)
               for r in records)


def time_import() -> float:
    """Seconds a fresh interpreter takes to import the package and the workloads."""
    path = os.pathsep.join(filter(None, (str(SRC), str(BENCH), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                          text=True, check=True, timeout=60, env=dict(os.environ, PYTHONPATH=path))
    return float(proc.stdout)


def goodput(records: list[Record], calibrated: bool = False) -> float:
    busy = sum(r.ref_seconds if calibrated else r.seconds for r in records)
    return sum(r.kind is None for r in records) / busy


def setup_pool(wl, seed: int, workdir: str):
    pool, probe = wl.setup(seed, workdir)
    wl.collect(pool[0], wl.request(pool[0]))      # warm-up
    return pool, probe


def scale_probe(wl, probe) -> tuple[list[Record], dict]:
    """Runs the scaled instances once each; their failures are reported, not timed."""
    records = [run_one(wl, inst, wl.request) for inst in probe]
    failed = sum(r.kind is not None for r in records)
    checks = {"scale_probe": f"{failed} of {len(records)} failed: "
                             + (", ".join(f"{k} {v}" for k, v in
                                          breakdown(records, by_scale=True).items()) or "none"),
              "scale_probe_unexpected": unexpected_failures(records)}
    return records, checks


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_timed(wl, seed: int, seconds: float, workdir: str):
    raw, readings = [], [calibration()]
    for _ in range(SETUP_REPEATS):
        t = time_import()
        t0 = time.perf_counter()
        pool, probe = setup_pool(wl, seed, workdir)
        raw.append(t + time.perf_counter() - t0)
        readings.append(calibration())
    setup_speed = statistics.median(readings)
    records, busy = timed_loop(wl, pool, seconds)
    probed, checks = scale_probe(wl, probe)
    good = [r for r in records if r.kind is None]
    if len(good) < 2:
        raise RuntimeError(f"only {len(good)} correct requests; no latency percentiles")
    lat = sorted(1000.0 * r.ref_seconds for r in good)
    raw_lat = sorted(1000.0 * r.seconds for r in good)
    lat_p90 = p90(lat)
    metrics = {
        "goodput_rps": (goodput(records, calibrated=True), "req/s",
                        f"{len(good)} of {len(records)} correct in {busy:.3f} s of request "
                        f"time; raw {goodput(records):.6g}"),
        "latency_p50_ms": (statistics.median(lat), "ms",
                           f"n={len(lat)}; raw {statistics.median(raw_lat):.6g}"),
        "latency_p90_ms": (lat_p90, "ms", f"n={len(lat)}, {sum(x > lat_p90 for x in lat)} "
                                          f"samples above; raw {p90(raw_lat):.6g}"),
        "setup_s": (statistics.median(raw) * setup_speed, "s",
                    "median of import + pool and warm-up, raw: "
                    + ", ".join(f"{t:.3f}" for t in raw)
                    + f" s, times calibration factor {setup_speed:.4f}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "this process"),
    }
    checks["correct"] = len(good) == len(records) and checks["scale_probe_unexpected"] == 0
    return records, probed, metrics, checks


def count_baseline() -> dict:
    """LAPACK calls of mink_inverse and cross_check on one fixed input."""
    import minkinv
    import tracing

    spec = minkinv.GenSpec(kind=minkinv.GenKind.EXISTENT, **COUNT_BASELINE_SPEC)
    A = minkinv.generate(spec)
    out = {}
    for label, call in (("mink_inverse", minkinv.mink_inverse),
                        ("cross_check", minkinv.cross_check)):
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            call(A)
        names = [s.name for s in tracer.spans if s.name.startswith("numpy.linalg.")]
        out[label] = {"svd": names.count("numpy.linalg.svd"), "lapack": len(names),
                      "lapack_work": sum(s.work for s in tracer.spans)}
    return out


def run_traced(wl, seed: int, workdir: str, spans_path: Path | None):
    import tracing

    pool, probe = setup_pool(wl, seed, workdir)     # the pool is one round
    child = getattr(wl, "request_child", None)
    # Each request runs untraced (for cli also as child processes), then twice
    # traced, back to back, so that the comparisons see the same machine
    # conditions.
    untraced, children, tracers, passes = [], [], (tracing.Tracer(), tracing.Tracer()), ([], [])
    for i, inst in enumerate(pool):
        untraced.append(run_one(wl, inst, wl.request))
        if child is not None:
            children.append(run_one(wl, inst, child))
        for tracer, records in zip(tracers, passes):
            tracer.request = i
            with tracing.installed(tracer):
                records.append(run_one(wl, inst, wl.request, tracer))
    records = passes[0]
    n = len(records)

    same_outputs = all(
        len({repr(r.fingerprint) for r in group}) == 1
        for group in zip(untraced, *passes, *([children] if children else [])))
    same_counts = (tracing.count_profile(tracers[0].spans)
                   == tracing.count_profile(tracers[1].spans))

    metrics = {name: (value, unit, "") for name, (value, unit)
               in tracing.layer_metrics(tracers[0].spans, n).items()}
    startup = sum(c.seconds - u.seconds for c, u in zip(children, untraced)) / n
    metrics["cli.startup_ms"] = (1000.0 * startup, "ms",
                                 "child wall time minus in-process cli.main time")
    good, tried = (sum(col) for col in zip(*(r.useful for r in records)))
    metrics["verify.cross_check.useful_frac"] = (good / tried if tried else 0.0, "ratio",
                                                 f"{good} of {tried} algorithm outcomes")
    metrics["trace.overhead_frac"] = (1.0 - goodput(records) / goodput(untraced), "ratio",
                                      "traced vs untraced goodput, same requests interleaved")
    if spans_path is not None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            for s in tracers[0].spans:
                fh.write(json.dumps(s.as_dict()) + "\n")
    probed, checks = scale_probe(wl, probe)
    failed = sum(r.kind is not None for r in probed)
    metrics["scale_probe.failed_frac"] = (failed / len(probed), "ratio", checks["scale_probe"])
    checks.update({"outputs_bit_identical": same_outputs, "counts_repeat": same_counts,
                   "count_baseline": count_baseline()})
    checks["correct"] = (same_outputs and same_counts and checks["scale_probe_unexpected"] == 0
                         and all(r.kind is None for r in records))
    return records, probed, metrics, checks


def make_workloads():
    import workloads

    return {"solve": workloads.Solve(), "oracle": workloads.Oracle(),
            "cli": workloads.Cli(str(SRC))}


def run(workload: str, seed: int, seconds: float, trace: bool, write_files: bool = True, wl=None) -> dict:
    """One benchmark run; prints the report and returns the result line's object."""
    wl = wl or make_workloads()[workload]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    try:
        if trace:
            spans_path = OUT / f"{workload}-seed{seed}-spans.jsonl" if write_files else None
            records, probed, metrics, checks = run_traced(wl, seed, workdir, spans_path)
        else:
            records, probed, metrics, checks = run_timed(wl, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(r.kind is not None for r in records)
    print(f"workload {workload}  seed {seed}  trace {int(trace)}: "
          f"{len(records)} attempted, {failed} failed {breakdown(records)}")
    for name, (value, unit, detail) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit:6s} {detail}")
    for key, value in checks.items():
        print(f"  {key}: {value}")
    result = {"correct": bool(checks["correct"]), "attempted": len(records), "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, _) in metrics.items()}}
    if write_files:
        record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "environment": environment(seed), "failure_breakdown": breakdown(records),
                  "scale_probe_breakdown": breakdown(probed),
                  "scale_probe_breakdown_by_scale": breakdown(probed, by_scale=True),
                  "checks": checks, **result,
                  "details": {name: detail for name, (_, _, detail) in metrics.items()}}
        with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    return result


def smoke() -> int:
    """Tiny-shape self-test of the benchmark; returns the exit code."""
    import minkinv
    import truth
    import workloads

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        for name, wl in make_workloads().items():
            wl.mix = {(8, 8): (1, 1, 2), (8, 6): (0, 1, 1)}
            result = run(name, 1, 2.0, trace, write_files=False, wl=wl)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != declared:
                problems.append(f"{name} trace {int(trace)}: printed {printed} "
                                f"but BENCHMARK.json declares {declared}")
            if not result["correct"]:
                problems.append(f"{name} trace {int(trace)}: correct is false")

    spec_e = minkinv.GenSpec(rows=8, cols=6, rank=3, kind=minkinv.GenKind.EXISTENT, seed=3)
    inst = workloads.Instance(minkinv.generate(spec_e), exists=True)
    X = minkinv.mink_inverse(inst.A)
    solve = workloads.Solve()
    if not truth.is_minkowski_inverse(inst.A, X):
        problems.append("checker rejects the correct inverse")
    wrong = minkinv.moore_penrose(inst.A)
    if truth.is_minkowski_inverse(inst.A, wrong):
        problems.append("checker accepts moore_penrose(A) on an existent instance")
    out = workloads.SolveOutput(X=wrong, report=minkinv.check_candidate(inst.A, wrong))
    if solve.judge(inst, out) != truth.WRONG_ANSWER:
        problems.append("solve judge does not flag moore_penrose(A) as a wrong answer")
    refusal = workloads.SolveOutput(error=minkinv.NotExistent("refused"))
    if solve.judge(inst, refusal) != truth.WRONG_REFUSAL:
        problems.append("solve judge does not flag a wrong refusal")
    cli_refusal = workloads.CliOutput(inverse=(workloads.EXIT_NEGATIVE, None), check=None)
    if workloads.Cli(str(SRC)).judge(inst, cli_refusal) != truth.WRONG_REFUSAL:
        problems.append("cli judge does not flag a wrong refusal")
    refused = minkinv.AlgorithmOutcome(name="frf", status="refused")
    if workloads.Oracle._judge_outcome(inst, refused) != truth.WRONG_REFUSAL:
        problems.append("oracle judge does not flag a wrong refusal")

    scaled = workloads.Instance(inst.A, exists=True, k=8)
    for case, kind, unexpected in ((scaled, truth.AUDIT_FALSE_REJECT, 0),
                                   (scaled, truth.WRONG_ANSWER, 1),
                                   (scaled, truth.exception_kind("OverflowError"), 1),
                                   (inst, truth.AUDIT_FALSE_REJECT, 1)):
        if unexpected_failures([Record(case, 0.0, kind)]) != unexpected:
            problems.append(f"correct {'excuses' if unexpected else 'rejects'} "
                            f"{kind} at k={case.k}")

    for p in problems:
        print(f"SMOKE FAIL: {p}")
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=("solve", "oracle", "cli"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny-shape self-test")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    if not (SRC / "minkinv" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'minkinv'}", file=sys.stderr)
        return 2

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    # One CPU for the run and every process it starts: the host's CPUs run at
    # different speeds at the same time, and the calibration reading must be
    # taken on the CPU the request ran on.
    if PINNED_CPU is not None:
        os.sched_setaffinity(0, {PINNED_CPU})
    sys.path.insert(0, str(SRC))
    import minkinv
    if Path(minkinv.__file__).resolve().parent != SRC / "minkinv":
        print(f"bench: imported minkinv from {minkinv.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.smoke:
        return smoke()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
