"""The vexp benchmark: one command, every metric by name and unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
`src/`.  With `--trace 0` the run repeats whole batches of its workload until
S seconds have gone (at least one batch) and reports the end-to-end metrics,
medians over batches.  With `--trace 1` it runs one untraced batch and then
the same batch with the per-layer probes of `tracer.py` installed, and
reports the per-layer metrics.  The last line of standard output is the
result as JSON; the line before it records the environment and diagnostics.

`--record-reference` rewrites the reference answers under
perfbench/reference/ from the current source.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, ".out")

SETUP_RUNS = 5   # measured cold processes; one more runs first, unmeasured
TAIL_LADDER = (99.99, 99.9, 99.5, *(float(p) for p in range(99, 49, -1)))
TAIL_BEYOND = 10


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail_percentile(n: int) -> tuple[float, int]:
    """The highest percentile with at least ten samples beyond it.

    Candidates are 99.99, 99.9, 99.5 and the whole percentiles from 99 down
    to 50; a finer ladder keeps the tail off the wide gaps between op costs.

    Returns (percentile, samples beyond).  With fewer than 20 samples no
    percentile qualifies and the median is used.
    """
    for p in TAIL_LADDER:
        beyond = n - math.ceil(p / 100.0 * n)
        if beyond >= TAIL_BEYOND:
            return p, beyond
    return 50.0, n - math.ceil(n / 2)


def nearest_rank(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------

def setup_probe() -> None:
    """Child side of setup_s: import, build the corpus, validate the config."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    from vexp.audit import Context, _case_from_dict, validate_cases
    from vexp.config import parse_config
    from vexp.corpus import default_corpus, default_exponents
    from vexp.defaults import default_config_text
    default_corpus()
    default_exponents()
    cfg = parse_config(default_config_text())
    cases = [_case_from_dict(d, cfg.get("defaults", {})) for d in cfg["case"]]
    validate_cases(Context(), cases)
    print(repr(time.perf_counter() - t0))


def measure_setup() -> tuple[float, list[float], float]:
    """(setup_s at the reference speed, measured samples, speed factor)."""
    from speed import SpeedMeter
    meter = SpeedMeter()
    times = []
    for i in range(SETUP_RUNS + 1):
        meter.sample()
        out = subprocess.run([sys.executable, __file__, "--setup-probe"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        if i:
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times) / meter.factor(), times, meter.factor()


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "vexp", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return digest.hexdigest()


def blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes
    import numpy as np
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(args) -> dict:
    import numpy as np
    return {
        "commit": git_commit(), "src_sha256": source_sha256(),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads(),
        "seed": args.seed, "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def run_batches(workload, seed: int, seconds: float) -> list:
    """Whole batches until `seconds` would be exceeded; at least one."""
    from tracer import assert_untraced
    batches = []
    start = time.perf_counter()
    while True:
        assert_untraced()
        batches.append(workload.run_batch(seed, len(batches)))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(batches) > seconds:
            return batches


def end_to_end(batches: list, setup: tuple) -> tuple[dict, dict]:
    tails = [tail_percentile(len(b.op_ms)) for b in batches]
    metrics = {
        "wall_s": (statistics.median(b.wall_s for b in batches), "s"),
        "op_p50_ms": (statistics.median(statistics.median(b.op_ms) for b in batches), "ms"),
        "op_ptail_ms": (statistics.median(nearest_rank(b.op_ms, p)
                                          for b, (p, _) in zip(batches, tails)), "ms"),
        "cpu_s": (statistics.median(b.cpu_s for b in batches), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup[0], "s"),
    }
    info = {"batches": len(batches), "ops_per_batch": len(batches[0].op_ms),
            "op_ptail_percentile": tails[0][0], "op_ptail_samples_beyond": tails[0][1],
            "measured_wall_s": [b.raw_wall_s for b in batches],
            "speed_factor": [b.speed_factor for b in batches],
            "speed_samples": [b.speed_samples for b in batches],
            "measured_setup_s": setup[1], "setup_speed_factor": setup[2]}
    return metrics, info


def per_layer(tr, traced, untraced) -> dict:
    from vexp.audit import THEOREM_RUNNERS
    c = tr.counts
    m = {
        "fnexpr.calls": (tr.calls("fnexpr"), "count"),
        "fnexpr.node_evals": (c["fnexpr.node_evals"], "count"),
        "fnexpr.points": (c["fnexpr.points"], "count"),
        "fnexpr.self_s": (tr.self_s("fnexpr"), "s"),
        "functions.outer_apply.calls": (tr.calls("functions.outer_apply"), "count"),
        "functions.outer_apply.elements": (c["functions.outer_apply.elements"], "count"),
        "functions.outer_apply.self_s": (tr.self_s("functions.outer_apply"), "s"),
        "quad.roots": (c["quad.roots"], "count"),
        "norms.modular_evals": (c["norms.modular_evals"], "count"),
        "norms.sampled_points": (c["norms.sampled_points"], "count"),
        "norms.sample_s": (tr.inclusive_s("norms.sample"), "s"),
        "norms.root_s": (tr.inclusive_s("norms.root"), "s"),
        "steklov.sup_norm.calls": (tr.calls("steklov.sup_norm"), "count"),
        "steklov.sup_norm.points": (c["steklov.sup_norm.points"], "count"),
        "steklov.sup_norm.self_s": (tr.self_s("steklov.sup_norm"), "s"),
        "steklov.exact.points": (c["steklov.exact.points"], "count"),
        "steklov.operator_builds": (c["steklov.operator_builds"], "count"),
        "smoothness.modulus.calls": (tr.calls("smoothness.modulus"), "count"),
        "smoothness.modulus_s": (tr.inclusive_s("smoothness.modulus"), "s"),
        "smoothness.khat.calls": (tr.calls("smoothness.khat"), "count"),
        "smoothness.khat_s": (tr.inclusive_s("smoothness.khat"), "s"),
        "bandlimited.vp_operator.calls": (tr.calls("bandlimited.vp_operator"), "count"),
        "bandlimited.u_nodes": (c["bandlimited.u_nodes"], "count"),
        "bandlimited.kernel_points": (c["bandlimited.kernel_points"], "count"),
        "bandlimited.conv_elements": (c["bandlimited.conv_elements"], "count"),
        "bandlimited.ahat_s": (tr.inclusive_s("bandlimited.ahat"), "s"),
        "bandlimited.tail_bound_max": (c["bandlimited.tail_bound_max"], "1"),
    }
    for theorem in THEOREM_RUNNERS:
        key = f"audit.family.{theorem}_s"
        m[key] = (c[key], "s")
    m["audit.rows"] = (c["audit.rows"], "count")
    for cache in ("norm", "omega", "ahat"):
        lookups = c[f"audit.cache.{cache}_lookups"]
        hits = c[f"audit.cache.{cache}_hits"]
        m[f"audit.cache.{cache}_hit_ratio"] = (hits / lookups if lookups else 0.0, "1")
        m[f"audit.cache.{cache}_lookups"] = (lookups, "count")
    m["report.write_s"] = (tr.inclusive_s("report.write"), "s")
    # back to back, so measured times compare better than speed-scaled ones
    m["trace.overhead_frac"] = (traced.raw_wall_s / untraced.raw_wall_s - 1.0, "1")
    m["audit.rows_changed"] = (traced.rows_changed, "count")
    m["answers_changed"] = (traced.changed, "count")
    return {k: (int(v) if u == "count" else float(v), u) for k, (v, u) in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite perfbench/reference/ from the current source")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "vexp", "__init__.py")):
        print(f"error: no vexp sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe()
        return 0
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import workloads
    if args.record_reference:
        workloads.record_reference(BENCH_DIR)
        return 0
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = workloads.make_workload(args.workload, BENCH_DIR, OUT_DIR)
    from vexp.corpus import default_corpus, default_exponents
    default_corpus()
    default_exponents()

    if args.trace:
        from tracer import Tracer, assert_untraced, install_vexp_probes
        assert_untraced()
        untraced = workload.run_batch(args.seed, 0)
        tr = Tracer()
        try:
            install_vexp_probes(tr)
            traced = workload.run_batch(args.seed, 0)
        finally:
            tr.uninstall()
        batches = [untraced, traced]
        metrics = per_layer(tr, traced, untraced)
        info = {"measured_wall_s": [untraced.raw_wall_s, traced.raw_wall_s],
                "speed_factor": [untraced.speed_factor, traced.speed_factor]}
    else:
        setup = measure_setup()
        batches = run_batches(workload, args.seed, args.seconds)
        metrics, info = end_to_end(batches, setup)

    attempted = sum(len(b.op_ms) for b in batches)
    failed = sum(b.failed for b in batches)
    info.update({
        "failed_ops_frac": failed / attempted,
        "answers_changed": max(b.changed for b in batches),
        "audit.rows_changed": max(b.rows_changed for b in batches),
        "audit.csv_sha256": batches[-1].csv_sha256,
        "failures": [n for b in batches for n in b.notes][:10],
    })
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(f"{'failed_ops_frac':40s} {failed / attempted:.6g} 1")
    print(json.dumps({"env": environment(args), "info": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
