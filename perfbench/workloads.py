"""The benchmark's workloads: seeded op streams, timed calls and output checks.

Every workload is a closed loop: one caller in one process issues the next
op when the previous one returns.  A batch is a seeded permutation of a fixed
op set, so every seed does the same work in a different order and the timing
of one seed is comparable with another's.

An op fails when it raises, returns a non-finite value, yields an audit row
with pass=false, or fails one of the output checks below.  A difference from
the recorded reference answers is not a failure: it is counted separately
(`answers_changed`, `audit.rows_changed`) so that deliberate corrections show
up as a list instead of a rejection.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field, replace

from speed import SpeedMeter

REL_TOL = 1e-12  # reference answers must agree to this relative tolerance

MEMBERS = ("gauss", "gauss_osc", "sinc1", "sinc4", "box", "box_smooth",
           "xgauss", "cos_gauss", "gauss_wide", "x2gauss", "lorentz", "lorentz2")
QUERY_NORMS = ("sup", "p2", "p_bump", "p_osc")
QUERY_RS = (1, 2)
QUERY_DELTAS = (0.1, 0.5, 1.0)
BAND_NORMS = ("sup", "p2", "p_osc")
# Half of the sigma grid {2, 4, 8, 16}: the full grid takes about 60 s a pass,
# more than one run can spend; {2, 8} keeps every member and norm.
BAND_SIGMAS = (2.0, 8.0)
# the bundled suite's settings for the slowly decaying sinc members
SINC_LHS_WINDOW = 20.0
SINC_VP_TAIL = 1e-5
DEFAULT_VP_TAIL = 1e-8

# closed-form oracles: (member, norm) -> (exact value, absolute tolerance)
ORACLES = {
    ("gauss", "p2"): ((math.pi / 2.0) ** 0.25, 1e-8),
    ("box", "p2"): (1.0, 1e-8),
    ("gauss", "sup"): (1.0, 1e-12),
    ("box", "sup"): (1.0, 1e-12),
}


@dataclass
class Batch:
    """One batch's results; times are at the reference speed (speed.py)."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    op_ms: list = field(default_factory=list)
    raw_wall_s: float = 0.0
    speed_factor: float = 1.0
    speed_samples: int = 0
    failed: int = 0
    changed: int = 0
    rows_changed: int = 0
    notes: list = field(default_factory=list)
    csv_sha256: str | None = None

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.notes) < 10:
            self.notes.append(what)

    def scale(self, meter: SpeedMeter, wall_s: float, cpu_s: float,
              op_s: list[float]) -> None:
        f = meter.factor()
        self.speed_factor, self.speed_samples = f, len(meter.samples)
        self.raw_wall_s = wall_s
        self.wall_s, self.cpu_s = wall_s / f, cpu_s / f
        self.op_ms = [1e3 * t / f for t in op_s]


def permutation(items: list, seed: int, batch: int) -> list:
    """The batch's op order: a permutation fixed by (seed, batch)."""
    out = list(items)
    random.Random(seed * 1_000_003 + batch).shuffle(out)
    return out


def same_answer(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# Library-call workloads
# ---------------------------------------------------------------------------

def query_universe() -> list[tuple]:
    ops = []
    for m in MEMBERS:
        for n in QUERY_NORMS:
            ops.append((m, n, "norm", None, None))
            for kind in ("modulus", "khat"):
                for r in QUERY_RS:
                    for d in QUERY_DELTAS:
                        ops.append((m, n, kind, r, d))
    return ops


def band_universe() -> list[tuple]:
    return [(m, n, "ahat", None, s)
            for m in MEMBERS for n in BAND_NORMS for s in BAND_SIGMAS]


def op_id(op: tuple) -> str:
    m, n, kind, r, v = op
    if kind == "norm":
        return f"{m}|{n}|norm"
    if kind == "ahat":
        return f"{m}|{n}|ahat|sigma={v:g}"
    return f"{m}|{n}|{kind}|r={r}|d={v:g}"


def _norm_spec(m, norm: str):
    """The NormSpec the CLI builds for a bundled member."""
    from vexp.corpus import resolve_exponent
    from vexp.norms import NormSpec
    if norm == "sup":
        return NormSpec.sup(m.sup_window)
    return NormSpec.vexp(resolve_exponent("@" + norm), window=m.norm_window,
                         panels_per_unit=m.panels_per_unit)


def call_op(op: tuple):
    """One library call, resolved the way the CLI resolves its arguments."""
    from vexp.bandlimited import best_approx_surrogate
    from vexp.corpus import resolve_function
    from vexp.norms import luxemburg_norm, norm_of
    from vexp.quad import DEFAULT_SPEC
    from vexp.smoothness import ModulusRequest, k_functional_upper, modulus

    name, norm, kind, r, v = op
    m = resolve_function("@" + name)
    spec = _norm_spec(m, norm)
    if kind == "norm":
        if norm == "sup":
            return norm_of(m.rf, spec, DEFAULT_SPEC)
        return luxemburg_norm(m.rf, spec.p, DEFAULT_SPEC, window=spec.window,
                              panels_per_unit=spec.panels_per_unit)
    if kind == "modulus":
        return modulus(ModulusRequest(m.rf, r, v, spec), DEFAULT_SPEC)
    if kind == "khat":
        return k_functional_upper(m.rf, r, v, spec, DEFAULT_SPEC)
    if name in ("sinc1", "sinc4"):
        return best_approx_surrogate(m.rf, v, replace(spec, window=SINC_LHS_WINDOW),
                                     DEFAULT_SPEC, tail_target=SINC_VP_TAIL)
    return best_approx_surrogate(m.rf, v, spec, DEFAULT_SPEC,
                                 tail_target=DEFAULT_VP_TAIL)


def answer_value(result) -> float:
    return float(getattr(result, "value", result))


def check_op(op: tuple, result) -> str | None:
    """Why the result is wrong, or None."""
    name, norm, kind, r, v = op
    value = answer_value(result)
    if not math.isfinite(value):
        return "non-finite value"
    if kind == "norm" and norm != "sup":
        # bisection stops within bracket.tol of the root in the scale; the
        # modular's log-derivative there is at most p_plus, so it sits within
        # p_plus * tol / value of 1 (twice that leaves rounding room)
        from vexp.corpus import exponent_field
        p_plus = exponent_field(norm).p_plus
        allowed = 2.0 * p_plus * result.bracket_used.tol / value
        if abs(result.modular_at_value - 1.0) > allowed:
            return f"modular at the norm is {result.modular_at_value!r}, not 1"
    if kind == "khat":
        recomposed = result.f_minus_g_norm + v ** r * result.g_deriv_norm
        if not same_answer(value, recomposed):
            return "K_hat differs from ||f-g|| + d^r ||g^(r)||"
    if kind == "ahat":
        target = SINC_VP_TAIL if name in ("sinc1", "sinc4") else DEFAULT_VP_TAIL
        if not result.tail_bound <= target:
            return f"tail bound {result.tail_bound:.3g} above its target {target:g}"
    if kind == "norm" and (name, norm) in ORACLES:
        exact, tol = ORACLES[(name, norm)]
        if abs(value - exact) > tol:
            return f"norm {value!r} is off its closed form {exact!r}"
    return None


class QueryWorkload:
    """A stream of independent library calls over a fixed universe."""

    def __init__(self, name: str, universe: list[tuple], reference: dict):
        self.name = name
        self.universe = universe
        self.reference = reference

    def run_batch(self, seed: int, batch: int) -> Batch:
        out = Batch()
        clock, cpu = time.perf_counter, time.process_time
        meter = SpeedMeter()
        meter.sample()
        wall = cpu_s = 0.0
        op_s = []
        for op in permutation(self.universe, seed, batch):
            key = op_id(op)
            meter.tick()
            c0, t0 = cpu(), clock()
            try:
                result = call_op(op)
            except Exception as exc:  # a failed op is counted, the run goes on
                t1, c1 = clock(), cpu()
                result, why = None, f"raised {type(exc).__name__}: {exc}"
            else:
                t1, c1 = clock(), cpu()
                why = check_op(op, result)
            wall += t1 - t0
            cpu_s += c1 - c0
            op_s.append(t1 - t0)
            if why is not None:
                out.fail(f"{key}: {why}")
            if result is not None and not same_answer(answer_value(result),
                                                      self.reference[key]):
                out.changed += 1
        meter.sample()
        out.scale(meter, wall, cpu_s, op_s)
        return out

    def record(self) -> dict:
        return {op_id(op): answer_value(call_op(op)) for op in self.universe}


# ---------------------------------------------------------------------------
# The bundled audit
# ---------------------------------------------------------------------------

def shuffled_config(seed: int, batch: int) -> str:
    """The bundled configuration with its cases in a seeded order."""
    from vexp.defaults import default_config_text
    head, *cases = default_config_text().split("[[case]]")
    return head + "".join("[[case]]" + c for c in permutation(cases, seed, batch))


def _check_rows(case, rows) -> str | None:
    for row in rows:
        if not (math.isfinite(row.lhs) and math.isfinite(row.rhs)):
            return f"{row.theorem_id} {row.case_id}: non-finite side"
        if row.passed is False:
            return f"{row.theorem_id} {row.case_id}: pass=false"
        if row.theorem_id == "kfunc_equiv_vexp_upper":
            tb = row.truncation_bounds
            d = float(row.case_id.rsplit("delta=", 1)[1])
            if not same_answer(row.lhs, tb["f_minus_g"] + d ** case.r * tb["g_deriv"]):
                return f"{row.case_id}: K_hat differs from its parts"
    return None


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))[1:]


def rows_changed(csv_text: str, reference_csv: str) -> int:
    """Rows that differ from the reference beyond REL_TOL, plus unmatched rows."""
    def index(rows):
        seen: dict[tuple, list] = {}
        for row in rows:
            seen.setdefault((row[0], row[1]), []).append(row)
        return seen
    new, old = index(_csv_rows(csv_text)), index(_csv_rows(reference_csv))
    changed = 0
    for key in new.keys() | old.keys():
        a, b = new.get(key, []), old.get(key, [])
        changed += abs(len(a) - len(b))
        for ra, rb in zip(a, b):
            nums_same = all(same_answer(float(x), float(y))
                            for x, y in zip(ra[2:6], rb[2:6]))
            if not (nums_same and ra[6:] == rb[6:]):
                changed += 1
    return changed


class AuditWorkload:
    """`run_suite` on the bundled configuration, cases in a seeded order."""

    def __init__(self, out_dir: str, reference_csv: str):
        self.out_dir = out_dir
        self.reference_csv = reference_csv

    def run_batch(self, seed: int, batch: int) -> Batch:
        from vexp import audit
        out = Batch()
        text = shuffled_config(seed, batch)
        inner = audit.run_case
        clock = time.perf_counter
        meter = SpeedMeter()
        meter.sample()
        op_s = []

        def timed_case(ctx, case):
            meter.tick()  # between cases; its time is taken out of the suite's
            t0 = clock()
            try:
                rows = inner(ctx, case)
            except Exception as exc:  # count the case and keep the suite going
                op_s.append(clock() - t0)
                out.fail(f"{case.theorem} {case.f_src}: raised {exc!r}")
                return []
            op_s.append(clock() - t0)
            why = _check_rows(case, rows)
            if why is not None:
                out.fail(why)
            return rows

        audit.run_case = timed_case
        try:
            spent, spent_cpu = meter.spent_s, meter.spent_cpu_s
            c0, t0 = time.process_time(), clock()
            audit.run_suite(text, out_dir=self.out_dir, jobs=1)
            wall = clock() - t0 - (meter.spent_s - spent)
            cpu_s = time.process_time() - c0 - (meter.spent_cpu_s - spent_cpu)
        finally:
            audit.run_case = inner
        meter.sample()
        out.scale(meter, wall, cpu_s, op_s)
        with open(os.path.join(self.out_dir, "audit.csv")) as fh:
            csv_text = fh.read()
        out.csv_sha256 = hashlib.sha256(csv_text.encode()).hexdigest()
        out.rows_changed = rows_changed(csv_text, self.reference_csv)
        out.changed = out.rows_changed
        return out


# ---------------------------------------------------------------------------
# Registry and reference answers
# ---------------------------------------------------------------------------

WORKLOADS = ("audit_bundled", "operator_queries", "bandlimited_approx")


def reference_dir(bench_dir: str) -> str:
    return os.path.join(bench_dir, "reference")


def make_workload(name: str, bench_dir: str, out_dir: str):
    ref = reference_dir(bench_dir)
    if name == "audit_bundled":
        with open(os.path.join(ref, "audit.csv")) as fh:
            return AuditWorkload(out_dir, fh.read())
    with open(os.path.join(ref, "answers.json")) as fh:
        answers = json.load(fh)
    if name == "operator_queries":
        return QueryWorkload(name, query_universe(), answers[name])
    if name == "bandlimited_approx":
        return QueryWorkload(name, band_universe(), answers[name])
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def record_reference(bench_dir: str) -> None:
    """Write the reference answers of every workload at the current source."""
    from vexp.audit import report_csv, run_suite
    from vexp.defaults import default_config_text
    ref = reference_dir(bench_dir)
    os.makedirs(ref, exist_ok=True)
    report, _ = run_suite(default_config_text(), jobs=1)
    with open(os.path.join(ref, "audit.csv"), "w") as fh:
        fh.write(report_csv(report))
    answers = {w.name: w.record() for w in (
        QueryWorkload("operator_queries", query_universe(), {}),
        QueryWorkload("bandlimited_approx", band_universe(), {}))}
    with open(os.path.join(ref, "answers.json"), "w") as fh:
        json.dump(answers, fh, indent=1, sort_keys=True)
        fh.write("\n")
