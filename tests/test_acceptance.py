"""Acceptance suite: every criterion at its stated tolerance.

Each criterion prints one pass/fail line (visible with `pytest -s`).  The
checks drive the same library surface the audit CLI uses; criterion 11 runs
the CLI itself twice on the bundled configuration and pins its CSV hash.

Known red case: criterion 9 demands the first-order modulus of every corpus
member at step 1e-4 to lie below 1e-3 in the Luxemburg norm.  For the plain
indicator 1_[0,1], (I - T_d)f is two ramps of height 1 and width d, one at
each jump, so the modulus solves d/((p(0)+1) lam^p(0)) + d/((p(1)+1)
lam^p(1)) = 1: sqrt(2*delta/3) ~ 8.2e-3 in p2, and 0.0311 in p_bump, where
p(0) = 3 and p(1) = 2.5.  The 1e-3 threshold at delta = 1e-4 is not
attainable by any correct implementation; the case is asserted as stated and
fails honestly.
"""

import hashlib
import math
import subprocess
import sys

import numpy as np
import pytest

from vexp import constants as C
from vexp.audit import AuditCase, Context, run_case
from vexp.bandlimited import best_approx_surrogate, vp_operator
from vexp.corpus import corpus_member, default_corpus, default_exponents
from vexp.fnexpr import ExponentField, differentiate, parse
from vexp.functions import as_real_function
from vexp.norms import NormSpec, luxemburg_norm
from vexp.smoothness import ModulusRequest, modulus
from vexp.steklov import difference_power, iterated_steklov, sup_norm

from steklov_oracles import nested_steklov

CORPUS = default_corpus()
P2, P_BUMP, P_OSC = default_exponents()
GRID = np.linspace(-5.0, 5.0, 41)


@pytest.fixture(scope="module")
def ctx():
    return Context()


def report(criterion: int, ok: bool, detail: str):
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")


# -------------------------------------------------------------------------
# 1. constant-exponent norm oracles
# -------------------------------------------------------------------------

def test_criterion_01_norm_oracles():
    gauss = corpus_member("gauss").rf
    box = corpus_member("box").rf
    p1 = ExponentField.from_expr("1", name="p1")
    checks = [
        (luxemburg_norm(gauss, P2, window=12.0).value, (math.pi / 2.0) ** 0.25),
        (luxemburg_norm(gauss, p1, window=12.0).value, math.sqrt(math.pi)),
        (luxemburg_norm(box, P2, window=12.0).value, 1.0),
        (luxemburg_norm(box, p1, window=12.0).value, 1.0),
    ]
    errs = [abs(a - b) for a, b in checks]
    ok = all(e <= 1e-6 for e in errs)
    report(1, ok, f"max norm-oracle error {max(errs):.3g} (tol 1e-6)")
    assert ok


# -------------------------------------------------------------------------
# 2. Steklov exactness on polynomials
# -------------------------------------------------------------------------

def test_criterion_02_steklov_exactness():
    lin = as_real_function(parse("x"))
    worst_affine = 0.0
    for d in (0.1, 0.7, 2.0):
        t = iterated_steklov(lin, d, 1)
        worst_affine = max(worst_affine, float(np.max(np.abs(t(GRID) - (GRID + d / 2.0)))))
    worst_annih = 0.0
    for src, r in (("1", 1), ("x", 2), ("2*x - 1", 2), ("x^2", 3)):
        h = difference_power(as_real_function(parse(src)), 0.6, r)
        worst_annih = max(worst_annih, float(np.max(np.abs(h(GRID)))))
    ok = worst_affine <= 1e-12 and worst_annih <= 1e-10
    report(2, ok, f"affine error {worst_affine:.2g} (tol 1e-12), "
                  f"annihilation {worst_annih:.2g} (tol 1e-10)")
    assert worst_affine <= 1e-12
    assert worst_annih <= 1e-10


# -------------------------------------------------------------------------
# 3. kernel vs nested averaging, k <= 8
# -------------------------------------------------------------------------

def test_criterion_03_kernel_nested_equivalence():
    worst = 0.0
    delta = 0.5
    for m in CORPUS:
        pts = np.linspace(-3.0, 3.0, 31)
        for k in range(1, 9):
            kern = iterated_steklov(m.rf, delta, k)
            if k == 1:
                other = nested_steklov(m.rf, delta, 1)
            else:
                # one literal averaging applied to the (k-1)-iterate: by
                # induction over k this reproduces full nesting
                other = nested_steklov(iterated_steklov(m.rf, delta, k - 1),
                                       delta, 1)
            worst = max(worst, float(np.max(np.abs(kern(pts) - other(pts)))))
    # literal full nesting spot checks on smooth members
    for name in ("gauss", "cos_gauss"):
        f = corpus_member(name).rf
        pts = np.array([-1.1, 0.0, 0.7])
        for k in (3, 4):
            worst = max(worst, float(np.max(np.abs(
                iterated_steklov(f, delta, k)(pts)
                - nested_steklov(f, delta, k)(pts)))))
    ok = worst <= 1e-8
    report(3, ok, f"kernel/nested max deviation {worst:.2g} (tol 1e-8)")
    assert ok


# -------------------------------------------------------------------------
# 4. uniform boundedness of the averages
# -------------------------------------------------------------------------

def test_criterion_04_steklov_boundedness(ctx):
    rows = []
    for m in CORPUS:
        for p in (P2, P_BUMP, P_OSC):
            rows += run_case(ctx, AuditCase(
                theorem="steklov_bound", f_src=f"@{m.name}", p_src=f"@{p.name}",
                deltas=(0.1, 0.5, 1.0, 2.0)))
    n_fail = sum(1 for r in rows if not r.passed)
    plain = [r.truncation_bounds["plain_ratio"] for r in rows
             if ";p=p2;" in r.case_id]
    worst_plain = max(plain)
    ok = n_fail == 0 and worst_plain <= 1.0
    report(4, ok, f"{len(rows)} bound rows, {n_fail} failures; worst "
                  f"constant-exponent ratio {worst_plain:.6f} (must be <= 1)")
    assert n_fail == 0
    assert worst_plain <= 1.0


# -------------------------------------------------------------------------
# 5. K-functional / modulus equivalence
# -------------------------------------------------------------------------

def test_criterion_05_kfunc_equivalence(ctx):
    rows = []
    for m in CORPUS:
        for p in (P2, P_BUMP, P_OSC):
            for r in (1, 2):
                rows += run_case(ctx, AuditCase(
                    theorem="kfunc_equiv_vexp", f_src=f"@{m.name}",
                    p_src=f"@{p.name}", r=r, deltas=(0.1, 0.5, 1.0)))
    sup_rows = []
    for m in CORPUS:
        for r in (1, 2):
            sup_rows += run_case(ctx, AuditCase(
                theorem="kfunc_equiv_sup", f_src=f"@{m.name}", r=r,
                deltas=(0.1, 0.5, 1.0)))
    n_fail = sum(1 for r in rows + sup_rows if not r.passed)
    ok = n_fail == 0
    report(5, ok, f"{len(rows)} Luxemburg rows + {len(sup_rows)} sup rows, "
                  f"{n_fail} failures")
    assert ok


# -------------------------------------------------------------------------
# 6. direct (Jackson) estimate, with bandlimited reproduction
# -------------------------------------------------------------------------

def test_criterion_06_jackson(ctx):
    rows = []
    for name in ("gauss", "gauss_osc", "box", "box_smooth", "x2gauss",
                 "lorentz2"):
        for p in (P2, P_BUMP):
            for r in (1, 2):
                rows += run_case(ctx, AuditCase(
                    theorem="jackson_vexp", f_src=f"@{name}", p_src=f"@{p.name}",
                    r=r, sigmas=(2.0, 4.0, 8.0, 16.0)))
    n_fail = sum(1 for r in rows if not r.passed)

    # reproduction: the operator is exact on types <= sigma, so the audited
    # left side collapses for sinc inputs
    repro = []
    for name, a, sigmas in (("sinc1", 1.0, (2.0, 4.0, 8.0, 16.0)),
                            ("sinc4", 4.0, (4.0, 8.0, 16.0))):
        for s in sigmas:
            assert s >= a
            case_rows = run_case(ctx, AuditCase(
                theorem="jackson_vexp", f_src=f"@{name}", p_src="@p2", r=1,
                sigmas=(s,), lhs_window=20.0, vp_tail=1e-5))
            repro.append(case_rows[0].lhs)
    worst_repro = max(repro)
    ok = n_fail == 0 and worst_repro <= 1e-6
    report(6, ok, f"{len(rows)} Jackson rows, {n_fail} failures; worst "
                  f"bandlimited reproduction {worst_repro:.2g} (tol 1e-6)")
    assert n_fail == 0
    assert worst_repro <= 1e-6


# -------------------------------------------------------------------------
# 7. inverse and Marchaud estimates
# -------------------------------------------------------------------------

def test_criterion_07_inverse_and_marchaud(ctx):
    inv_rows = []
    for name, p in (("gauss", "p2"), ("gauss", "p_bump"), ("box", "p2")):
        for r in (1, 2):
            inv_rows += run_case(ctx, AuditCase(
                theorem="inverse_vexp", f_src=f"@{name}", p_src=f"@{p}", r=r,
                deltas=(0.25, 0.5)))
    march_rows = []
    for name, p, r, k in (("gauss", "p2", 1, 1), ("box", "p2", 1, 2),
                          ("gauss_osc", "p_bump", 2, 1)):
        march_rows += run_case(ctx, AuditCase(
            theorem="marchaud_vexp", f_src=f"@{name}", p_src=f"@{p}", r=r, k=k,
            t_grid=(0.1, 0.25)))
    n_fail = sum(1 for r in inv_rows + march_rows if not r.passed)
    flags_ok = (all("A_sigma_surrogate" in r.surrogate_flags for r in inv_rows)
                and all(not r.surrogate_flags for r in march_rows))
    ok = n_fail == 0 and flags_ok
    report(7, ok, f"{len(inv_rows)} inverse rows (surrogate-flagged) + "
                  f"{len(march_rows)} Marchaud rows (surrogate-free), "
                  f"{n_fail} failures")
    assert n_fail == 0
    assert flags_ok


# -------------------------------------------------------------------------
# 8. de la Vallee Poussin operator properties
# -------------------------------------------------------------------------

def test_criterion_08_vp_properties():
    # norm bound in the sup norm on every member
    worst_excess = -math.inf
    for m in CORPUS:
        nf = sup_norm(m.rf, m.sup_window)
        for s in (2.0, 8.0):
            j = vp_operator(m.rf, s, x_span=m.sup_window, tail_target=1e-5)
            worst_excess = max(worst_excess,
                               sup_norm(j, m.sup_window) - 1.5 * nf)
    bound_ok = worst_excess <= 1e-8

    # derivative commutation on the smooth members
    worst_comm = 0.0
    xs = np.linspace(-5, 5, 101)
    h = 1e-3
    for m in CORPUS:
        if not m.smooth:
            continue
        jf = vp_operator(m.rf, 4.0, x_span=8.0, tail_target=1e-5)
        jf1 = vp_operator(as_real_function(differentiate(m.expr)), 4.0,
                          x_span=8.0, tail_target=1e-5)
        stencil = (-jf(xs + 2 * h) + 8 * jf(xs + h) - 8 * jf(xs - h)
                   + jf(xs - 2 * h)) / (12 * h)
        worst_comm = max(worst_comm, float(np.max(np.abs(stencil - jf1(xs)))))
    comm_ok = worst_comm <= 1e-6

    # monotone vanishing of the Luxemburg-norm surrogate
    mono_ok = True
    vanish_ok = True
    for m in CORPUS:
        win = min(m.norm_window, 40.0)
        seq = [best_approx_surrogate(
                   m.rf, s, NormSpec.vexp(P2, window=win,
                                          panels_per_unit=m.panels_per_unit),
                   tail_target=1e-5).value
               for s in (2.0, 4.0, 8.0, 16.0, 32.0)]
        mono_ok &= all(b <= a * (1 + 1e-6) + 1e-7 for a, b in zip(seq, seq[1:]))
        if seq[0] > 1e-9:
            vanish_ok &= seq[-1] < 0.5 * seq[0]
    ok = bound_ok and comm_ok and mono_ok and vanish_ok
    report(8, ok, f"norm-bound excess {worst_excess:.2g} (tol 1e-8), "
                  f"commutation {worst_comm:.2g} (tol 1e-6), "
                  f"surrogate monotone={mono_ok}, vanishing={vanish_ok}")
    assert bound_ok and comm_ok and mono_ok and vanish_ok


# -------------------------------------------------------------------------
# 9. vanishing modulus (known red case: the plain indicator)
# -------------------------------------------------------------------------

@pytest.mark.parametrize("member", [m.name for m in CORPUS])
def test_criterion_09_vanishing_modulus(member):
    m = corpus_member(member)
    deltas = (1e-1, 1e-2, 1e-3, 1e-4)
    worst_final = 0.0
    mono_ok = True
    for p in (P2, P_BUMP, P_OSC):
        norm = NormSpec.vexp(p, window=m.norm_window,
                             panels_per_unit=m.panels_per_unit)
        seq = [modulus(ModulusRequest(m.rf, 1, d, norm)) for d in deltas]
        mono_ok &= all(b <= a * (1 + 1e-6) + 1e-12 for a, b in zip(seq, seq[1:]))
        worst_final = max(worst_final, seq[-1])
    ok = mono_ok and worst_final < 1e-3
    report(9, ok, f"{member}: final modulus {worst_final:.3g} "
                  f"(tol 1e-3), non-increasing={mono_ok}")
    assert mono_ok
    # the indicator's modulus is 0.0311 here (p_bump; 8.2e-3 in p2), so
    # this assertion fails for the box member; asserted as stated
    assert worst_final < 1e-3


# -------------------------------------------------------------------------
# 10. constant table
# -------------------------------------------------------------------------

def test_criterion_10_constants():
    exact = (C.c8_k(1) == 36.0 and C.c8_k(2) == 4640.0
             and C.c7(0.0) == 2.0 and C.c5(1.0, 0.0) == 192.0)
    mono = True
    grid = (0.0, 0.2, 0.5, 1.0)
    tables = [{n: v for n, v, _ in C.constant_table(2, 1, 2.5, c).entries}
              for c in grid]
    for name in tables[0]:
        vals = [t[name] for t in tables]
        if name != "c4":
            mono &= all(b >= a for a, b in zip(vals, vals[1:]))
        else:  # c4 = exp(-4 m c3) decreases by construction
            mono &= all(b <= a for a, b in zip(vals, vals[1:]))
    ok = exact and mono
    report(10, ok, f"exact values {'ok' if exact else 'WRONG'}, per-entry "
                   f"monotone in c3 {'ok' if mono else 'WRONG'}")
    assert exact and mono


# -------------------------------------------------------------------------
# 11. determinism of the bundled audit
# -------------------------------------------------------------------------

# The bundled audit.csv: a change to it must be deliberate, and every row it
# changes listed, so the hash is pinned here.
BUNDLED_CSV_SHA256 = ("6dcd3f7c4783523ba65568dbf21bdfe67a21bc3b"
                      "72dfec7583f5a252e460b694")


def test_criterion_11_determinism(tmp_path):
    outs = []
    codes = []
    for sub in ("run1", "run2"):
        proc = subprocess.run(
            [sys.executable, "-m", "vexp.cli", "audit",
             "--out", str(tmp_path / sub)],
            capture_output=True, text=True, timeout=1200)
        codes.append(proc.returncode)
        outs.append((tmp_path / sub / "audit.csv").read_bytes())
    identical = outs[0] == outs[1]
    digest = hashlib.sha256(outs[0]).hexdigest()
    ok = identical and codes == [0, 0] and digest == BUNDLED_CSV_SHA256
    report(11, ok, f"two bundled runs: exit codes {codes}, byte-identical "
                   f"CSV={identical} ({len(outs[0])} bytes, sha256 "
                   f"{digest[:8]}...)")
    assert codes == [0, 0]
    assert identical
    assert digest == BUNDLED_CSV_SHA256
