import json
import math
import tomllib
from dataclasses import replace

import numpy as np
import pytest

from vexp import audit
from vexp.audit import (AuditCase, Context, THEOREM_RUNNERS, _case_from_dict,
                        _clenshaw_curtis, report_csv, run_case, run_suite)
from vexp.config import parse_config
from vexp.corpus import corpus_member
from vexp.defaults import default_config_text
from vexp.fnexpr import ExponentRangeError
from vexp.report import make_row
from vexp.steklov import steklov_combination, sup_norm

# Where surrogate quantities may appear for the row to remain a valid
# implication of the audited statement.  "rhs" means the surrogate only
# enlarges the right-hand side (valid); "lhs_one_sided" marks rows whose
# left side uses a surrogate or grid supremum, which must carry "one_sided".
SURROGATE_POLICY: dict[str, dict[str, str]] = {
    "jackson_sup": {"A_sigma_surrogate": "lhs_one_sided"},
    "jackson_vexp": {},  # the audited chain bounds the operator error itself
    "inverse_vexp": {"A_sigma_surrogate": "rhs"},
    "inverse_sup": {"A_sigma_surrogate": "rhs"},
    "series_deriv_sup": {"A_sigma_surrogate": "rhs"},
    "series_deriv_modulus_sup": {"A_sigma_surrogate": "rhs"},
    "series_inverse_vexp": {"A_sigma_surrogate": "rhs"},
    "kfunc_equiv_vexp_upper": {"K_surrogate": "rhs"},
    "kfunc_equiv_vexp_lower": {"K_surrogate": "rhs"},
    "kfunc_equiv_sup_upper": {"K_surrogate": "rhs"},
    "kfunc_equiv_sup_lower": {"K_surrogate": "rhs"},
    "shift_modulus_sup_lower": {"h_grid_sup": "lhs_one_sided"},
    "shift_modulus_sup_upper": {"h_grid_sup": "rhs"},
}

# the inputs each theorem family declares it needs
REQUIRED = {
    "steklov_bound": ("deltas", "p_src"),
    "holder": ("g_src", "p_src"),
    "kfunc_equiv_vexp": ("deltas", "p_src"),
    "kfunc_equiv_sup": ("deltas",),
    "jackson_vexp": ("sigmas", "p_src"),
    "inverse_vexp": ("deltas", "p_src"),
    "marchaud_vexp": ("t_grid", "p_src"),
    "one_step_vexp": ("deltas", "p_src"),
    "scaling_vexp": ("deltas", "lambdas", "p_src"),
    "smooth_bound_vexp": ("deltas", "p_src"),
    "modulus_props": ("deltas", "g_src"),
    "vp_norm_bound": ("sigmas",),
    "sup_steklov": ("deltas",),
    "sup_suite": ("deltas",),
    "jackson_sup": ("sigmas",),
    "inverse_sup": ("deltas",),
    "marchaud_sup": ("t_grid",),
    "series_deriv_modulus_sup": ("sigmas",),
    "series_inverse_vexp": ("sigmas", "p_src"),
}

SMALL_CONFIG = """
# minimal suite
[[case]]
theorem = "steklov_bound"
f = "@gauss"
p = "@p2"
deltas = [0.5, 1.0]

[[case]]
theorem = "holder"
f = "@box"
g = "@box"
p = "@p_bump"

[[case]]
theorem = "kfunc_equiv_sup"
f = "@gauss"
r = 1
deltas = [0.5]

[[case]]
theorem = "sup_suite"
f = "@box"
r = 1
deltas = [0.3, 0.6]
"""

# a valid case, placed ahead of each bad one below
GOOD_CASE = ('[[case]]\ntheorem = "steklov_bound"\nf = "@gauss"\n'
             'p = "@p2"\ndeltas = [0.5]\n')

# one case per precondition a family states, each with the reason it fails
UNMET_PRECONDITIONS = {
    "inverse_delta": ('theorem = "inverse_vexp"\nf = "@sinc1"\np = "@p2"\n'
                      'deltas = [0.5, 1.5]', r"delta in \(0, 1\)"),
    "inverse_sup_delta": ('theorem = "inverse_sup"\nf = "@gauss"\n'
                          'deltas = [0.5, 1.0]', r"delta in \(0, 1\)"),
    "scaling_delta": ('theorem = "scaling_vexp"\nf = "@gauss"\np = "@p2"\n'
                      'deltas = [1.5]\nlambdas = [0.5]', r"delta in \(0, 1\)"),
    "scaling_lambda": ('theorem = "scaling_vexp"\nf = "@gauss"\np = "@p2"\n'
                       'deltas = [0.5]\nlambdas = [0.5, 1.0]', r"lam in \(0, 1\)"),
    "marchaud_t": ('theorem = "marchaud_vexp"\nf = "@gauss"\np = "@p2"\n'
                   't_grid = [0.25, 0.5]', r"t in \(0, 1/2\)"),
    "marchaud_sup_t": ('theorem = "marchaud_sup"\nf = "@gauss"\n'
                       't_grid = [0.75]', r"t in \(0, 1/2\]"),
    "series_k_above_r": ('theorem = "series_deriv_sup"\nf = "@gauss"\n'
                         'r = 1\nk = 2', "k <= r"),
    "series_cutoff": ('theorem = "series_inverse_vexp"\nf = "@gauss"\n'
                      'p = "@p2"\nsigmas = [2.0]\nseries_n = 4', "cutoff of at least 8"),
    "vp_variable_exponent": ('theorem = "vp_norm_bound"\nf = "@gauss"\n'
                             'p = "@p_bump"\nsigmas = [2.0]', "constant exponent"),
    "holder_p_minus_one": ('theorem = "holder"\nf = "@gauss"\ng = "@gauss"\n'
                           'p = "1"', "p_minus > 1"),
    "smooth_bound_rough": ('theorem = "smooth_bound_vexp"\nf = "@box"\n'
                           'p = "@p2"\ndeltas = [0.5]', "symbolic derivative"),
    "series_rough": ('theorem = "series_deriv_modulus_sup"\nf = "@box"\n'
                     'sigmas = [2.0]', "symbolic derivative"),
    "one_step_single_delta": ('theorem = "one_step_vexp"\nf = "@gauss"\n'
                              'p = "@p2"\ndeltas = [0.5]', "at least two steps"),
    "props_one_delta": ('theorem = "modulus_props"\nf = "@gauss"\n'
                        'g = "@gauss"\ndeltas = [0.6]', "exactly two steps"),
    "props_three_deltas": ('theorem = "modulus_props"\nf = "@gauss"\n'
                           'g = "@gauss"\ndeltas = [0.2, 0.4, 0.6]', "exactly two steps"),
}


@pytest.fixture
def no_case_runs(monkeypatch):
    """Make run_suite fail if it runs any case."""
    def refuse(ctx, case):
        raise AssertionError("a case ran before the configuration was checked")
    monkeypatch.setattr("vexp.audit.run_case", refuse)


class TestConfig:
    def test_nested_tables(self):
        cfg = parse_config(SMALL_CONFIG)
        assert len(cfg["case"]) == 4
        assert cfg["case"][0]["deltas"] == [0.5, 1.0]

    def test_defaults_table(self):
        cfg = parse_config("[defaults]\nr = 2\n[[case]]\ntheorem = \"x\"\n")
        assert cfg["defaults"]["r"] == 2

    def test_error_has_position(self):
        with pytest.raises(tomllib.TOMLDecodeError) as err:
            parse_config("[[case]]\ntheorem == oops\n")
        assert "line 2" in str(err.value)

    def test_unterminated_array(self):
        with pytest.raises(tomllib.TOMLDecodeError):
            parse_config("a = [1, 2\n")

    def test_strings_and_bools(self):
        cfg = parse_config('s = "a, b"\nt = true\nn = 1.5e-3\n')
        assert cfg == {"s": "a, b", "t": True, "n": 1.5e-3}


class TestSuite:
    def test_empty_case_list(self, tmp_path):
        report, code = run_suite("# nothing here\n", out_dir=str(tmp_path))
        assert code == 0
        assert report.rows == []
        csv = (tmp_path / "audit.csv").read_text()
        assert csv == "theorem_id,case_id,lhs,rhs,constant,ratio,pass,flags\n"

    def test_bad_exponent_rejected_before_running(self):
        text = """
[[case]]
theorem = "steklov_bound"
f = "@gauss"
p = "0.5 + 1/(1+x^2)"
deltas = [0.5]
"""
        with pytest.raises(ExponentRangeError):
            run_suite(text)

    def test_unknown_theorem_rejected(self):
        with pytest.raises(ValueError):
            run_suite('[[case]]\ntheorem = "nope"\nf = "@gauss"\n')

    def test_small_suite_passes_and_is_deterministic(self, tmp_path):
        r1, code1 = run_suite(SMALL_CONFIG, out_dir=str(tmp_path / "a"))
        r2, code2 = run_suite(SMALL_CONFIG, out_dir=str(tmp_path / "b"), jobs=3)
        assert code1 == code2 == 0
        csv_a = (tmp_path / "a" / "audit.csv").read_bytes()
        csv_b = (tmp_path / "b" / "audit.csv").read_bytes()
        assert csv_a == csv_b
        assert r1.n_fail == 0

    def test_rows_sorted(self):
        report, _ = run_suite(SMALL_CONFIG)
        keys = [(r.theorem_id, r.case_id) for r in report.rows]
        assert keys == sorted(keys)

    def test_csv_format(self):
        report, _ = run_suite(SMALL_CONFIG)
        lines = report_csv(report).strip().splitlines()
        assert lines[0] == "theorem_id,case_id,lhs,rhs,constant,ratio,pass,flags"
        for line in lines[1:]:
            parts = line.split(",")
            assert len(parts) == 8
            assert parts[6] in ("true", "false", "inconclusive")

    def test_json_mirror_contains_truncation(self, tmp_path):
        run_suite(SMALL_CONFIG, out_dir=str(tmp_path))
        payload = json.loads((tmp_path / "audit.json").read_text())
        assert payload["summary"]["fail"] == 0
        assert all("truncation_bounds" in row for row in payload["rows"])

    def test_exit_code_on_failure(self):
        # a fabricated failing row: lhs > rhs
        row = make_row("t", "c", lhs=2.0, rhs=1.0, constant_used=1.0)
        assert row.passed is False
        assert row.ratio == 2.0

    def test_reports_do_not_depend_on_case_order(self, tmp_path):
        # kfunc_equiv_vexp takes Omega_1(box_smooth, 0.5) in p2 off K-hat's
        # stack, one ulp below `modulus`, and keeps it out of the shared
        # cache that one_step_vexp reads; in the cache, the one_step row
        # would change with the order of the two cases
        kfunc = ('[[case]]\ntheorem = "kfunc_equiv_vexp"\nf = "@box_smooth"\n'
                 'p = "@p2"\nr = 1\ndeltas = [0.5]\n')
        one_step = ('[[case]]\ntheorem = "one_step_vexp"\nf = "@box_smooth"\n'
                    'p = "@p2"\ndeltas = [0.1, 0.5]\n')
        outs = []
        for sub, text in (("a", kfunc + one_step), ("b", one_step + kfunc)):
            run_suite(text, out_dir=str(tmp_path / sub))
            outs.append([(tmp_path / sub / name).read_bytes()
                         for name in ("audit.csv", "audit.json")])
        assert outs[0] == outs[1]


class TestSurrogatePolicy:
    def test_every_flagged_theorem_has_policy(self):
        ctx = Context()
        rows = []
        rows += run_case(ctx, AuditCase(theorem="jackson_sup", f_src="@gauss",
                                        r=1, sigmas=(2.0,)))
        rows += run_case(ctx, AuditCase(theorem="inverse_sup", f_src="@gauss",
                                        r=1, deltas=(0.25,)))
        rows += run_case(ctx, AuditCase(theorem="kfunc_equiv_sup",
                                        f_src="@gauss", r=1, deltas=(0.5,)))
        rows += run_case(ctx, AuditCase(theorem="sup_suite", f_src="@gauss",
                                        r=1, deltas=(0.3, 0.6)))
        for row in rows:
            flags = set(row.surrogate_flags)
            named = {f for f in flags
                     if f in ("A_sigma_surrogate", "K_surrogate", "h_grid_sup")}
            if not named:
                continue
            policy = SURROGATE_POLICY.get(row.theorem_id)
            assert policy is not None, row.theorem_id
            for f in named:
                side = policy[f]
                if side == "lhs_one_sided":
                    assert "one_sided" in flags, row.theorem_id
                else:
                    assert side == "rhs"
                    assert "one_sided" not in flags, row.theorem_id

    def test_series_rows_carry_cutoff_flag(self):
        ctx = Context()
        rows = run_case(ctx, AuditCase(theorem="series_deriv_sup",
                                       f_src="@gauss", r=2, k=1, series_n=12))
        assert any(f.startswith("truncated_series(") for f in
                   rows[0].surrogate_flags)

    def test_series_cutoff_minimum_enforced(self):
        ctx = Context()
        with pytest.raises(ValueError):
            run_case(ctx, AuditCase(theorem="series_deriv_sup",
                                    f_src="@gauss", r=2, k=1, series_n=4))


class TestTrivialCases:
    def test_inverse_of_zero_function(self):
        ctx = Context()
        rows = run_case(ctx, AuditCase(theorem="inverse_vexp", f_src="0",
                                       p_src="@p2", r=1, deltas=(0.25,)))
        assert rows[0].passed and rows[0].lhs == 0.0 and rows[0].ratio == 0.0

    def test_marchaud_of_constant(self):
        # constants are fixed points of the averages: both sides vanish
        ctx = Context()
        rows = run_case(ctx, AuditCase(theorem="marchaud_vexp", f_src="3",
                                       p_src="@p2", r=1, k=1, t_grid=(0.25,)))
        assert rows[0].passed
        assert rows[0].lhs <= 1e-12

    def test_series_collapses_for_bandlimited_input(self):
        # the surrogate vanishes once the operator reproduces the input, so
        # only finitely many terms contribute
        ctx = Context()
        rows = run_case(ctx, AuditCase(theorem="series_deriv_sup",
                                       f_src="@sinc1", r=1, k=1, series_n=8,
                                       vp_tail=1e-4))
        row = rows[0]
        assert row.passed is True
        assert row.truncation_bounds["tail_estimate"] <= 1e-3

    def test_vp_rows_contract_for_constant_exponent(self):
        ctx = Context()
        rows = run_case(ctx, AuditCase(theorem="vp_norm_bound", f_src="@gauss",
                                       p_src="@p2", sigmas=(2.0, 8.0)))
        assert all(r.passed and r.ratio <= 1.0 for r in rows)

    def test_derivatives_built_once_per_member_and_order(self, monkeypatch):
        # sup_steklov reads f' and f'' at every step, smooth_bound_vexp reads
        # f'; each derivative is built once (7 builds when each row rebuilt)
        import vexp.audit as audit
        calls = []
        build = audit.as_real_function
        monkeypatch.setattr(audit, "as_real_function",
                            lambda e: calls.append(e.src) or build(e))
        ctx = Context()
        for case in (AuditCase(theorem="sup_steklov", f_src="@gauss",
                               deltas=(0.3, 0.6, 0.9)),
                     AuditCase(theorem="smooth_bound_vexp", f_src="@gauss",
                               p_src="@p2", deltas=(0.5,))):
            run_case(ctx, case)
        assert len(calls) == 2


class TestRowWiring:
    """Recompute both sides of representative rows from library primitives."""

    def test_steklov_bound_row(self):
        import vexp.constants as C
        from vexp.norms import luxemburg_norm
        from vexp.steklov import iterated_steklov
        ctx = Context()
        row = run_case(ctx, AuditCase(theorem="steklov_bound", f_src="@gauss",
                                      p_src="@p_bump", deltas=(0.5,)))[0]
        m = ctx.member("@gauss")
        p = ctx.exponent("@p_bump")
        nf = luxemburg_norm(m.rf, p, window=m.norm_window).value
        tf = luxemburg_norm(iterated_steklov(m.rf, 0.5, 1), p,
                            window=m.norm_window).value
        assert row.lhs == pytest.approx(tf, rel=1e-12)
        assert row.rhs == pytest.approx(C.c10(p.p_plus, p.c3) * nf, rel=1e-12)

    def test_jackson_row(self):
        import vexp.constants as C
        from vexp.norms import NormSpec
        from vexp.smoothness import ModulusRequest, modulus
        ctx = Context()
        row = run_case(ctx, AuditCase(theorem="jackson_vexp", f_src="@gauss",
                                      p_src="@p2", r=2, sigmas=(4.0,)))[0]
        m = ctx.member("@gauss")
        p = ctx.exponent("@p2")
        norm = NormSpec.vexp(p, window=m.norm_window,
                             panels_per_unit=m.panels_per_unit)
        om = modulus(ModulusRequest(m.rf, 2, 1.0 / 8.0, norm))
        assert row.rhs == pytest.approx(C.c11(2, p.p_plus, p.c3) * om, rel=1e-12)
        assert row.lhs == pytest.approx(
            ctx.ahat(m, norm, 8.0), rel=1e-12)  # ||f - J(f, 4)||


class TestCaseValidation:
    def test_grids_sorted_positive(self):
        with pytest.raises(ValueError):
            AuditCase(theorem="steklov_bound", f_src="@gauss",
                      deltas=(1.0, 0.5))
        with pytest.raises(ValueError):
            AuditCase(theorem="steklov_bound", f_src="@gauss",
                      deltas=(-1.0, 0.5))

    def test_missing_requirements_reported(self):
        # one loop rather than a parametrization keeps this test's id; each
        # family must name every input it needs, before any work is done
        assert set(REQUIRED) | {"series_deriv_sup"} == set(THEOREM_RUNNERS)
        for name in THEOREM_RUNNERS:
            if name.endswith("_vexp"):
                assert "p_src" in REQUIRED[name], name
        ctx = Context()
        full = AuditCase(theorem="steklov_bound", f_src="@gauss",
                         g_src="@gauss", p_src="@p2", deltas=(0.5,),
                         sigmas=(2.0,), t_grid=(0.25,), lambdas=(0.5,))
        for name, needs in REQUIRED.items():
            for attr in needs:
                case = replace(full, theorem=name,
                               **{attr: None if attr.endswith("_src") else ()})
                with pytest.raises(ValueError, match=attr):
                    run_case(ctx, case)

    def test_missing_input_rejected_before_any_case_runs(self, no_case_runs):
        no_deltas = '[[case]]\ntheorem = "steklov_bound"\nf = "@box"\np = "@p2"\n'
        with pytest.raises(ValueError, match="deltas"):
            run_suite(GOOD_CASE + no_deltas)

    @pytest.mark.parametrize("name", UNMET_PRECONDITIONS)
    def test_unmet_precondition_rejected_before_any_case_runs(self, no_case_runs,
                                                              name):
        case, reason = UNMET_PRECONDITIONS[name]
        with pytest.raises(ValueError, match=reason):
            run_suite(GOOD_CASE + "[[case]]\n" + case + "\n")

    def test_unknown_keys_rejected(self):
        case = ('[[case]]\ntheorem = "jackson_vexp"\nf = "@sinc4"\n'
                'p = "@p2"\nsigmas = [8.0]\n')
        with pytest.raises(ValueError, match="lhs_windw"):
            run_suite(case + "lhs_windw = 20\n")
        with pytest.raises(ValueError, match="jobs"):
            run_suite("[defaults]\njobs = 2\n" + case)

    def test_p_infinity_key_rejected(self):
        # p_infinity is read off the exponent's tree; no key sets it
        case = ('[[case]]\ntheorem = "steklov_bound"\nf = "@gauss"\n'
                'p = "2 + 1/(1+x^2)"\ndeltas = [0.5]\n')
        with pytest.raises(ValueError, match="does not read key 'p_infinity'"):
            run_suite(case + "p_infinity = 2.0\n")
        with pytest.raises(ValueError, match="unknown key 'p_infinity'"):
            run_suite("[defaults]\np_infinity = 2.0\n" + case)

    def test_keys_a_family_does_not_read_rejected(self):
        # jackson_sup takes A_hat on the sup window, so lhs_window changed
        # nothing; lambdas belong to scaling_vexp alone
        case = ('[[case]]\ntheorem = "jackson_sup"\nf = "@gauss"\n'
                'r = 1\nsigmas = [2.0]\n')
        for key in ("lhs_window = 1.0", "lambdas = [0.5]"):
            name = key.split()[0]
            with pytest.raises(ValueError, match=f"jackson_sup.*{name}"):
                run_suite(case + key + "\n")

    def test_repeated_rows_rejected(self):
        case = ('[[case]]\ntheorem = "holder"\nf = "@box"\ng = "@box"\n'
                'p = "@p2"\n')
        with pytest.raises(ValueError, match="produced twice"):
            run_suite(case + case)

    def test_defaults_apply_only_where_read(self):
        # the README example: steklov_bound reads no r, the default skips it
        text = ('[defaults]\nr = 1\n\n[[case]]\ntheorem = "steklov_bound"\n'
                'f = "@gauss"\np = "@p_bump"\ndeltas = [0.5]\n')
        report, code = run_suite(text)
        assert code == 0 and len(report.rows) == 1

    def test_all_runners_registered(self):
        assert set(SURROGATE_POLICY) <= set(THEOREM_RUNNERS) | {
            "kfunc_equiv_vexp_upper", "kfunc_equiv_vexp_lower",
            "kfunc_equiv_sup_upper", "kfunc_equiv_sup_lower",
            "shift_modulus_sup_lower", "shift_modulus_sup_upper",
            "jackson_sup", "jackson_vexp"}


class TestMarchaudQuadrature:
    def test_clenshaw_curtis_rules_are_nested_and_exact(self):
        x17, w17 = _clenshaw_curtis(16)
        x9, w9 = _clenshaw_curtis(8)
        assert np.allclose(x17[::2], x9, rtol=0.0, atol=1e-16)
        assert x17[8] == 0.0 and x17[0] == 1.0 and x17[-1] == -1.0
        for n, x, w in ((16, x17, w17), (8, x9, w9)):
            for deg in range(n + 1):
                exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
                assert w @ x ** deg == pytest.approx(exact, abs=1e-14)

    def test_box_integral_matches_a_denser_rule_split_at_the_kinks(self):
        # u -> Omega_3(box, u) has kinks at u = 1/3 and 1/2, where shifts of
        # the jumps meet; the 8-panel Gauss rule in u straddled them and was
        # off by 1.7e-7
        ctx = Context()
        row = run_case(ctx, AuditCase(theorem="marchaud_vexp", f_src="@box",
                                      p_src="@p2", r=1, k=2, t_grid=(0.1,)))[0]
        m = ctx.member("@box")
        norm = m.norm_spec(ctx.exponent("@p2"))
        x, w = np.polynomial.legendre.leggauss(33)
        ref = 0.0
        for a, b in ((0.1, 1.0 / 3.0), (1.0 / 3.0, 0.5), (0.5, 1.0)):
            half, mid = 0.5 * math.log(b / a), 0.5 * math.log(a * b)
            u = np.exp(mid + half * x)
            ref += half * sum(wi * audit.modulus(audit.ModulusRequest(m.rf, 3, ui, norm)) / ui
                              for wi, ui in zip(w, u))
        assert row.truncation_bounds["u_integral"] == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("case", [
        AuditCase(theorem="marchaud_vexp", f_src="@gauss", p_src="@p2", r=1, k=1,
                  t_grid=(0.25,)),
        AuditCase(theorem="marchaud_sup", f_src="@gauss", r=1, k=1, t_grid=(0.25,)),
    ], ids=["vexp", "sup"])
    def test_both_families_record_the_refinement(self, case):
        row = run_case(Context(), case)[0]
        bounds = row.truncation_bounds
        assert 0.0 < bounds["u_quad_refinement"] <= 1e-8 * bounds["u_integral"]

    def test_bundled_marchaud_cases_take_at_most_210_moduli(self, monkeypatch):
        # 650 with 6-point Gauss on 4 and 8 panels (vexp) and on 6 (sup)
        calls = []
        build = audit.modulus
        monkeypatch.setattr(audit, "modulus", lambda req: calls.append(req) or build(req))
        cfg = parse_config(default_config_text())
        ctx = Context()
        for d in cfg["case"]:
            if d["theorem"].startswith("marchaud"):
                run_case(ctx, _case_from_dict(d, cfg.get("defaults", {})))
        assert len({(id(q.f), q.r, q.delta, q.norm) for q in calls}) == len(calls)
        assert len(calls) <= 210


class TestShiftModulus:
    def test_one_stack_per_step(self, monkeypatch):
        # one Steklov build per shift was 64 builds and 64 sup grids
        calls = []
        build = audit.steklov_combination
        monkeypatch.setattr(audit, "steklov_combination",
                            lambda *args: calls.append(args) or build(*args))
        m = corpus_member("gauss")
        audit._shift_modulus(m, 2, 0.3, m.sup_window)
        assert len(calls) == 1

    @pytest.mark.parametrize("name", ["gauss", "gauss_osc", "box", "box_smooth",
                                      "cos_gauss", "lorentz"])
    def test_matches_a_loop_over_the_shifts(self, name):
        m = corpus_member(name)
        for r in (1, 2):
            terms = {(0, j): float((-1) ** j) * math.comb(r, j) for j in range(r + 1)}
            for d in (0.3, 0.6):
                want = max(sup_norm(steklov_combination(m.rf, h, terms), m.sup_window,
                                    refine=False) for h in np.linspace(-d, d, 64))
                got = audit._shift_modulus(m, r, d, m.sup_window)
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)
