import argparse
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vexp.cli import _spec, main
from vexp.corpus import corpus_member, default_corpus, exponent_field


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "vexp.cli", *args],
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


class TestConstantsCommand:
    def test_csv_output(self):
        code, out, _ = run_cli("constants", "--r", "2", "--k", "1",
                               "--pplus", "2", "--c3", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "name,value,formula"
        values = {l.split(",")[0]: float(l.split(",")[1]) for l in lines[1:]}
        assert values["c8_k"] == 4640.0
        assert values["c7"] == 2.0


class TestNormCommand:
    def test_gaussian_l2(self):
        code, out, _ = run_cli("norm", "--f", "exp(-x^2)", "--p", "2")
        assert code == 0
        assert float(out.strip()) == pytest.approx((math.pi / 2) ** 0.25,
                                                   abs=1e-6)

    def test_bundled_gaussian_l2_in_every_digit(self):
        code, out, _ = run_cli("norm", "--f", "@gauss", "--p", "2")
        assert code == 0
        assert out.strip() == f"{(math.pi / 2) ** 0.25:.12g}"

    def test_warns_on_variable_exponent(self):
        code, out, err = run_cli("norm", "--f", "exp(-x^2)", "--p", "2 + 1/(1+x^2)")
        assert code == 0
        assert "grid estimates" in err

    @pytest.mark.parametrize("src", ["2 + sin(x)^2", "2 + x/(1+abs(x))", "2 + exp(-x)"])
    def test_exponent_without_limit_exit_code(self, capsys, src):
        # these were accepted with p_infinity the mean of p(+-500)
        assert main(["norm", "--f", "exp(-x^2)", "--p", src]) == 2
        assert "has no limit at infinity" in capsys.readouterr().err

    def test_nan_exponent_exit_code(self):
        # printed 1.01266867491 with c_decay=nan; then numpy's "invalid
        # value" warning came before the refusal
        code, out, err = run_cli("norm", "--f", "exp(-x^2)", "--p", "2+sin(x)/x")
        assert code == 2 and out == ""
        assert err == "error: p(0) = nan is not >= 1\n"

    @pytest.mark.parametrize("src", ["1", "gauss(0)", "sinc(0)"])
    def test_constant_one_in_every_spelling(self, src):
        # sinc(0) read as power decay took window 200 and printed 20; then
        # all three printed sqrt(20), the norm of 1 on [-10, 10]
        code, out, err = run_cli("norm", "--f", src, "--p", "2")
        assert (code, out) == (2, "")
        assert err == ("error: |f| ~ c*|x|^0 with c != 0 as |x| -> oo: "
                       "its L^p(.) norm on R is infinite\n")

    @pytest.mark.parametrize("argv, g", [
        (["--f", "x", "--p", "2"], 1), (["--f", "x^2", "--p", "2"], 2),
        (["--f", "x", "--p", "@p_bump"], 1), (["--f", "x"], 1)])
    def test_growing_input_refused(self, capsys, argv, g):
        # these printed the norm on the default window: 25.8198889747, 200,
        # and 10 for the sup norm of x
        assert main(["norm", *argv]) == 2
        _, err = capsys.readouterr()
        assert f"|f| ~ c*|x|^{g} with c != 0" in err
        assert ("sup" if "--p" not in argv else "L^p(.)") + " norm on R is infinite" in err

    @pytest.mark.parametrize("argv, printed", [
        (["--f", "1"], "1"),  # a constant's sup norm is finite
        (["--f", "exp(-abs(x))", "--p", "2"], "0.999999998969"),
        # the tail walk cannot settle these: leading coefficient 0
        (["--f", "x*exp(-abs(x))", "--p", "2"], "0.707106620138")])
    def test_inputs_the_tail_walk_does_not_refuse(self, capsys, argv, printed):
        assert main(["norm", *argv]) == 0
        assert capsys.readouterr().out == printed + "\n"

    @pytest.mark.parametrize("window", ["0", "-5"])
    def test_nonpositive_window_exit_code(self, window):
        code, out, err = run_cli("norm", "--f", "@gauss", "--p", "2",
                                 "--window", window)
        assert code == 2
        assert out == ""
        assert "window must be positive" in err

    def test_parse_error_exit_code(self):
        code, _, err = run_cli("norm", "--f", "exp(-x^", "--p", "2")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("argv", [
        ["norm", "--f", "1e13*exp(-x^2)", "--p", "2"],
        ["modulus", "--f", "1e14*exp(-x^2)", "--p", "2", "--r", "1", "--delta", "1"],
    ])
    def test_input_outside_the_space_exit_code(self, capsys, argv):
        # the Luxemburg root lies above its cap of 1e12: this was a traceback
        assert main(argv) == 2
        assert "error: the modular stays above 1" in capsys.readouterr().err


class TestNonFiniteArguments:
    @pytest.mark.parametrize("argv, message", [
        # a ZeroDivisionError, two OverflowErrors and an errno 34 traceback
        ("approx --f @gauss --sigma inf", "sigma must be positive and finite"),
        ("norm --f @gauss --p 2 --window inf", "window must be positive and finite"),
        ("approx --f @gauss --sigma 2 --window inf", "window must be positive and finite"),
        ("constants --r 500", "Numerical result out of range"),
        # read as "f is not finite at x = -8", where f is finite
        ("modulus --f @gauss --r 1 --delta nan", "delta must be >= 0 and finite"),
        ("modulus --f @gauss --r 1 --delta inf", "delta must be >= 0 and finite"),
        # read as "cannot convert float NaN to integer"
        ("approx --f @gauss --sigma nan", "sigma must be positive and finite"),
        ("modulus --f @gauss --r 1 --delta 0.5 --window inf",
         "window must be positive and finite"),
        # nan and inf tables with exit code 0, and p+ < 1 or c3 < 0 accepted;
        # --k 0 named r
        ("constants --pplus nan", "p_plus must be >= 1 and finite"),
        ("constants --pplus 0.5", "p_plus must be >= 1 and finite"),
        ("constants --c3 inf", "c3 must be >= 0 and finite"),
        ("constants --c3 -1", "c3 must be >= 0 and finite"),
        ("constants --k 0", "k must be >= 1"),
        ("constants --r 0", "r must be >= 1"),
    ])
    def test_refused_with_exit_code_2(self, argv, message):
        code, out, err = run_cli(*argv.split())
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


class TestModulusCommand:
    @pytest.mark.parametrize("argv, g", [
        (["--f", "x", "--p", "2"], 1), (["--f", "x", "--p", "2", "--window", "40"], 1),
        (["--f", "1", "--p", "@p_bump"], 0), (["--f", "x^2", "--p", "2", "--r", "3"], 2)])
    def test_input_outside_every_lp_space_refused(self, capsys, argv, g):
        # x printed 2.2360679775, the L^2 norm of -1/2 on the default window,
        # and 4.472135955 on window 40; as vexp norm --p does, it refuses
        argv = [*argv, "--r", "1"] if "--r" not in argv else argv
        assert main(["modulus", *argv, "--delta", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"error: |f| ~ c*|x|^{g} with c != 0 as |x| -> oo: "
                            "its L^p(.) norm on R is infinite\n")

    def test_affine_sup(self):
        code, out, _ = run_cli("modulus", "--f", "x", "--r", "1",
                               "--delta", "0.2", "--window", "5")
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.1, abs=1e-10)

    def test_unlocatable_kink_refused(self):
        # the smooth lattice would average straight across the kinks
        code, out, err = run_cli("modulus", "--f", "abs(sin(x))", "--r", "1",
                                 "--delta", "0.1")
        assert code == 2
        assert out == ""
        assert "cannot locate the kinks of abs(sin(x))" in err

    def test_unbounded_frequency_refused(self):
        code, out, err = run_cli("modulus", "--f", "sin(x^2)", "--r", "1",
                                 "--delta", "0.1")
        assert code == 2
        assert out == ""
        assert "cannot bound the frequency of sin((x^2))" in err

    @pytest.mark.parametrize("src", ["exp(4*sin(20*x))", "1/(1.1+sin(20*x))",
                                     "sin(3*x)^-2"])
    def test_oscillating_exp_divisor_or_negative_power_refused(self, capsys, src):
        # these printed 42.25, 7.697 and inf
        assert main(["modulus", "--f", src, "--r", "1", "--delta", "1"]) == 2
        assert "cannot bound the frequency" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["modulus", "--f", "sin(x)/x", "--r", "1", "--delta", "0.1"],
        ["approx", "--f", "sin(x)/x", "--sigma", "2"],
        ["approx", "--f", "sin(x)/x", "--sigma", "2", "--p", "2"],
    ])
    def test_non_finite_samples_exit_code(self, argv):
        # sin(x)/x is 0/0 at x = 0: the first two printed nan with exit code
        # 0, the third a bare "math domain error"; then the two Â commands
        # named x = -20 and x = -199.998, where the NaN had spread through
        # the convolution, and numpy's "invalid value" warning came first
        code, out, err = run_cli(*argv)
        assert code == 2 and out == ""
        assert err == "error: f is not finite at x = 0\n"

    def test_vexp(self):
        code, out, _ = run_cli("modulus", "--f", "@gauss", "--p", "@p2",
                               "--r", "1", "--delta", "0.5")
        assert code == 0
        assert float(out.strip()) > 0.0


class TestApproxCommand:
    def test_sup_norm_surrogate(self):
        code, out, _ = run_cli("approx", "--f", "@gauss", "--sigma", "32")
        assert code == 0
        assert 0.0 <= float(out.strip()) < 1e-6

    def test_vexp_norm(self):
        code, out, _ = run_cli("approx", "--f", "@gauss", "--sigma", "4", "--p", "@p2")
        assert code == 0
        assert float(out.strip()) == pytest.approx(5.995e-2, rel=1e-2)

    def test_panel_cap_exits_with_error(self):
        # x/(1+x^2) decays like 1/|x|; at type 64 its convolution window
        # needs more panels than the cap allows
        code, out, err = run_cli("approx", "--f", "x/(1+x^2)", "--sigma", "64",
                                 "--window", "20")
        assert code == 2
        assert out == ""
        assert "panels on the u-window" in err

    @pytest.mark.parametrize("src, shown", [
        ("sin(x)", "sin(x)"), ("cos(x)*exp(-abs(x))", "(cos(x) * exp((-abs(x))))")])
    def test_input_without_decay_class_refused_up_front(self, src, shown):
        # these grew the u-window 80 times and then hit the panel cap
        code, out, err = run_cli("approx", "--f", src, "--sigma", "2")
        assert code == 2
        assert out == ""
        assert err == (f"error: {shown} has no decay class: A_hat's convolution "
                       "needs Gaussian, power or compact decay\n")

    def test_lattice_cap_exits_with_error(self):
        # at sigma 1e-9 numpy refused a 1.46 TiB array: exit code 1 and a traceback
        code, out, err = run_cli("approx", "--f", "@gauss", "--sigma", "1e-9")
        assert code == 2 and out == ""
        assert err == ("error: the lattice convolution of J(f, 5e-10) needs 201061930011 "
                       "samples of f, more than the cap of 2097152\n")

    def test_decaying_input_with_breakpoints_exits_with_error(self):
        # Gaussian decay with jumps at 0 and 1: the lattice convolution
        # refuses it rather than print a J that is off by 2e-2 or more
        code, out, err = run_cli("approx", "--f", "indicator(0,1)+x*exp(-x^2)",
                                 "--sigma", "4")
        assert code == 2
        assert out == ""
        assert "breakpoints [0.0, 1.0]" in err

    @pytest.mark.parametrize("src", ["1", "gauss(0)", "sinc(0)"])
    def test_constant_one_in_every_spelling(self, capsys, src):
        # gauss(0) and sinc(0) were refused at the panel cap
        assert main(["approx", "--f", src, "--sigma", "2"]) == 0
        assert capsys.readouterr().out == "0\n"

    @pytest.mark.parametrize("p", ["2", "@p_bump"])
    def test_constant_outside_every_lp_space_refused(self, capsys, p):
        # printed 0, though vexp norm and vexp modulus refuse 1 in L^p(.); its
        # sup distance to the type-2 class is 0, as above
        assert main(["approx", "--f", "1", "--p", p, "--sigma", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("error: |f| ~ c*|x|^0 with c != 0 as |x| -> oo: "
                            "its L^p(.) norm on R is infinite\n")


@pytest.mark.parametrize("argv", [["norm", "--p", "@p2"], ["approx", "--sigma", "2"],
                                  ["approx", "--sigma", "2", "--p", "2"], ["norm"]])
def test_gauss_answers_as_its_exp_twin(capsys, argv):
    # gauss(0.01) read 3.51108 in p2 (window 12), its twin 3.45874 (window 10)
    outputs = []
    for src in ("gauss(0.01)", "exp(-0.01*x*x)"):
        code = main([*argv, "--f", src])
        outputs.append((code, *capsys.readouterr()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv, printed", [
    (["norm", "--f", "@gauss"], "1"),
    (["norm", "--f", "@gauss", "--p", "@p_osc"], "1.19143985981"),
    (["modulus", "--f", "@gauss", "--r", "1", "--delta", "0.5"], "0.2088055646"),
    (["modulus", "--f", "@gauss", "--r", "1", "--delta", "0.5", "--p", "@p_osc"],
     "0.29615572097"),
    (["approx", "--f", "@gauss", "--sigma", "2"], "0.298773373428"),
    (["approx", "--f", "@gauss", "--sigma", "2", "--p", "@p_osc"], "0.42552890002"),
])
def test_p_alone_picks_the_norm(capsys, argv, printed):
    # --p selects L^p(.) and its absence the sup norm, in every subcommand:
    # approx read the norm from --norm, so that with --p @p_osc alone it
    # printed the sup value, and norm had no sup norm
    assert main(argv) == 0
    assert capsys.readouterr().out == printed + "\n"


def test_far_compact_support_lies_in_the_sup_window(capsys):
    # indicator(25,30) has norm window 32; its sup window was min(32, 20),
    # which misses the support: the modulus printed 0 and A_hat 0.00657
    outs = []
    for argv in (["modulus", "--r", "1", "--delta", "0.1"], ["approx", "--sigma", "2"]):
        for window in ([], ["--window", "32"]):
            assert main([*argv, "--f", "indicator(25,30)", *window]) == 0
            outs.append(float(capsys.readouterr().out))
    assert outs[0] == outs[1] == 1.0
    assert outs[2] == outs[3] == pytest.approx(0.509, abs=1e-3)


class TestAuditCommand:
    def test_small_config(self, tmp_path):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("""
[[case]]
theorem = "holder"
f = "@box"
g = "@box"
p = "@p2"
""")
        out_dir = tmp_path / "reports"
        code, out, _ = run_cli("audit", "--config", str(cfg),
                               "--out", str(out_dir))
        assert code == 0
        assert "pass=1 fail=0" in out
        assert (out_dir / "audit.csv").exists()
        assert (out_dir / "audit.json").exists()

    def test_bad_config_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text('[[case]]\ntheorem = "holder"\nf = "@box"\n'
                       'g = "@box"\np = "0.3"\n')
        code, _, err = run_cli("audit", "--config", str(cfg),
                               "--out", str(tmp_path / "r"))
        assert code == 2
        assert "error" in err

    def test_out_of_range_grid_rejected_before_reports(self, tmp_path):
        cfg = tmp_path / "bad_grid.cfg"
        cfg.write_text('[[case]]\ntheorem = "inverse_sup"\nf = "@gauss"\n'
                       'deltas = [0.5, 1.5]\n')
        out_dir = tmp_path / "r"
        code, _, err = run_cli("audit", "--config", str(cfg), "--out", str(out_dir))
        assert code == 2
        assert "delta in (0, 1)" in err
        assert not out_dir.exists()


def test_main_entrypoint_in_process(capsys):
    assert main(["constants", "--r", "1"]) == 0
    out = capsys.readouterr().out
    assert "c8_k,36" in out


class TestMassOutsideTheWindow:
    # a raw window is centred at 0: these printed 3.516396228e-05,
    # 0.00108757858372 and an A_hat of the cut-off tail, each with exit code 0
    @pytest.mark.parametrize("argv, end", [
        (["norm", "--f", "exp(-(x-15)^2)", "--p", "2"], "12"),
        (["modulus", "--f", "1/(1+(x-30)^2)", "--r", "1", "--delta", "1"], "20"),
        (["approx", "--f", "exp(-(x-15)^2)", "--sigma", "2"], "12")])
    def test_refused(self, capsys, argv, end):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert f"window's end x = {end} lies above every sample inside" in err
        assert "--window" in err

    def test_a_window_that_holds_the_mass_answers(self, capsys):
        assert main(["norm", "--f", "exp(-(x-15)^2)", "--p", "2", "--window", "40"]) == 0
        assert capsys.readouterr().out == "1.11951513492\n"  # (pi/2)^(1/4)
        assert main(["modulus", "--f", "1/(1+(x-30)^2)", "--r", "1", "--delta", "1",
                     "--window", "60"]) == 0
        assert capsys.readouterr().out == "0.294455336395\n"

    @pytest.mark.parametrize("name", [m.name for m in default_corpus()])
    def test_no_bundled_member_refused(self, name):
        m = corpus_member(name)
        for p in (None, "@p2"):
            args = argparse.Namespace(f="@" + name, p=p, window=None)
            assert _spec(args, growing=True)[1] == m.norm_spec(p and exponent_field("p2"))


class TestDeepSources:
    # these raised RecursionError, printed a traceback and exited 1 (599
    # factors did; since no tree walk recurses, only a source above the node
    # cap is refused)
    @pytest.mark.parametrize("src", ["(" * 140 + "exp(-x^2)" + ")" * 140,
                                     "exp(-x^2)" + "*1" * 10_000],
                             ids=["parentheses", "factors"])
    def test_norm_refused_naming_a_column(self, capsys, src):
        assert main(["norm", "--f", src, "--p", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "(at column " in err


# sources drawn from the grammar's tokens: well-formed nests of its atoms,
# calls and operators, with runs of '(' and long operator chains, and soups of
# its tokens
_ATOMS = ["x", "0", "1", "2.5", "1e300", "exp(-x^2)", "sin(3*x)", "gauss(2)", "sinc(4)",
          "sincd(2, 1)", "indicator(0, 1)", "abs(x - 1)"]
_TOKENS = [*_ATOMS, "-", "+", "*", "/", "^", "(", ")", ",", " ", "exp", "sincd", "indicator"]
_SOURCES = st.one_of(
    st.recursive(st.sampled_from(_ATOMS), lambda kids: st.one_of(
        st.tuples(kids, st.sampled_from("+-*/"), kids).map("".join),
        st.tuples(st.sampled_from(["(", "exp(", "sin(", "cos(", "abs(", "-("]), kids).map(
            lambda t: f"{t[0]}{t[1]})"),
        st.tuples(kids, st.integers(-3, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(kids, st.integers(1, 160)).map(lambda t: "(" * t[1] + t[0] + ")" * t[1]),
        st.tuples(kids, st.sampled_from(["*1", "+x", "*x", "-1", "/2", "*-"]),
                  st.integers(1, 600)).map(lambda t: t[0] + t[1] * t[2] + "1")),
        max_leaves=6),
    st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(_SOURCES)
def test_norm_answers_or_refuses_any_source(src):
    # in process: any source is answered (0) or refused (2), never raised,
    # and no numpy warning gets out
    assert main(["norm", "--f", src, "--p", "2"]) in (0, 2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("src, column", [("exp(1e300)", 1), ("2^2000*exp(-x^2)", 2),
                                         ("exp(-x^2)+1e999", 11)])
def test_non_finite_constant_refused_naming_its_column(capsys, src, column):
    # exp(1e300) let out numpy's overflow warning while it was folded, and was
    # then refused as "f is not finite at x = -9.98387", naming an x
    assert main(["norm", "--f", src, "--p", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: this constant is inf, not a finite float (at column {column})\n"


class TestSteklovLatticeCap:
    def test_fast_oscillation_answers(self, capsys):
        # the lattice was capped at 16 panels per unit and printed 1.0850,
        # above ||f|| + ||T_4 f|| <= 1.0008
        assert main(["modulus", "--f", "sin(200*x)*exp(-x^2)", "--r", "1",
                     "--delta", "4"]) == 0
        assert capsys.readouterr().out == "0.999939297332\n"

    def test_too_many_panels_refused(self):
        # with 16 panels per unit this printed 0.998088335714
        code, out, err = run_cli("modulus", "--f", "sin(1e6*x)*exp(-x^2)", "--r", "1",
                                 "--delta", "1")
        assert code == 2 and out == ""
        assert err == ("error: the Steklov lattice needs 166667 panels for frequency "
                       "1e+06 at step 1, above 256\n")

    @pytest.mark.parametrize("r,widest,refused,panels", [
        (1, "512", "513", 257), (2, "256", "257", 258), (4, "128", "129", 260)])
    def test_wide_steps_refused(self, r, widest, refused, panels):
        # a unit panel takes ceil(delta/2) pieces, r per unit panel here; at
        # delta = 256 the uncut lattice's Omega_2 was 1.3e-2 off pointwise
        assert main(["modulus", "--f", "@gauss", "--r", str(r), "--delta", widest]) == 0
        code, out, err = run_cli("modulus", "--f", "@gauss", "--r", str(r), "--delta", refused)
        assert code == 2 and out == ""
        assert err == (f"error: the Steklov lattice needs {panels} panels for frequency "
                       f"0 at step {refused}, above 256\n")

    def test_too_many_sup_panels_refused(self):
        # the sup grid was capped at 400,000 points, aliasing the wave, and
        # printed 0.0499849427582, off the dense 0.0499861 by 2.4e-5
        code, out, err = run_cli("modulus", "--f", "sin(1e5*x)*exp(-x^2)", "--r", "1",
                                 "--delta", "1e-6")
        assert code == 2 and out == ""
        assert err == ("error: the window [-12, 12] needs 400000 panels at 16666.7 per unit, "
                       "above 32768\n")

    @pytest.mark.parametrize("p", [["--p", "2"], []])
    def test_too_many_norm_panels_refused(self, p):
        # both norms take their panels from one rule, which caps them before
        # anything is allocated; the Luxemburg norm asked numpy for 8e8 + 1
        # uniform edges
        code, out, err = run_cli("norm", "--f", "@gauss", *p, "--window", "1e8")
        assert code == 2 and out == ""
        assert err == ("error: the window [-1e+08, 1e+08] needs 800000000 panels at 4 per unit, "
                       "above 32768\n")
