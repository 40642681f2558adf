import math
import subprocess
import sys

import pytest

from vexp.cli import main


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
        # sinc(0) read as power decay took window 200 and printed 20
        code, out, _ = run_cli("norm", "--f", src, "--p", "2")
        assert code == 0
        assert out.strip() == "4.472135955"

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


class TestModulusCommand:
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
        ["approx", "--f", "sin(x)/x", "--sigma", "2", "--norm", "vexp", "--p", "2"],
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
        code, out, _ = run_cli("approx", "--f", "@gauss", "--sigma", "32",
                               "--norm", "sup")
        assert code == 0
        assert 0.0 <= float(out.strip()) < 1e-6

    def test_vexp_norm(self):
        code, out, _ = run_cli("approx", "--f", "@gauss", "--sigma", "4",
                               "--norm", "vexp", "--p", "@p2")
        assert code == 0
        assert float(out.strip()) == pytest.approx(5.995e-2, rel=1e-2)

    def test_panel_cap_exits_with_error(self):
        # exp(-|x|) has no decay class; its convolution window would need
        # more panels than the cap allows
        code, out, err = run_cli("approx", "--f", "exp(-abs(x))", "--sigma", "4",
                                 "--window", "20")
        assert code == 2
        assert out == ""
        assert "panels on the u-window" in err

    def test_decaying_input_with_breakpoints_exits_with_error(self):
        # Gaussian decay with jumps at 0 and 1: the lattice convolution
        # refuses it rather than print a J that is off by 2e-2 or more
        code, out, err = run_cli("approx", "--f", "indicator(0,1)+x*exp(-x^2)",
                                 "--sigma", "4")
        assert code == 2
        assert out == ""
        assert "breakpoints [0.0, 1.0]" in err


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
