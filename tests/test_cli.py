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

    def test_warns_on_variable_exponent(self):
        code, out, err = run_cli("norm", "--f", "exp(-x^2)",
                                 "--p", "2 + 1/(1+x^2)", "--p-infinity", "2")
        assert code == 0
        assert "grid estimates" in err

    def test_parse_error_exit_code(self):
        code, _, err = run_cli("norm", "--f", "exp(-x^", "--p", "2")
        assert code == 2
        assert "error" in err


class TestModulusCommand:
    def test_affine_sup(self):
        code, out, _ = run_cli("modulus", "--f", "x", "--r", "1",
                               "--delta", "0.2", "--window", "5")
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.1, abs=1e-10)

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
        # the raw Lorentzian has no decay class; its convolution window
        # would need more panels than the cap allows
        code, out, err = run_cli("approx", "--f", "1/(1+x^2)", "--sigma", "4",
                                 "--window", "20")
        assert code == 2
        assert out == ""
        assert "panels on the u-window" in err


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
