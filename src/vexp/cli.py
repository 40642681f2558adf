"""Command line interface.

Subcommands:
  audit      run an audit configuration and write CSV/JSON reports
  norm       Luxemburg norm of an expression
  modulus    smoothness modulus of an expression
  approx     bandlimited-approximation error (the computable upper bound)
  constants  dump the constant table as CSV
"""

from __future__ import annotations

import argparse
import sys

from .audit import run_suite
from .constants import constant_table
from .corpus import resolve_exponent, resolve_function
from .defaults import default_config_text
from .norms import norm_of
from .smoothness import ModulusRequest, modulus
from .bandlimited import best_approx_surrogate


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="vexp",
                                 description="Steklov smoothness and "
                                             "bandlimited-approximation audits")
    sub = ap.add_subparsers(dest="command", required=True)

    p_audit = sub.add_parser("audit", help="run an audit suite")
    p_audit.add_argument("--config", default=None,
                         help="configuration file (default: bundled suite)")
    p_audit.add_argument("--out", default="reports", help="report directory")

    p_norm = sub.add_parser("norm", help="Luxemburg norm of an expression")
    p_norm.add_argument("--f", required=True, help="function expression or @member")
    p_norm.add_argument("--p", required=True, help="exponent expression or @name")
    p_norm.add_argument("--window", type=float, default=None)

    p_mod = sub.add_parser("modulus", help="smoothness modulus")
    p_mod.add_argument("--f", required=True)
    p_mod.add_argument("--p", default=None, help="exponent (omit for sup norm)")
    p_mod.add_argument("--r", type=int, required=True)
    p_mod.add_argument("--delta", type=float, required=True)
    p_mod.add_argument("--window", type=float, default=None)

    p_ap = sub.add_parser("approx", help="bandlimited approximation error")
    p_ap.add_argument("--f", required=True)
    p_ap.add_argument("--sigma", type=float, required=True)
    p_ap.add_argument("--norm", choices=("sup", "vexp"), default="sup")
    p_ap.add_argument("--p", default="2", help="exponent for --norm vexp")
    p_ap.add_argument("--window", type=float, default=None)

    p_const = sub.add_parser("constants", help="dump the constant table as CSV")
    p_const.add_argument("--r", type=int, default=1)
    p_const.add_argument("--k", type=int, default=1)
    p_const.add_argument("--pplus", type=float, default=2.0)
    p_const.add_argument("--c3", type=float, default=0.0)
    return ap


def _exponent(args):
    """The --p exponent; warns when its log-continuity constants are estimates."""
    p = resolve_exponent(args.p)
    if not p.is_constant:
        print("note: log-continuity constants are grid estimates "
              f"(c_local={p.c_log_local:.6g}, c_decay={p.c_log_decay:.6g})",
              file=sys.stderr)
    return p


def _cmd_audit(args) -> int:
    if args.config:
        with open(args.config) as fh:
            text = fh.read()
    else:
        text = default_config_text()
    report, code = run_suite(text, out_dir=args.out)
    print(f"pass={report.n_pass} fail={report.n_fail} "
          f"inconclusive={report.n_inconclusive}")
    for row in report.failed_rows():
        print(f"FAIL {row.theorem_id} {row.case_id} "
              f"lhs={row.lhs:.6g} rhs={row.rhs:.6g}")
    print(f"reports written to {args.out}/audit.csv and {args.out}/audit.json")
    return code


def _cmd_norm(args) -> int:
    m = resolve_function(args.f)
    p = _exponent(args)
    print(f"{norm_of(m.rf, m.norm_spec(p, args.window)):.12g}")
    return 0


def _cmd_modulus(args) -> int:
    m = resolve_function(args.f)
    p = None if args.p is None else _exponent(args)
    val = modulus(ModulusRequest(m.rf, args.r, args.delta,
                                 m.norm_spec(p, args.window)))
    print(f"{val:.12g}")
    return 0


def _cmd_approx(args) -> int:
    m = resolve_function(args.f)
    p = None if args.norm == "sup" else _exponent(args)
    est = best_approx_surrogate(m.rf, args.sigma, m.norm_spec(p, args.window))
    print(f"{est.value:.12g}")
    if est.tail_bound:
        print(f"note: convolution tail bound {est.tail_bound:.3g}",
              file=sys.stderr)
    return 0


def _cmd_constants(args) -> int:
    table = constant_table(args.r, args.k, args.pplus, args.c3)
    sys.stdout.write(table.as_csv())
    return 0


_COMMANDS = {"audit": _cmd_audit, "norm": _cmd_norm, "modulus": _cmd_modulus,
             "approx": _cmd_approx, "constants": _cmd_constants}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError) as exc:  # every refusal of an input
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
