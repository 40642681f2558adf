"""Command line interface.

Subcommands:
  audit      run an audit configuration and write CSV/JSON reports
  norm       norm of an expression
  modulus    smoothness modulus of an expression
  approx     bandlimited-approximation error (the computable upper bound)
  constants  dump the constant table as CSV
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .audit import run_suite
from .constants import constant_table
from .corpus import resolve_exponent, resolve_function
from .defaults import default_config_text
from .functions import _finite_samples
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

    measured = argparse.ArgumentParser(add_help=False)  # the input and its norm
    measured.add_argument("--f", required=True, help="function expression or @member")
    measured.add_argument("--p", default=None, help="exponent or @name; omit for the sup norm")
    measured.add_argument("--window", type=float, default=None)

    sub.add_parser("norm", parents=[measured], help="norm of an expression")

    p_mod = sub.add_parser("modulus", parents=[measured], help="smoothness modulus")
    p_mod.add_argument("--r", type=int, required=True)
    p_mod.add_argument("--delta", type=float, required=True)

    p_ap = sub.add_parser("approx", parents=[measured],
                          help="bandlimited approximation error")
    p_ap.add_argument("--sigma", type=float, required=True)

    p_const = sub.add_parser("constants", help="dump the constant table as CSV")
    p_const.add_argument("--r", type=int, default=1)
    p_const.add_argument("--k", type=int, default=1)
    p_const.add_argument("--pplus", type=float, default=2.0)
    p_const.add_argument("--c3", type=float, default=0.0)
    return ap


def _exponent(args):
    """The --p exponent or None; warns when its log-continuity constants are estimates."""
    if args.p is None:
        return None
    p = resolve_exponent(args.p)
    if not p.is_constant:
        print("note: log-continuity constants are grid estimates "
              f"(c_local={p.c_log_local:.6g}, c_decay={p.c_log_decay:.6g})",
              file=sys.stderr)
    return p


def _spec(args, growing: bool):
    """The --f member and its norm spec.  ValueError when |f| ~ c |x|^g, c != 0:
    f lies in no L^p(.) on R, and with growing set, a g > 0 gives no sup norm
    either; and for a decaying f, when |f| at an end of the window lies above
    every sample inside it: f's mass leaves the window."""
    m, p = resolve_function(args.f), _exponent(args)
    d = m.expr.decay_class
    if d.kind == "nonvanishing" and (p is not None or growing and d.alpha < 0.0):
        raise ValueError(f"|f| ~ c*|x|^{-d.alpha:g} with c != 0 as |x| -> oo: its "
                         f"{'sup' if p is None else 'L^p(.)'} norm on R is infinite")
    spec = m.norm_spec(p, args.window)
    if d.kind not in ("none", "nonvanishing"):
        w = spec.window
        a = np.abs(_finite_samples(m.rf, np.linspace(-w, w, 4001)))
        for end, v in ((-w, a[0]), (w, a[-1])):
            if v > np.max(a[1:-1]):
                raise ValueError(f"|f| at the window's end x = {end:g} lies above every "
                                 f"sample inside [-{w:g}, {w:g}]: f's mass leaves the "
                                 "window; set --window")
    return m, spec


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
    m, spec = _spec(args, growing=True)
    print(f"{norm_of(m.rf, spec):.12g}")
    return 0


def _cmd_modulus(args) -> int:
    m, spec = _spec(args, growing=False)  # a sup modulus of x is finite
    print(f"{modulus(ModulusRequest(m.rf, args.r, args.delta, spec)):.12g}")
    return 0


def _cmd_approx(args) -> int:
    m, spec = _spec(args, growing=False)  # a constant's sup distance is 0
    est = best_approx_surrogate(m.rf, args.sigma, spec)
    print(f"{est.value:.12g}")
    if est.tail_bound:
        print(f"note: convolution tail bound {est.tail_bound:.3g}", file=sys.stderr)
    return 0


def _cmd_constants(args) -> int:
    table = constant_table(args.r, args.k, args.pplus, args.c3)
    sys.stdout.write(table.as_csv())
    return 0


_COMMANDS = {"audit": _cmd_audit, "norm": _cmd_norm, "modulus": _cmd_modulus,
             "approx": _cmd_approx, "constants": _cmd_constants}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # --help (0), or a usage error (2), as --f -x^2 is
        return exc.code
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError, OverflowError) as exc:  # every refusal of an input
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
