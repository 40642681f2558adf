"""The bundled audit configuration.

Covers every theorem family: the Steklov boundedness and K-functional
equivalence families run over the full corpus-times-exponent grid, the
costlier approximation families run representative subsets (slowly decaying
functions get a reduced left-hand-side window, recorded per row).
"""

from __future__ import annotations

_CORPUS = ("gauss", "gauss_osc", "sinc1", "sinc4", "box", "box_smooth",
           "xgauss", "cos_gauss", "gauss_wide", "x2gauss", "lorentz", "lorentz2")
_EXPONENTS = ("p2", "p_bump", "p_osc")


def _case(theorem: str, f: str, **kv) -> str:
    lines = ["[[case]]", f'theorem = "{theorem}"', f'f = "@{f}"']
    for key, val in kv.items():
        if isinstance(val, str):
            lines.append(f'{key} = "{val}"')
        elif isinstance(val, (list, tuple)):
            lines.append(f"{key} = [{', '.join(f'{v:g}' for v in val)}]")
        else:
            lines.append(f"{key} = {val:g}" if isinstance(val, float)
                         else f"{key} = {val}")
    return "\n".join(lines) + "\n"


def default_config_text() -> str:
    parts = ["# bundled audit suite\n"]

    # uniform boundedness of the averages: full corpus x exponent grid
    for f in _CORPUS:
        for p in _EXPONENTS:
            parts.append(_case("steklov_bound", f, p=f"@{p}",
                               deltas=[0.1, 0.5, 1.0, 2.0]))

    # K-functional equivalence: full grid, both orders
    for f in _CORPUS:
        for p in _EXPONENTS:
            for r in (1, 2):
                parts.append(_case("kfunc_equiv_vexp", f, p=f"@{p}", r=r,
                                   deltas=[0.1, 0.5, 1.0]))
    for f in ("gauss", "gauss_osc", "box", "box_smooth", "lorentz", "sinc1"):
        for r in (1, 2):
            parts.append(_case("kfunc_equiv_sup", f, r=r, deltas=[0.1, 0.5, 1.0]))

    # Holder products
    parts.append(_case("holder", "gauss", g="@gauss", p="@p2"))
    parts.append(_case("holder", "box", g="@box", p="@p_bump"))
    parts.append(_case("holder", "gauss_osc", g="@lorentz", p="@p_osc"))
    parts.append(_case("holder", "box_smooth", g="@xgauss", p="@p2"))

    # direct (Jackson) estimates
    for f in ("gauss", "gauss_osc", "box", "box_smooth", "lorentz2"):
        for p in ("p2", "p_osc"):
            for r in (1, 2):
                parts.append(_case("jackson_vexp", f, p=f"@{p}", r=r,
                                   sigmas=[2.0, 4.0, 8.0, 16.0]))
    parts.append(_case("jackson_vexp", "sinc1", p="@p2", r=1,
                       sigmas=[2.0, 8.0], lhs_window=20.0, vp_tail=1e-5))
    parts.append(_case("jackson_vexp", "sinc4", p="@p2", r=1,
                       sigmas=[8.0], lhs_window=20.0, vp_tail=1e-5))

    # inverse estimates
    for f, p in (("gauss", "p2"), ("gauss", "p_bump"), ("box", "p2"),
                 ("xgauss", "p_osc")):
        for r in (1, 2):
            parts.append(_case("inverse_vexp", f, p=f"@{p}", r=r,
                               deltas=[0.25, 0.5]))
    for f in ("gauss", "box"):
        for r in (1, 2):
            parts.append(_case("inverse_sup", f, r=r, deltas=[0.25]))

    # Marchaud estimates (no surrogates)
    for f, p, r, k in (("gauss", "p2", 1, 1), ("gauss", "p_osc", 1, 1),
                       ("box", "p2", 1, 2), ("gauss_osc", "p_bump", 2, 1)):
        parts.append(_case("marchaud_vexp", f, p=f"@{p}", r=r, k=k,
                           t_grid=[0.1, 0.25]))
    for f, r, k in (("gauss", 1, 1), ("box_smooth", 2, 1)):
        parts.append(_case("marchaud_sup", f, r=r, k=k, t_grid=[0.25]))

    # one-step and scaling comparisons
    for f, p in (("gauss", "p2"), ("box", "p_osc")):
        parts.append(_case("one_step_vexp", f, p=f"@{p}",
                           deltas=[0.1, 0.3, 0.7]))
    for f in ("gauss", "box_smooth"):
        for r in (1, 2):
            parts.append(_case("scaling_vexp", f, p="@p_bump", r=r,
                               deltas=[0.5], lambdas=[0.3, 0.7]))

    # smooth-function modulus bound
    for f in ("gauss", "xgauss", "cos_gauss"):
        for p in _EXPONENTS:
            for r in (1, 2):
                parts.append(_case("smooth_bound_vexp", f, p=f"@{p}", r=r,
                                   deltas=[0.1, 0.5]))

    # structural modulus properties
    for f in ("gauss", "box", "sinc1"):
        parts.append(_case("modulus_props", f, g="@xgauss", p="@p2", r=1,
                           deltas=[0.2, 0.6]))
    parts.append(_case("modulus_props", "gauss", g="@x2gauss", r=2,
                       deltas=[0.2, 0.6]))

    # de la Vallee Poussin norm bound
    for f in ("gauss", "gauss_osc", "box", "lorentz2"):
        parts.append(_case("vp_norm_bound", f, p="@p2", sigmas=[2.0, 8.0]))

    # uniform-norm suite
    for f in ("gauss", "gauss_osc", "box", "box_smooth", "cos_gauss", "lorentz"):
        parts.append(_case("sup_steklov", f, deltas=[0.3, 0.6]))
        for r in (1, 2):
            parts.append(_case("sup_suite", f, r=r, k=1, deltas=[0.3, 0.6]))
    for f in ("gauss", "box", "lorentz2"):
        for r in (1, 2):
            parts.append(_case("jackson_sup", f, r=r, sigmas=[2.0, 4.0, 8.0]))

    # truncated-series audits
    parts.append(_case("series_deriv_sup", "gauss", r=2, k=1, series_n=16))
    parts.append(_case("series_deriv_sup", "cos_gauss", r=2, k=2, series_n=16))
    parts.append(_case("series_deriv_modulus_sup", "gauss", r=1, k=1,
                       sigmas=[4.0, 8.0], series_n=16))
    for f, p in (("gauss", "p2"), ("xgauss", "p_bump")):
        parts.append(_case("series_inverse_vexp", f, p=f"@{p}", r=1, k=1,
                           sigmas=[4.0, 8.0], series_n=24))

    return "\n".join(parts)
