"""The sup norm against an independent maximum: a dense grid polished by scipy.

The reference for max |f| on [-W, W] (W the member's sup window) is the
largest |f| on 200,001 equispaced points, an ulp either side of each
breakpoint (the one-sided limits at a jump), and at the bounded Brent polish
(`scipy.optimize.minimize_scalar`) of the grid's best local maxima, each kept
on its side of any breakpoint.  Every bundled member and its (I - T_d)^r f
for each (r, d) of DIFFERENCES agree with it to 1e-12 relative.  At d = 1e-4,
(I - T_d)^2 cancels terms of size 1 down to the rounding floor, where the
grid's best sample is itself noise: those cases, named in FLOOR with their
references, agree to 1e-14 absolute.
"""

import numpy as np
import pytest

from vexp.corpus import corpus_member, default_corpus
from vexp.steklov import difference_terms, steklov_combination, sup_norm

optimize = pytest.importorskip("scipy.optimize")

DIFFERENCES = [(1, 0.1), (2, 0.3), (2, 1.0), (2, 1e-4)]
FLOOR = {  # (I - T_1e-4)^2 f: the dense reference, to 1e-14
    "gauss": 5.00000041370185e-09, "gauss_osc": 6.34301712265639e-08,
    "sinc1": 8.33334068417457e-10, "sinc4": 1.33333335483599e-08, "box": 1.0,
    "box_smooth": 2.76142374916688e-04, "xgauss": 4.87945772675857e-09,
    "cos_gauss": 2.37500000777047e-08, "gauss_wide": 5.55556045611638e-10,
    "x2gauss": 4.99999996666667e-09, "lorentz": 5.00000041370185e-09,
    "lorentz2": 1.00000003833145e-08,
}


def dense_sup(f, window: float, n: int = 200_001, polish: int = 8) -> float:
    xs = np.linspace(-window, window, n)
    v = np.abs(f(xs))
    best = float(v.max())
    breaks = [b for b in f.breakpoints if -window < b < window]
    for b in breaks:
        for side in (-np.inf, np.inf):
            best = max(best, abs(f(float(np.nextafter(b, side)))))
    peak = np.flatnonzero((v[1:-1] >= v[:-2]) & (v[1:-1] >= v[2:])) + 1
    for i in peak[np.argsort(-v[peak])][:polish]:
        lo, hi = xs[i - 1], xs[i + 1]
        for b in breaks:  # never across a breakpoint
            if lo < b < hi:
                lo, hi = ((lo, np.nextafter(b, -np.inf)) if xs[i] < b
                          else (np.nextafter(b, np.inf), hi))
        res = optimize.minimize_scalar(lambda x: -abs(f(float(x))), bounds=(lo, hi),
                                       method="bounded", options={"xatol": 1e-15})
        best = max(best, -float(res.fun))
    return best


@pytest.mark.parametrize("name", [m.name for m in default_corpus()])
def test_members_and_their_differences(name):
    m = corpus_member(name)
    cases = [(None, m.rf)] + [((r, d), steklov_combination(m.rf, d, difference_terms(r, (1, 0))))
                              for r, d in DIFFERENCES]
    for rd, f in cases:
        want, got = dense_sup(f, m.sup_window), sup_norm(f, m.norm_spec())
        if rd == (2, 1e-4):
            assert want == pytest.approx(FLOOR[name], rel=0.0, abs=1e-14)
            assert got == pytest.approx(want, rel=0.0, abs=1e-14), rd
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), rd
