"""Every bundled member is its expression: the raw source gives the same
numbers as the member on the member's windows."""

import pytest

from vexp.corpus import default_corpus, default_exponents, resolve_function
from vexp.norms import norm_of
from vexp.smoothness import ModulusRequest, k_functional_upper, modulus

NORMS = [None, *default_exponents()]


def _answers(f, spec):
    out = [norm_of(f, spec)]
    for r in (1, 2):
        for d in (0.05, 0.3, 1.0):
            out.append(modulus(ModulusRequest(f, r, d, spec)))
            out.append(k_functional_upper(f, r, d, spec).value)
    return out


@pytest.mark.parametrize("member", default_corpus(), ids=lambda m: m.name)
def test_raw_source_is_its_bundled_twin(member):
    raw = resolve_function(member.expr.src)
    assert raw.expr.decay_class == member.expr.decay_class
    for p in NORMS:
        spec = member.norm_spec(p)
        got, want = _answers(raw.rf, spec), _answers(member.rf, spec)
        assert got == pytest.approx(want, rel=1e-10, abs=0.0), p and p.name
