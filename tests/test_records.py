"""Records that check their values: each refuses what it always refused, with
the same message, whether built or _replace-d, and none can be changed."""

import re

import pytest

from bdgrowth.coalescent import ExactFiniteT, FixedNLimit, LargeN
from bdgrowth.confidence import ConfidenceSpec
from bdgrowth.rng import RngStream

# (record type, good fields, bad fields, message)
CASES = [
    (ExactFiniteT, dict(lam=1.0, mu=0.5, t=40.0), dict(lam=0.0),
     "birth rate must be positive and finite"),
    (ExactFiniteT, dict(lam=1.0, mu=0.5, t=40.0), dict(lam=float("inf")),
     "birth rate must be positive and finite"),
    (ExactFiniteT, dict(lam=1.0, mu=0.5, t=40.0), dict(mu=1.0),
     "need lam > mu >= 0 (supercritical)"),
    (ExactFiniteT, dict(lam=1.0, mu=0.5, t=40.0), dict(mu=-0.1),
     "need lam > mu >= 0 (supercritical)"),
    (ExactFiniteT, dict(lam=1.0, mu=0.5, t=40.0), dict(t=float("nan")),
     "observation time must be positive and finite"),
    (FixedNLimit, dict(r=1.0, t=None), dict(r=0.0), "growth rate must be positive and finite"),
    (FixedNLimit, dict(r=1.0, t=None), dict(r=float("inf")),
     "growth rate must be positive and finite"),
    (LargeN, dict(r=1.0, t=10.0), dict(r=-1.0), "growth rate must be positive and finite"),
    (LargeN, dict(r=1.0, t=10.0), dict(t=float("inf")), "tree height must be finite"),
    (ConfidenceSpec, dict(q_lo=0.5, q_hi=2.0), dict(q_lo=0.0), "need 0 < q_lo < q_hi"),
    (ConfidenceSpec, dict(q_lo=0.5, q_hi=2.0), dict(q_hi=0.5), "need 0 < q_lo < q_hi"),
    (RngStream, dict(seed=1, path=(2, 3)), dict(path=(2, -1)),
     "stream path must be non-negative integers"),
    (RngStream, dict(seed=1, path=(2, 3)), dict(path=(2.0,)),
     "stream path must be non-negative integers"),
    (ExactFiniteT, dict(lam=1.0, mu=0.5, t=40.0), dict(t=0.0),
     "observation time must be positive and finite"),
    (ExactFiniteT, dict(lam=1.0, mu=0.5, t=40.0), dict(mu=float("nan")),
     "need lam > mu >= 0 (supercritical)"),
    (LargeN, dict(r=1.0, t=10.0), dict(r=float("nan")), "growth rate must be positive and finite"),
    (LargeN, dict(r=1.0, t=10.0), dict(t=-5.0), "tree height must be positive"),
    (LargeN, dict(r=1.0, t=10.0), dict(t=0.0), "tree height must be positive"),
    (FixedNLimit, dict(r=1.0, t=None), dict(t=float("nan")), "tree height must be finite"),
    (FixedNLimit, dict(r=1.0, t=40.0), dict(t=float("inf")), "tree height must be finite"),
]


@pytest.mark.parametrize("record, good, bad, message", CASES,
                         ids=[f"{c[0].__name__}-{next(iter(c[2]))}-{i}"
                              for i, c in enumerate(CASES)])
def test_records_refuse_bad_values_and_stay_immutable(record, good, bad, message):
    value = record(**good)
    assert value == record(*value)
    with pytest.raises(ValueError, match=re.escape(message)):
        record(**{**good, **bad})
    with pytest.raises(ValueError, match=re.escape(message)):
        value._replace(**bad)
    field = next(iter(good))
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == record(**good)
