"""The six immutable records: constructors, repr, ==, hash and immutability.

The strings below were recorded from the frozen dataclasses these records
replaced; a record must print, compare and refuse input exactly as they did.
"""

import copy
import functools
import pickle
from fractions import Fraction

import pytest

from loopalg import (
    EmbeddingReport,
    InputError,
    KeplerParams,
    LoopElement,
    OracleReport,
    PhasePoint,
    bundled_spec,
)
from loopalg.kepler import IdentityResult

IDENTITY = IdentityResult("{H,L}=0", 5, 1.5e-9, True)

# (record, its repr, the tuple of its field values)
CASES = [
    (KeplerParams(), "KeplerParams(m=1.0, alpha=1.0, beta=0.5)", (1.0, 1.0, 0.5)),
    (KeplerParams(2, beta=0), "KeplerParams(m=2.0, alpha=1.0, beta=0.0)", (2.0, 1.0, 0.0)),
    (PhasePoint(1.5, 0.25, -0.5, 0.75), "PhasePoint(r=1.5, phi=0.25, pr=-0.5, pphi=0.75)",
     (1.5, 0.25, -0.5, 0.75)),
    (LoopElement(((0, 1, Fraction(1, 2)),)), "LoopElement(terms=((0, 1, Fraction(1, 2)),))",
     (((0, 1, Fraction(1, 2)),),)),
    (bundled_spec("h2").basis_element(1, 2), "LoopElement(terms=((1, 2, Fraction(1, 1)),))",
     (((1, 2, Fraction(1)),),)),
    (EmbeddingReport(window=2, missing=(("L", 0),)),
     "EmbeddingReport(window=2, missing=(('L', 0),))", (2, (("L", 0),))),
    (IDENTITY, "IdentityResult(name='{H,L}=0', samples=5, max_rel_residual=1.5e-09, passed=True)",
     ("{H,L}=0", 5, 1.5e-9, True)),
    (OracleReport(KeplerParams(), 5, 0, 1e-5, (IDENTITY,)),
     "OracleReport(params=KeplerParams(m=1.0, alpha=1.0, beta=0.5), samples=5, seed=0, "
     "tol=1e-05, identities=(IdentityResult(name='{H,L}=0', samples=5, "
     "max_rel_residual=1.5e-09, passed=True),), radial_term=None)",
     (KeplerParams(), 5, 0, 1e-5, (IDENTITY,), None)),
]


@pytest.mark.parametrize("record, text, values", CASES, ids=lambda c: type(c).__name__)
def test_repr_equality_and_hash_go_by_the_field_values(record, text, values):
    assert repr(record) == text
    twin = type(record)(*values)
    assert twin == record and not twin != record and twin is not record
    assert hash(twin) == hash(record) == hash(values)
    assert record != values  # a record never equals a plain tuple
    assert copy.copy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("record, text, values", CASES, ids=lambda c: type(c).__name__)
def test_fields_cannot_be_assigned_or_deleted(record, text, values):
    name = type(record).__slots__[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, 0)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
        record.other = 0
    assert repr(record) == text


def test_keyword_construction_and_defaults():
    assert KeplerParams(beta=0) == KeplerParams(1.0, 1.0, 0)
    assert KeplerParams(alpha=2.0, m=3.0) == KeplerParams(3.0, 2.0, 0.5)
    assert PhasePoint(pphi=4.0, pr=3.0, phi=0.5, r=1.0) == PhasePoint(1.0, 0.5, 3.0, 4.0)
    assert LoopElement(terms=()) == LoopElement(())
    assert EmbeddingReport(missing=(), window=8).codimension == 0
    assert IdentityResult(passed=False, name="x", samples=1, max_rel_residual=2.0).to_json() == {
        "name": "x", "samples": 1, "max_rel_residual": 2.0, "pass": False}
    report = OracleReport(params=KeplerParams(), samples=1, seed=2, tol=0.1,
                          identities=(), radial_term={"a": 1})
    assert report.radial_term == {"a": 1} and report.all_pass
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(report)


@pytest.mark.parametrize("make, message", [
    (lambda: KeplerParams(1, 2, 3, 4),
     "KeplerParams.__init__() takes from 1 to 4 positional arguments but 5 were given"),
    (lambda: KeplerParams(x=1), "KeplerParams.__init__() got an unexpected keyword argument 'x'"),
    (lambda: PhasePoint(1, 2, 3), "PhasePoint.__init__() missing 1 required positional argument: 'pphi'"),
    (lambda: PhasePoint(1, 0, 0, 0, r=1), "PhasePoint.__init__() got multiple values for argument 'r'"),
    (lambda: LoopElement(), "LoopElement.__init__() missing 1 required positional argument: 'terms'"),
    (lambda: IdentityResult("a", 1, 0.0),
     "IdentityResult.__init__() missing 1 required positional argument: 'passed'"),
    (lambda: OracleReport(KeplerParams()),
     "OracleReport.__init__() missing 4 required positional arguments: "
     "'samples', 'seed', 'tol', and 'identities'"),
])
def test_constructor_signatures(make, message):
    with pytest.raises(TypeError) as err:
        make()
    assert str(err.value) == message


@pytest.mark.parametrize("make, message", [
    (lambda: KeplerParams(m=0), "mass must be positive, got 0"),
    (lambda: KeplerParams(beta=float("nan")), "beta must be finite, got nan"),
    (lambda: KeplerParams(alpha=float("inf")), "alpha must be finite, got inf"),
    (lambda: PhasePoint(0, 0, 0, 0), "r must be positive, got 0"),
    (lambda: PhasePoint(1, 4, 0, 0), "phi must lie strictly inside (-pi, pi), got 4"),
    (lambda: PhasePoint(1, 0, float("nan"), 0), "pr must be finite, got nan"),
])
def test_validation_messages(make, message):
    with pytest.raises(InputError) as err:
        make()
    assert str(err.value) == message


def test_kepler_params_is_an_lru_cache_key():
    calls = []

    @functools.lru_cache(maxsize=4)
    def bound(params):
        calls.append(params)
        return params.m

    assert bound(KeplerParams(2.0)) == bound(KeplerParams(m=2.0, alpha=1.0, beta=0.5)) == 2.0
    assert bound(KeplerParams(2.0, beta=0.0)) == 2.0
    assert calls == [KeplerParams(2.0), KeplerParams(2.0, beta=0.0)]
