import cmath
import json
import math

import pytest
from hypothesis import example, given, strategies as st

from ncprob.errors import ValidationError
from ncprob.measures import MERGE_TOL, PARAMETER, STATE, CircleMeasure, FiniteAtomicMeasure

finite = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
weights = st.floats(0.001, 1.0, allow_nan=False)

#: the behaviour both measure classes share, tested once over each
both_classes = pytest.mark.parametrize("cls", [FiniteAtomicMeasure, CircleMeasure])


def test_mass_examples(bernoulli):
    assert FiniteAtomicMeasure.dirac(0.0).mass == 1.0
    assert FiniteAtomicMeasure.dirac(0.0, 0.5).mass == 0.5
    assert bernoulli.mass == 1.0


def test_generalized_variance_examples(bernoulli):
    assert FiniteAtomicMeasure.dirac(2.7).generalized_variance == 0.0
    assert bernoulli.generalized_variance == 1.0
    mu = FiniteAtomicMeasure.from_pairs([(0.0, 0.5), (2.0, 0.25)])
    # mu(x^2) mu(R) - mu(x)^2 = (0.25*4)(0.75) - 0.5^2
    assert mu.generalized_variance == pytest.approx(0.5, abs=1e-15)


def test_dilate_translate_examples(bernoulli):
    half = bernoulli.dilate(0.5)
    assert half.atoms == ((-0.5, 0.5), (0.5, 0.5))
    assert FiniteAtomicMeasure.dirac(0.0).translate(3.0).atoms == ((3.0, 1.0),)
    flipped = FiniteAtomicMeasure.dirac(2.0, 0.5).dilate(-1.0)
    assert flipped.atoms == ((-2.0, 0.5),)


def test_dilate_zero_rejected(bernoulli):
    with pytest.raises(ValidationError):
        bernoulli.dilate(0.0)


@both_classes
def test_construction_sorts_and_merges(cls):
    mu = cls.from_pairs([(1.0, 0.25), (0.5, 0.5), (1.0 + 1e-13, 0.25)])
    assert mu.positions == (0.5, pytest.approx(1.0, abs=1e-12))
    assert mu.weights == (0.5, 0.5)


@both_classes
def test_unknown_role_rejected_and_role_changed(cls):
    with pytest.raises(ValidationError, match="unknown role"):
        cls.from_pairs([(0.5, 1.0)], role="prior")
    sigma = cls.dirac(0.5).with_role(PARAMETER)
    assert type(sigma) is cls
    assert (sigma.role, sigma.atoms) == (PARAMETER, ((0.5, 1.0),))


@both_classes
def test_zero_and_dirac(cls):
    zero = cls.zero()
    assert (zero.is_zero, zero.mass, zero.role, zero.atoms) == (True, 0, PARAMETER, ())
    with pytest.raises(ValidationError):
        zero.with_role(STATE)
    d = cls.dirac(0.5)
    assert (d.atoms, d.mass, d.role, d.is_zero) == (((0.5, 1.0),), 1.0, STATE, False)
    assert d.mean == pytest.approx(0.5 if cls is FiniteAtomicMeasure else cmath.exp(0.5j))
    assert cls.dirac(0.5, 3.0, role=PARAMETER).mass == 3.0


@both_classes
def test_unequal_positions_and_weights_rejected(cls):
    # zipped without a check, (0, 1) with one weight built a Dirac at 0 and dropped 1
    for positions, weights in [((0.0, 1.0), (0.5,)), ((0.0, 1.0, 2.0), (1.0,)),
                               ((0.5,), (0.25, 0.75)), ((), (1.0,))]:
        with pytest.raises(ValidationError, match="positions but"):
            cls(positions, weights)


def test_zero_weights_dropped_and_state_nonzero():
    mu = FiniteAtomicMeasure.from_pairs([(0.0, 1.0), (5.0, 0.0)])
    assert mu.atoms == ((0.0, 1.0),)
    with pytest.raises(ValidationError):
        FiniteAtomicMeasure.from_pairs([(0.0, 0.0)])
    with pytest.raises(ValidationError):
        FiniteAtomicMeasure.from_pairs([(0.0, -0.5)])


def test_state_mass_capped_parameter_not():
    with pytest.raises(ValidationError):
        FiniteAtomicMeasure.dirac(0.0, 1.5)
    sigma = FiniteAtomicMeasure.dirac(0.0, 7.0, role=PARAMETER)
    assert sigma.mass == 7.0
    assert FiniteAtomicMeasure.zero().is_zero


@given(st.lists(st.tuples(finite, weights), min_size=1, max_size=8))
def test_reconstruction_idempotent(pairs):
    try:
        mu = FiniteAtomicMeasure.from_pairs(pairs, role=PARAMETER)
    except ValidationError:
        return
    again = FiniteAtomicMeasure.from_pairs(mu.atoms, role=PARAMETER)
    assert again.positions == mu.positions
    assert again.weights == mu.weights


def _merge_close(pairs):
    """The MERGE_TOL rule: in sorted order, an atom within MERGE_TOL of the
    last one kept merges into it at the weighted mean of the two."""
    kept = []
    for x, w in sorted(pairs):
        if kept and x - kept[-1][0] <= MERGE_TOL:
            x0, w0 = kept[-1]
            kept[-1] = ((x0 * w0 + x * w) / (w0 + w), w0 + w)
        else:
            kept.append((x, w))
    return kept


@example(pairs=[(0.0, 1.0), (3.0623482288653334e-12, 1.0)], s=0.25)
@given(st.lists(st.tuples(finite, weights), min_size=1, max_size=6),
       st.floats(0.1, 8.0).filter(lambda s: s != 0))
def test_dilate_roundtrip_and_mass(pairs, s):
    """Dilating by s and back returns mu, unless a dilated gap falls to
    MERGE_TOL or below: then the atoms merge as the rule says."""
    mu = FiniteAtomicMeasure.from_pairs(pairs, role=PARAMETER)
    there = _merge_close([(s * x, w) for x, w in mu.atoms])
    want = _merge_close([((1.0 / s) * x, w) for x, w in there])
    back = mu.dilate(s).dilate(1.0 / s)
    if len(want) == len(mu.positions):
        assert len(back.positions) == len(mu.positions)
        for a, b in zip(back.positions, mu.positions):
            assert abs(a - b) <= 1e-15 * max(1.0, abs(b))
    else:
        assert back.atoms == tuple(want)
    assert mu.dilate(s).mass == pytest.approx(mu.mass, rel=1e-15)
    assert mu.translate(1.7).mass == pytest.approx(mu.mass, rel=1e-15)


@both_classes
def test_json_roundtrip_exact(rng, cls):
    positions = rng.uniform(-5, 5, 6)
    ws = rng.uniform(0.01, 0.15, 6)
    mu = cls.from_pairs(zip(positions, ws / ws.sum()))
    blob = json.dumps(mu.to_json_pairs())
    back = cls.from_pairs(json.loads(blob))
    assert back.positions == mu.positions
    assert back.weights == mu.weights


def test_circle_moment_examples():
    d = CircleMeasure.dirac(math.pi / 2.0)
    assert d.moment(1) == pytest.approx(1j, abs=1e-15)
    haar4 = CircleMeasure.from_pairs(
        [(k * math.pi / 2.0, 0.25) for k in range(4)]
    )
    assert abs(haar4.moment(1)) <= 1e-15
    two = CircleMeasure.from_pairs([(0.0, 0.5), (math.pi, 0.5)])
    assert two.moment(2) == pytest.approx(1.0, abs=1e-15)


def test_circle_state_mass_must_be_one():
    with pytest.raises(ValidationError):
        CircleMeasure.from_pairs([(0.0, 0.5)])
    CircleMeasure.from_pairs([(0.0, 0.5)], role=PARAMETER)


def test_circle_angles_wrap_and_merge():
    mu = CircleMeasure.from_pairs([(2 * math.pi - 1e-14, 0.5), (0.0, 0.5)])
    assert len(mu.angles) == 1
    assert mu.angles is mu.positions
    assert mu.mass == 1.0

