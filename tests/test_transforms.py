import cmath
import math

import numpy as np
import pytest

from conftest import random_probability_measure, random_state_measure
from ncprob.errors import ConvergenceError, RecoveryError, ValidationError
from ncprob.measures import PARAMETER, FiniteAtomicMeasure
from ncprob import transforms
from ncprob.transforms import (
    CPLUS1_SAMPLES,
    NevanlinnaData,
    TransformGrid,
    ZR,
    cauchy_G,
    e_transform,
    eps_line_grid,
    f_transform,
    maassen_bound_check,
    recover_measure,
    stieltjes_invert,
    stolz_tail_estimate,
    voiculescu_phi,
    weak_distance,
)


def test_cauchy_examples(bernoulli):
    assert cauchy_G(FiniteAtomicMeasure.dirac(0.0), 1j) == pytest.approx(-1j)
    assert cauchy_G(bernoulli, 1j) == pytest.approx(-0.5j)
    assert cauchy_G(FiniteAtomicMeasure.dirac(0.0, 0.5), 2j) == pytest.approx(-0.25j)
    with pytest.raises(ValidationError):
        cauchy_G(bernoulli, 1.0 - 0.5j)


def test_cauchy_bound(rng):
    for _ in range(20):
        mu = random_state_measure(rng)
        for z in (0.3 + 1j, -2.0 + 0.5j, 4j):
            val = cauchy_G(mu, z)
            assert abs(val) <= mu.mass / z.imag + 1e-12
            assert val.imag < 0.0


def test_f_transform_examples(bernoulli):
    f = f_transform(FiniteAtomicMeasure.dirac(2.0))   # z - 2
    assert (f.m, f.gamma) == (1.0, 2.0)
    assert f.sigma.is_zero
    assert e_transform(FiniteAtomicMeasure.dirac(2.0))(5j) == pytest.approx(2.0)

    fb = f_transform(bernoulli)          # z - 1/z, checked against 1/G
    for z in ZR:
        assert fb(z) * cauchy_G(bernoulli, z) == pytest.approx(1.0)
        assert e_transform(bernoulli)(z) == pytest.approx(1.0 / z)

    half = FiniteAtomicMeasure.dirac(0.0, 0.5)
    assert f_transform(half)(1j) == pytest.approx(2j)
    assert abs(e_transform(half)(1j)) <= 1e-15


def test_imaginary_part_growth(rng, bernoulli):
    # equality only for Dirac: strict inequality at 20 random points for >= 2 atoms
    for _ in range(20):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.5, 3.0))
        fb = f_transform(bernoulli)(z)
        assert fb.imag > z.imag / bernoulli.mass + 1e-12
        d = f_transform(FiniteAtomicMeasure.dirac(1.3))(z)
        assert d.imag == pytest.approx(z.imag)


def test_voiculescu_phi_examples(bernoulli):
    assert voiculescu_phi(FiniteAtomicMeasure.dirac(0.7), 20j) == pytest.approx(0.7)
    # closed form for the Bernoulli: phi(z) = (sqrt(z^2+4) - z)/2
    z = 20j
    expected = (cmath.sqrt(z * z + 4.0) - z) / 2.0
    assert voiculescu_phi(bernoulli, z) == pytest.approx(expected, abs=1e-11)
    # translation covariance: phi_{mu + a} = a + phi_mu
    shifted = bernoulli.translate(2.0)
    assert voiculescu_phi(shifted, z) == pytest.approx(2.0 + expected, abs=1e-10)


def test_nevanlinna_examples(bernoulli):
    nev = f_transform(bernoulli)
    assert nev.m == 1.0
    assert nev.gamma == pytest.approx(0.0, abs=1e-14)
    assert nev.sigma.atoms == ((pytest.approx(0.0, abs=1e-14), pytest.approx(1.0)),)

    nev2 = f_transform(FiniteAtomicMeasure.dirac(1.5))
    assert nev2.gamma == pytest.approx(1.5)
    assert nev2.sigma.is_zero

    nev3 = f_transform(FiniteAtomicMeasure.dirac(0.0, 0.5))
    assert (nev3.m, nev3.gamma) == (0.5, pytest.approx(0.0))
    assert nev3.sigma.is_zero


def test_nevanlinna_roundtrip(rng):
    # oracle: F = 1/G from the atom sum; the data survive a trip through
    # the recovered measure
    for _ in range(20):
        mu = random_state_measure(rng)
        nev = f_transform(mu)
        for z in ZR:
            assert abs(nev(z) - 1.0 / cauchy_G(mu, z)) <= 1e-9
        rebuilt = f_transform(recover_measure(nev))
        for z in ZR:
            assert abs(rebuilt(z) - nev(z)) <= 1e-9


def test_nevanlinna_rejects_positive_residue():
    # z + 1/z has residue +1 at 0: sigma would need weight -1
    with pytest.raises(ValidationError):
        NevanlinnaData(1.0, 0.0, FiniteAtomicMeasure((0.0,), (-1.0,), PARAMETER))


def test_recover_examples(bernoulli):
    two = FiniteAtomicMeasure.dirac(0.0, 2.0, PARAMETER)
    mu = recover_measure(NevanlinnaData(1.0, 0.0, two))   # F = z - 2/z
    r2 = math.sqrt(2.0)
    assert mu.positions == (pytest.approx(-r2), pytest.approx(r2))
    assert mu.weights == (pytest.approx(0.5), pytest.approx(0.5))
    assert recover_measure(f_transform(FiniteAtomicMeasure.dirac(1.2))).atoms == (
        (pytest.approx(1.2), pytest.approx(1.0)),)
    quarter = recover_measure(NevanlinnaData(0.25, 0.0, FiniteAtomicMeasure.zero()))  # 4z
    assert quarter.atoms == ((0.0, pytest.approx(0.25)),)


def test_recover_roundtrip(rng):
    for _ in range(100):
        mu = random_state_measure(rng)
        back = recover_measure(f_transform(mu))
        assert len(back.positions) == len(mu.positions)
        for a, b in zip(back.positions, mu.positions):
            assert abs(a - b) <= 1e-8
        for a, b in zip(back.weights, mu.weights):
            assert abs(a - b) <= 1e-8


def test_recover_rejects_non_transforms(monkeypatch):
    zero = FiniteAtomicMeasure.zero()
    for m in (-1.0, 0.0, 1.5):   # F = z/m needs m in (0, 1]
        with pytest.raises(ValidationError):
            NevanlinnaData(m, 0.0, zero)
    with pytest.raises(ValidationError):
        NevanlinnaData(1.0, math.nan, zero)
    # the mass guard: eigen-weights that miss the slope mass raise
    monkeypatch.setattr(transforms, "spectral_measure",
                        lambda a, b: (np.linalg.eigvalsh(a), np.full(len(a), 0.25)))
    with pytest.raises(RecoveryError):
        recover_measure(NevanlinnaData(1.0, 0.0, FiniteAtomicMeasure.dirac(0.0, 1.0, PARAMETER)))


def _g_arcsine(z):
    s = cmath.sqrt(z * z - 4.0)
    return 1.0 / (s if s.imag > 0 else -s)


def _invert_counting_off_grid(g, window, bins, eps=1e-3):
    """stieltjes_invert of a pointwise g, and how many points it asked for off the grid.

    An ndarray call counts as its points, which g evaluates one at a time.
    """
    grid = set(eps_line_grid(window, bins, eps).tolist())
    off_grid = []

    def counted(z):
        points = np.atleast_1d(z).tolist()
        off_grid.extend(p for p in points if p not in grid)
        values = [g(p) for p in points]
        return np.array(values) if isinstance(z, np.ndarray) else values[0]

    return stieltjes_invert(counted, eps, window, bins), len(off_grid)


def test_stieltjes_atoms_and_density():
    res = stieltjes_invert(lambda z: 1.0 / z, 1e-3, (-2.0, 2.0), 400)
    assert len(res.atoms) == 1
    pos, w = res.atoms[0]
    assert abs(pos) <= 1e-6
    assert abs(w - 1.0) <= 1e-3

    res_half = stieltjes_invert(lambda z: 0.5 / (z - 1.0), 1e-3, (-2.0, 2.0), 400)
    assert len(res_half.atoms) == 1
    assert res_half.atoms[0][0] == pytest.approx(1.0, abs=1e-6)
    assert res_half.atoms[0][1] == pytest.approx(0.5, abs=1e-3)

    res_arc, off_grid = _invert_counting_off_grid(_g_arcsine, (-3.0, 3.0), 601)
    assert res_arc.atoms == ()
    # the two edge peaks are dropped by the Poisson-kernel bound long before
    # the 63 evaluations of a full refinement each (126 in all)
    assert off_grid <= 12
    at0 = [d for x, d in res_arc.density if abs(x) < 1e-9][0]
    assert abs(at0 - 1.0 / (2.0 * math.pi)) <= 1e-3


def test_harnack_constant_is_the_poisson_kernel_ratio_supremum():
    """C(r) against a brute-force sup over u of (1 + u^2)/(1 + (u + r)^2)."""
    for r in np.linspace(0.1, 20.0, 24):
        lo, hi = -r - 5.0, 5.0
        for _ in range(4):  # zoom in on the grid maximum
            u = np.linspace(lo, hi, 20001)
            ratio = (1.0 + u * u) / (1.0 + (u + r) ** 2)
            j = int(np.argmax(ratio))
            lo, hi = u[max(j - 2, 0)], u[min(j + 2, u.size - 1)]
        assert abs(transforms._harnack(r) - ratio[j]) <= 1e-9 * ratio[j]


def test_stieltjes_threshold_straddle():
    """Atoms of weight 0.1005 and 0.0995 on an arcsine law: only the first passes 0.1."""
    res, off_grid = _invert_counting_off_grid(
        lambda z: 0.1005 / (z + 3.0) + 0.0995 / (z - 3.0) + 0.8 * _g_arcsine(z), (-4.0, 4.0), 401)
    assert res.atoms == ((-2.999999999989588, 0.10050021742628586),)  # as the full search
    # a full refinement of every candidate makes 254 off-grid calls
    assert off_grid <= 100


def test_stieltjes_evaluates_each_refined_peak_once(monkeypatch):
    """Outside the golden search, g runs on the grid and once at 10 eps per surviving peak."""
    eps, window, bins = 1e-3, (-2.0, 2.0), 401
    calls, in_search = [], []
    golden_max = transforms._golden_max

    def counted_search(fn, *args, **kwargs):
        def counted(x):
            in_search.append(x)
            return fn(x)
        return golden_max(counted, *args, **kwargs)

    def g(z):
        calls.extend(np.atleast_1d(z).tolist())
        return 0.5 / (z + 1.0) + 0.5 / (z - 1.0)

    monkeypatch.setattr(transforms, "_golden_max", counted_search)
    res = stieltjes_invert(g, eps, window, bins)
    assert len(res.atoms) == 2
    assert len(calls) == bins + len(in_search) + len(res.atoms)
    for x, weight in res.atoms:
        assert calls.count(complex(x, eps)) == 1
        assert weight == pytest.approx(0.5, abs=1e-3)


def _peak_candidates_per_bin(a):
    """The candidate rule as a loop over bins: a local maximum of at least 1e-4,
    and of a plateau only its leftmost bin."""
    found = []
    for i in range(len(a)):
        lo, hi = max(0, i - 1), min(len(a), i + 2)
        if a[i] < np.max(a[lo:hi]) or a[i] < 1e-4:
            continue
        if i > 0 and a[i] == a[i - 1]:
            continue
        found.append(i)
    return found


@pytest.mark.parametrize("seed", range(8))
def test_peak_candidates_match_the_per_bin_rule(seed):
    rng = np.random.default_rng(seed)
    # few distinct levels, so plateaus, ties and values below 1e-4 are common
    levels = np.array([0.0, 5e-5, 1e-4, 0.02, 0.3, 0.3 + 1e-12, 1.0])
    a = levels[rng.integers(0, levels.size, size=200)]
    a[rng.integers(0, 200, size=20)] = rng.uniform(0.0, 1.0, size=20)
    got = transforms._peak_candidates(a)
    assert got.tolist() == _peak_candidates_per_bin(a)
    for n in (1, 2, 3):
        assert transforms._peak_candidates(a[:n]).tolist() == _peak_candidates_per_bin(a[:n])


def test_eps_line_grid_is_an_ndarray_of_complex_points():
    grid = eps_line_grid((-1.0, -0.0), 5, 1e-3)
    assert isinstance(grid, np.ndarray) and grid.dtype == complex
    assert grid.tolist() == [complex(x, 1e-3) for x in np.linspace(-1.0, -0.0, 5)]
    assert math.copysign(1.0, grid[-1].real) == -1.0  # as in complex(-0.0, eps)


def test_weak_distance_examples(bernoulli):
    assert weak_distance(bernoulli, bernoulli) == 0.0
    d0 = FiniteAtomicMeasure.dirac(0.0)
    assert weak_distance(d0, FiniteAtomicMeasure.dirac(0.0, 0.5)) == pytest.approx(1.0)
    # Lipschitz bound |1/z - 1/(z-h)| <= h/Im(z)^2
    assert weak_distance(d0, FiniteAtomicMeasure.dirac(0.01)) <= 0.011


def test_weak_distance_pseudometric(rng):
    mus = [random_state_measure(rng) for _ in range(6)]
    for a in mus:
        for b in mus:
            assert weak_distance(a, b) == weak_distance(b, a)
            for c in mus:
                assert weak_distance(a, c) <= (
                    weak_distance(a, b) + weak_distance(b, c) + 1e-12
                )


def test_grid_floor_invariant(bernoulli):
    low = (complex(0.0, 0.1),)
    with pytest.raises(ValidationError):
        TransformGrid.sample(lambda z: cauchy_G(bernoulli, z), low, "G")


def test_weak_distance_grid_needs_zr(bernoulli):
    grid = TransformGrid.sample(lambda z: cauchy_G(bernoulli, z), (3j,), "G", mass=1.0)
    with pytest.raises(ValidationError):
        weak_distance(grid, bernoulli)
    good = TransformGrid.sample(lambda z: cauchy_G(bernoulli, z), ZR, "G", mass=1.0)
    assert weak_distance(good, bernoulli) <= 1e-15


def test_maassen_examples(bernoulli):
    assert maassen_bound_check(bernoulli)
    assert maassen_bound_check(FiniteAtomicMeasure.dirac(3.0))  # equality case
    poisson_row = FiniteAtomicMeasure.from_pairs([(0.0, 0.99), (1.0, 0.01)])
    assert maassen_bound_check(poisson_row)


def test_stolz_tail_estimate():
    n = 100
    row = FiniteAtomicMeasure.from_pairs([(0.0, 1.0 - 1.0 / n), (1.0, 1.0 / n)])
    est = stolz_tail_estimate(row, n, 5.0)
    assert est["tail_left"] <= est["tail_right"] + 1e-12
    assert est["im_left"] <= est["im_right"] * 1.05 + 1e-12
    # identity: the sigma-integral equals (2k/y) Im(F(iy) - iy/m)
    y = 5.0
    f = f_transform(row)
    want = (2.0 * n / y) * (f(complex(0, y)) - complex(0, y) / row.mass).imag
    assert est["tail_right"] == pytest.approx(want, rel=1e-10)

    d0 = FiniteAtomicMeasure.dirac(0.0)
    est0 = stolz_tail_estimate(d0, 10, 5.0)
    assert est0["tail_left"] == 0.0 and est0["tail_right"] == 0.0
    assert abs(est0["im_left"]) <= 1e-12 and abs(est0["im_right"]) <= 1e-12


def test_cplus1_sample_count():
    assert len(CPLUS1_SAMPLES) == 100
    assert all(z.imag >= 1.0 for z in CPLUS1_SAMPLES)


def test_stolz_angle():
    from ncprob.transforms import StolzAngle

    cone = StolzAngle(alpha=1.0, beta=2.0)
    assert cone.contains(0.5 + 3j)
    assert not cone.contains(0.5 + 1j)     # below the height cut
    assert not cone.contains(4.0 + 3.5j)   # outside the aperture
    with pytest.raises(ValidationError):
        StolzAngle(alpha=-1.0, beta=2.0)
