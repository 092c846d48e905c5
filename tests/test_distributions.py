import math

import numpy as np
import pytest
from scipy import integrate

from cdfdamage import damage_laws as dl
from cdfdamage import distributions as dist
from cdfdamage.damage_laws import DamageLaw
from cdfdamage.distributions import DistributionSpec
from cdfdamage.errors import ConfigurationError, DivergenceError, NoClosedFormError


def all_specs():
    """Representative parameter sweep: unit shapes plus the extremes used elsewhere."""
    specs = [
        DistributionSpec("exponential", 1.0),
        DistributionSpec("cauchy", 1.0),
        DistributionSpec("logistic"),
        DistributionSpec("halfnormal"),
        DistributionSpec("chisquare", 2.0),
        DistributionSpec("chisquare", 4.0),
        DistributionSpec("gudermannian"),
        DistributionSpec("rapiddecay"),
    ]
    for n in (0.5, 1.0, 2.0):
        specs += [
            DistributionSpec("radical", n),
            DistributionSpec("piecewise", n),
            DistributionSpec("rational", n),
            DistributionSpec("hypergeometric", n),
            DistributionSpec("power", n),
        ]
    return specs


def unit_specs():
    return [s for s in all_specs() if s.param in (None, 1.0, 2.0) and
            not (s.kind in ("radical", "piecewise") and s.param == 2.0)]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_parameter_validation():
    with pytest.raises(ConfigurationError):
        DistributionSpec("exponential", -1.0)
    with pytest.raises(ConfigurationError):
        DistributionSpec("rational", 3.0)
    with pytest.raises(ConfigurationError):
        DistributionSpec("radical")
    with pytest.raises(ConfigurationError):
        DistributionSpec("logistic", 1.0)
    with pytest.raises(ConfigurationError):
        DistributionSpec("weibull", 1.0)


# ---------------------------------------------------------------------------
# cdf / pdf point values
# ---------------------------------------------------------------------------

def test_cdf_examples():
    assert dist.cdf(DistributionSpec("exponential", 1.0), 0.0) == 0.0
    assert dist.cdf(DistributionSpec("radical", 1.0), 1.0) == pytest.approx(0.5, rel=1e-15)
    assert dist.cdf(DistributionSpec("hypergeometric", 2.0), 1.0) == pytest.approx(
        math.tanh(1.0), rel=1e-12
    )
    assert dist.cdf(DistributionSpec("piecewise", 1.0), 0.25) == pytest.approx(0.25, rel=1e-15)


def test_pdf_examples():
    assert dist.pdf(DistributionSpec("radical", 1.0), 0.0) == pytest.approx(1.0)
    assert dist.pdf(DistributionSpec("hypergeometric", 1.0), 0.0) == pytest.approx(
        2.0 / math.pi, rel=1e-12
    )
    # rapid-decay density tends to 1 from the right at the origin
    assert dist.pdf(DistributionSpec("rapiddecay"), 1e-3) == pytest.approx(1.0, abs=1e-12)


def test_radical_special_cases():
    d = DistributionSpec("radical", 2.0)
    x = 1.7
    assert dist.cdf(d, x) == pytest.approx(x / (1.0 + math.sqrt(x)) ** 2, rel=1e-14)
    d = DistributionSpec("radical", 0.5)
    assert dist.cdf(d, x) == pytest.approx(x / math.sqrt(1.0 + x * x), rel=1e-14)


def test_hypergeometric_reductions():
    xs = np.linspace(0.01, 6.0, 60)
    d1 = DistributionSpec("hypergeometric", 1.0)
    d2 = DistributionSpec("hypergeometric", 2.0)
    for x in xs:
        assert dist.cdf(d1, float(x)) == pytest.approx(
            2.0 / math.pi * math.atan(math.sinh(x)), rel=1e-10
        )
        assert dist.cdf(d2, float(x)) == pytest.approx(math.tanh(x), rel=1e-10)


# ---------------------------------------------------------------------------
# grid invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", all_specs(), ids=lambda s: f"{s.kind}-{s.param}")
def test_cdf_monotone_and_bounded(spec):
    xs = np.geomspace(1e-6, 1e6, 400)
    vals = dist.cdf(spec, xs)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.all(np.diff(vals) >= -1e-15)


@pytest.mark.parametrize("spec", unit_specs(), ids=lambda s: f"{s.kind}-{s.param}")
def test_cdf_saturates(spec):
    # The 1e-4 deficit at x = 1e6 holds for the unit-shape members;
    # the heaviest algebraic tails (radical/piecewise with n = 2) decay like
    # x^(-1/2) and are checked at their true rate below.
    assert dist.cdf(spec, 1e6) >= 1.0 - 1e-4


def test_heavy_tail_rates():
    assert dist.cdf(DistributionSpec("radical", 2.0), 1e6) >= 1.0 - 2.1e-3
    assert dist.cdf(DistributionSpec("piecewise", 2.0), 1e6) >= 1.0 - 4e-4


@pytest.mark.parametrize("spec", all_specs(), ids=lambda s: f"{s.kind}-{s.param}")
def test_pdf_nonnegative(spec):
    xs = np.geomspace(1e-6, 1e6, 200)
    vals = dist.pdf(spec, xs)
    assert np.all(np.asarray(vals) >= 0.0)


def _fd_cdf(spec, x, h):
    # five-point central difference of the cdf
    f = lambda v: dist.cdf(spec, v)
    return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)


@pytest.mark.parametrize("spec", all_specs(), ids=lambda s: f"{s.kind}-{s.param}")
def test_pdf_consistent_with_cdf_derivative(spec):
    if spec.kind == "logistic":
        pytest.skip("logistic density is doubled by design; covered separately")
    xs = np.geomspace(1e-2, 50.0, 100)
    kinks = []
    if spec.kind == "piecewise":
        kinks = [1.0 / (spec.param + 1.0)]
    elif spec.kind == "power":
        kinks = [1.0]
    for x in xs:
        if any(abs(x - kk) < 0.05 for kk in kinks):
            continue
        h = 1e-4 * max(1.0, x)
        assert abs(dist.pdf(spec, float(x)) - _fd_cdf(spec, float(x), h)) <= 1e-6


def test_logistic_density_doubles_cdf_slope():
    # the doubled density is twice the slope of the full-line CDF and exactly
    # the slope of the half-line renormalized CDF
    d = DistributionSpec("logistic")
    for x in (0.2, 1.0, 3.0):
        fd = _fd_cdf(d, x, 1e-5)
        assert dist.pdf(d, x) == pytest.approx(2.0 * fd, rel=1e-8)
        half = dist.cdf_halfline(d, x)
        assert half == pytest.approx(math.tanh(0.5 * x), rel=1e-12)


def test_halfline_transform_of_cauchy():
    d = DistributionSpec("cauchy", 2.0)
    assert dist.cdf_halfline(d, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert dist.cdf_halfline(d, 2.0) == pytest.approx(0.5, rel=1e-12)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

_CONVERGENT_PAIRS = [
    ("radical", 1.0, 0.3),
    ("radical", 1.0, 0.7),
    ("piecewise", 1.0, 0.25),
    ("piecewise", 1.0, 0.5),
    ("rational", 1.0, 0.3),
    ("rational", 1.0, 0.5),
    ("halfnormal", None, 1.0),
    ("halfnormal", None, 2.0),
    ("gudermannian", None, 0.5),
    ("gudermannian", None, 1.0),
    ("rapiddecay", None, 0.25),
    ("rapiddecay", None, 0.5),
]


@pytest.mark.parametrize("kind,n,m", _CONVERGENT_PAIRS)
def test_moment_closed_vs_numeric(kind, n, m):
    d = DistributionSpec(kind, n)
    res = dist.moment_closed(d, m)
    assert res.convergent
    assert dist.moment_numeric(d, m) == pytest.approx(res.value, rel=1e-6)


def test_moment_point_values():
    assert dist.moment_closed(DistributionSpec("radical", 1.0), 0.5).value == pytest.approx(
        math.pi / 2.0, rel=1e-12
    )
    assert dist.moment_closed(DistributionSpec("piecewise", 1.0), 0.5).value == pytest.approx(
        2.0**-0.5 / (1.5 * 0.5), rel=1e-12
    )
    assert dist.moment_numeric(DistributionSpec("exponential", 1.0), 1.0) == pytest.approx(
        1.0, rel=1e-9
    )
    assert dist.moment_numeric(DistributionSpec("halfnormal"), 1.0) == pytest.approx(
        1.0 / math.sqrt(math.pi), rel=1e-9
    )


def test_moment_divergence_and_signals():
    res = dist.moment_closed(DistributionSpec("radical", 1.0), 1.0)
    assert not res.convergent
    with pytest.raises(NoClosedFormError):
        dist.moment_closed(DistributionSpec("exponential", 1.0), 1.0)
    with pytest.raises(DivergenceError):
        dist.moment_numeric(DistributionSpec("cauchy", 1.0), 1.0)
    with pytest.raises(DivergenceError):
        dist.moment_numeric(DistributionSpec("radical", 1.0), 1.5)


def test_uniform_degeneration_as_shape_vanishes():
    # radical and piecewise tend to Uniform[0,1] as n -> 0+
    for kind in ("radical", "piecewise"):
        d = DistributionSpec(kind, 1e-3)
        xs = np.linspace(0.05, 0.9, 30)
        vals = dist.pdf(d, xs)
        assert np.all(np.abs(np.asarray(vals) - 1.0) <= 0.02), kind
        assert dist.pdf(d, 2.0) <= 0.02


# ---------------------------------------------------------------------------
# survival integral and saturation search
# ---------------------------------------------------------------------------

_SURVIVAL_SPECS = [
    DistributionSpec("exponential", 2.0),
    DistributionSpec("cauchy", 2.0),
    DistributionSpec("logistic"),
    DistributionSpec("halfnormal"),
    DistributionSpec("chisquare", 1.0),
    DistributionSpec("chisquare", 3.0),
    DistributionSpec("gudermannian"),
    DistributionSpec("rapiddecay"),
    DistributionSpec("radical", 0.5),
    DistributionSpec("hypergeometric", 0.5),
    DistributionSpec("rational", 0.5),
    DistributionSpec("rational", 2.0),
    DistributionSpec("power", 1.0),
    DistributionSpec("power", 2.0),
] + [DistributionSpec("piecewise", n) for n in (0.5, 1.0, 2.0)]

# exact values of S(y): (spec, y, S)
_SURVIVAL_VALUES = [
    (DistributionSpec("exponential", 2.0), 1.0, (1 - math.exp(-2.0)) / 2.0),
    (DistributionSpec("power", 1.0), 0.5, 0.5 - 0.125),
    (DistributionSpec("power", 1.0), 3.0, 0.5),
    # the half-line logistic CDF is tanh(x/2): S(y) = y - 2 ln cosh(y/2)
    (DistributionSpec("logistic"), 3.0, 3.0 - 2.0 * math.log(math.cosh(1.5))),
]


@pytest.mark.parametrize("spec", _SURVIVAL_SPECS, ids=lambda s: f"{s.kind}-{s.param}")
def test_survival_integral_closed_forms(spec):
    # S(y) against quadrature of 1 - F on the half line
    kink = _kink(spec)
    for y in np.geomspace(1e-2, 1e2, 9):
        want, _ = integrate.quad(lambda s: 1.0 - dist.cdf_halfline(spec, s), 0.0, y,
                                 points=[kink] if kink is not None and kink < y else None,
                                 epsabs=1e-15, epsrel=1e-13, limit=400)
        assert dist.survival_integral(spec, float(y)) == pytest.approx(want, rel=1e-10), y
    for s, y, want in _SURVIVAL_VALUES:
        if s == spec:
            assert dist.survival_integral(spec, y) == pytest.approx(want, rel=1e-12)
    # S(inf) equals the first moment where it exists
    if spec == DistributionSpec("radical", 0.5):
        m1 = dist.moment_closed(spec, 1.0).value
        assert dist.survival_integral(spec, 1e8) == pytest.approx(m1, rel=1e-3)

    # 0-d, 1-d and 2-d input give the element-wise scalar results in the
    # input's shape; to round-off only, since numpy's power loop can round
    # differently with the array length
    law = DamageLaw(spec.kind, n=spec.param if spec.kind not in ("exponential", "cauchy") else None)
    grid = np.array([[0.0, 0.03, 0.7], [1.3, 4.0, 30.0]])
    for fn, arg in ((dist.cdf, spec), (dist.pdf, spec), (dist.survival_integral, spec),
                    (dl.psi, law), (dl.degradation, law)):
        scalar = np.array([[fn(arg, float(v)) for v in row] for row in grid])
        assert all(type(fn(arg, float(v))) is float for v in grid.ravel())
        assert np.shape(fn(arg, grid)) == grid.shape
        np.testing.assert_allclose(fn(arg, grid), scalar, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(fn(arg, grid[1]), scalar[1], rtol=1e-15, atol=0.0)
        zero_d = fn(arg, np.array(grid[1, 1]))
        assert np.shape(zero_d) == ()
        np.testing.assert_allclose(zero_d, scalar[1, 1], rtol=1e-15, atol=0.0)


def _kink(spec):
    if spec.kind == "piecewise":
        return 1.0 / (spec.param + 1.0)
    if spec.kind == "power":
        return 1.0
    return None


def test_saturation_point():
    assert dist.saturation_point(DistributionSpec("power", 1.0)) == pytest.approx(1.0, abs=1e-9)
    sc = dist.saturation_point(DistributionSpec("exponential", 1.0))
    assert sc is not None and 1.0 - dist.cdf(DistributionSpec("exponential", 1.0), sc) <= 1e-12
    assert dist.saturation_point(DistributionSpec("radical", 1.0), bound=1e6) is None
