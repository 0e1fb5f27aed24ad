import math

import numpy as np
import pytest
from scipy.integrate import quad

import cuspeig as ce
from cuspeig.bounds import BoundConfigError, _objective, _stationary_points

TWELVE_PI = 12.0 * math.pi


@pytest.fixture(scope="module")
def domain_gamma4():
    return ce.CuspDomain((1.5, 1.5))


@pytest.fixture(scope="module")
def cfg_gamma4(domain_gamma4):
    return ce.ExponentConfig(p=3.0, q=2.0, s=1.5, r=2.5, n=3, gamma=4.0)


class TestExponentConfig:
    def test_valid(self, cfg_gamma4):
        assert cfg_gamma4.p_star_gamma == pytest.approx(12.0)
        assert cfg_gamma4.delta == pytest.approx(4.0 / 15.0)

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(p=3.0, q=2.0, s=3.5, r=4.0, n=3, gamma=4.0), "1<s<p<gamma"),
            (dict(p=3.0, q=13.0, s=1.5, r=14.0, n=3, gamma=4.0), "p\\*_gamma"),
            (dict(p=3.0, q=2.0, s=1.5, r=1.5, n=3, gamma=4.0), "q<r"),
            (dict(p=3.0, q=2.0, s=2.9, r=2.5, n=3, gamma=4.0), "1/s-1/r"),
        ],
    )
    def test_invalid(self, kwargs, match):
        with pytest.raises(BoundConfigError, match=match):
            ce.ExponentConfig(**kwargs)

    def test_defaults_rule(self, domain_gamma4):
        cfg = ce.ExponentConfig.from_domain(domain_gamma4, 3.0, 2.0)
        # s targets ns/(n-s) = 1.05 * p*_gamma, clamped into the window;
        # r is the midpoint of q and the subcritical ceiling.
        s_rule = 3 * (1.05 * 12.0) / (3 + 1.05 * 12.0)
        s_window = 4.0 * 3.0 * 3 / (4.0 * 3.0 + 3 * (4.0 - 3.0))
        assert cfg.s == pytest.approx(min(s_rule, 0.98 * s_window))
        ceiling = min(12.0, 3 * cfg.s / (3 - cfg.s))
        assert cfg.r == pytest.approx(0.5 * (2.0 + ceiling))
        lo, hi = ce.admissible_interval(cfg)
        assert lo < hi

    @pytest.mark.parametrize("gamma", [3.2, 3.5, 4.0, 5.0, 5.9, 8.0])
    def test_defaults_always_admissible(self, gamma):
        sigma = (gamma - 1.0) / 2.0
        cfg = ce.ExponentConfig.from_domain(ce.CuspDomain((sigma, sigma)), 3.0, 2.0)
        assert cfg.gamma == pytest.approx(gamma, rel=1e-15)
        lo, hi = ce.admissible_interval(cfg)
        assert lo < hi

    @pytest.mark.parametrize("gammas", [(2.0,), (1.0, 1.0)])
    @pytest.mark.parametrize("p", [3.0, 3.5])
    def test_defaults_reject_p_at_or_above_gamma(self, gammas, p):
        # gamma = 3 for both domains: p = gamma used to divide by zero, and
        # p > gamma used to blame the derived s.
        with pytest.raises(BoundConfigError, match="requires p < gamma"):
            ce.ExponentConfig.from_domain(ce.CuspDomain(gammas), p, 2.0)


class TestKps:
    def test_lipschitz_all_terms_vanish(self):
        value = ce.k_ps_bound(1.0, 3.0, ce.CuspDomain((1.0, 1.0)))
        assert value == pytest.approx(math.sqrt(3.0), rel=1e-15)

    def test_cubed_value_relation(self):
        # k(1)**3 reproduces ((g1-1)^2 + (g2-1)^2 + 3)**(3/2).
        for g1, g2 in [(1.0, 1.0), (1.5, 1.5), (2.0, 1.2)]:
            value = ce.k_ps_bound(1.0, 3.0, ce.CuspDomain((g1, g2)))
            expected = ((g1 - 1) ** 2 + (g2 - 1) ** 2 + 3.0) ** 1.5
            assert value**3 == pytest.approx(expected, rel=1e-13)

    def test_direct_arithmetic(self):
        value = ce.k_ps_bound(2.0, 2.0, ce.CuspDomain((3.0,)))
        assert value == pytest.approx(math.sqrt(15.0), rel=1e-14)

    def test_window_rejection(self):
        domain = ce.CuspDomain((3.0,))  # n=2, gamma=4
        with pytest.raises(BoundConfigError, match="a <"):
            ce.k_ps_bound(3.0, 1.5, domain, s=1.2)


class TestMrq:
    def test_unit_exponent(self, cfg_gamma4):
        assert ce.m_rq_bound(1.0, 2.0, cfg_gamma4) == 1.0

    def test_powers(self, cfg_gamma4):
        assert ce.m_rq_bound(2.0, 2.0, cfg_gamma4) == pytest.approx(math.sqrt(2.0))
        assert ce.m_rq_bound(1.5, 3.0, cfg_gamma4) == pytest.approx(
            1.5 ** (1.0 / 3.0), rel=1e-14
        )

    def test_divergent_rejection(self, cfg_gamma4):
        with pytest.raises(BoundConfigError, match="n/gamma"):
            ce.m_rq_bound(0.5, 2.0, cfg_gamma4)

    def test_exact_lipschitz_case(self):
        cfg = ce.ExponentConfig(p=2.5, q=2.0, s=1.5, r=2.5, n=3, gamma=3.0)
        domain = ce.CuspDomain((1.0, 1.0))
        expected = (1.0 / 3.0) ** ((2.5 - 2.0) / (2.5 * 2.0))
        assert ce.m_rq_exact(1.0, cfg, domain) == pytest.approx(expected, rel=1e-14)

    def test_exact_against_quadrature_oracle(self, cfg_gamma4, domain_gamma4):
        # 1-D integral of (x**(a*gamma-n))**(r/(r-q)) * x**(n-1).
        a = 1.2
        power = cfg_gamma4.r / (cfg_gamma4.r - cfg_gamma4.q)
        integral, err = quad(
            lambda x: (x ** (a * 4.0 - 3.0)) ** power * x**2,
            0.0,
            1.0,
            epsabs=1e-14,
            epsrel=1e-14,
        )
        oracle = a ** (1.0 / cfg_gamma4.q) * integral ** (
            (cfg_gamma4.r - cfg_gamma4.q) / (cfg_gamma4.r * cfg_gamma4.q)
        )
        value = ce.m_rq_exact(a, cfg_gamma4, domain_gamma4)
        assert value == pytest.approx(oracle, rel=1e-10)

    def test_exact_below_bound(self, cfg_gamma4, domain_gamma4):
        for a in np.linspace(0.76, 2.9, 25):
            exact = ce.m_rq_exact(a, cfg_gamma4, domain_gamma4)
            assert exact <= ce.m_rq_bound(a, 2.0, cfg_gamma4) * (1.0 + 1e-14)


class TestBrs:
    def test_reference_value(self):
        value = ce.b_rs_estimate(3, 2.5, 1.5)
        expected = (
            3.0
            * 11.0 ** (11.0 / 15.0)
            * (4.0 * math.pi / 3.0) ** (2.0 / 3.0)
            * (1.0 / 24.0) ** (1.0 / 15.0)
        )
        assert value == pytest.approx(expected, rel=1e-14)
        assert value == pytest.approx(36.6, abs=0.05)
        assert value <= TWELVE_PI

    def test_equal_exponents(self):
        value = ce.b_rs_estimate(3, 2.0, 2.0)
        expected = 9.0 * (4.0 * math.pi / 3.0) ** (2.0 / 3.0) * (1.0 / 24.0) ** (1.0 / 3.0)
        assert value == pytest.approx(expected, rel=1e-14)

    def test_supercritical_rejection(self):
        with pytest.raises(BoundConfigError, match="1/s-1/r"):
            ce.b_rs_estimate(3, 50.0, 1.1)


class TestAdmissibleInterval:
    def test_direct_arithmetic(self):
        cfg = ce.ExponentConfig(p=3.0, q=2.0, s=1.5, r=2.5, n=3, gamma=5.0)
        lo, hi = ce.admissible_interval(cfg)
        assert lo == pytest.approx(0.6)
        assert hi == pytest.approx(1.5)

    @pytest.mark.parametrize("gamma", [3.2, 4.0, 5.0, 5.9])
    def test_unit_exponent_admissible_in_window(self, gamma):
        cfg = ce.ExponentConfig(p=3.0, q=2.0, s=1.5, r=2.5, n=3, gamma=gamma)
        lo, hi = ce.admissible_interval(cfg)
        assert lo < 1.0 < hi

    def test_lipschitz_lower_endpoint(self):
        cfg = ce.ExponentConfig(p=2.5, q=2.0, s=1.5, r=2.5, n=3, gamma=3.0)
        lo, _hi = ce.admissible_interval(cfg)
        assert lo == pytest.approx(1.0)

    def test_empty_interval(self):
        # gamma far above p with s close to p empties the window.
        cfg = ce.ExponentConfig(p=2.1, q=1.5, s=2.0, r=2.8, n=3, gamma=12.0)
        with pytest.raises(BoundConfigError, match="empty"):
            ce.admissible_interval(cfg)


class TestLambdaLowerBound:
    def test_report_invariants(self, cfg_gamma4, domain_gamma4):
        report = ce.lambda_lower_bound(cfg_gamma4, domain_gamma4)
        lo, hi = report.interval
        assert lo < report.a_star < hi
        assert report.lambda_lower == pytest.approx(
            1.0 / report.upper_on_inverse_lambda, rel=1e-15
        )
        assert report.lambda_lower > 0.0
        objectives = [f for _, f in report.evaluations]
        assert report.upper_on_inverse_lambda <= min(objectives) * (1.0 + 1e-12)

    def test_product_identity(self, cfg_gamma4, domain_gamma4):
        report = ce.lambda_lower_bound(cfg_gamma4, domain_gamma4)
        for a, objective in report.evaluations[::37]:
            product = (
                ce.k_ps_bound(a, 3.0, domain_gamma4, s=1.5)
                * ce.m_rq_bound(a, 2.0, cfg_gamma4)
                * report.b_rs
            ) ** 3.0
            assert product == pytest.approx(objective, rel=1e-12)

    def test_explicit_sample_value(self, cfg_gamma4, domain_gamma4):
        # F(1) = (0.25 + 0.25 + 3)**1.5 * B**3 for gamma_i = 1.5.
        report = ce.lambda_lower_bound(cfg_gamma4, domain_gamma4, fixed_a=1.0)
        expected = 3.5**1.5 * report.b_rs**3
        assert report.upper_on_inverse_lambda == pytest.approx(expected, rel=1e-13)

    def test_objective_monotone_in_exponents(self):
        # At fixed a >= 1 each (a g_i - 1)^2 term grows with g_i.
        b_const = ce.b_rs_estimate(3, 2.5, 1.5)
        for a in (1.0, 1.3):
            values = []
            for g in (1.0, 1.25, 1.5, 2.0, 2.5):
                square_sum = 2 * (a * g - 1.0) ** 2 + 2.0 + a * a
                values.append(a**0.5 * square_sum**1.5 * b_const**3)
            assert all(v1 <= v2 for v1, v2 in zip(values, values[1:]))

    def test_pinned_bound_matches_lambda32_form(self, cfg_gamma4, domain_gamma4):
        report = ce.lambda_lower_bound(
            cfg_gamma4, domain_gamma4, fixed_a=1.0, b_constant=TWELVE_PI
        )
        assert report.lambda_lower == pytest.approx(
            ce.lambda_32_lower_bound(1.5, 1.5), rel=1e-12
        )

    def test_pin_outside_window_rejected(self, cfg_gamma4, domain_gamma4):
        lo, hi = ce.admissible_interval(cfg_gamma4)
        for a in (hi, lo - 5e-13):
            with pytest.raises(BoundConfigError, match="outside admissible interval"):
                ce.lambda_lower_bound(cfg_gamma4, domain_gamma4, fixed_a=a)
        report = ce.lambda_lower_bound(cfg_gamma4, domain_gamma4, fixed_a=lo)
        assert report.a_star == lo

    def test_pin_at_open_lower_end_rejected(self):
        # At gamma = n the distortion's open lower end (n-p)/(gamma-p)
        # reaches n/gamma = 1, so a = 1 is refused there, with the window's
        # own message rather than k_ps_bound's; just above it is admissible.
        domain = ce.CuspDomain((1.0, 1.0))
        with pytest.raises(BoundConfigError, match=r"outside admissible interval \(1, "):
            ce.lower_bound_report(domain, 2.5, 2.0, fixed_a=1.0)
        report, _, _ = ce.lower_bound_report(domain, 2.5, 2.0, fixed_a=1.0 + 1e-6)
        assert report.a_star == 1.0 + 1e-6
        assert report.lambda_lower > 0.0

    def test_minimizer_is_a_window_end_or_stationary(self, cfg_gamma4, domain_gamma4):
        # d ln F/da vanishes at the quadratic's roots (here outside the
        # window; q >= p makes them real); the window end beats a dense
        # sample of the window.
        b_const = ce.b_rs_estimate(3, 2.5, 1.5)
        assert _stationary_points(3.0, 2.0, domain_gamma4) == []
        for p, q in ((3.0, 9.0), (1.5, 2.0), (2.0, 2.0)):
            roots = _stationary_points(p, q, domain_gamma4)
            assert len(roots) == 2
            for a in roots:
                if a <= 0.0:
                    continue
                h = 1e-6 * a
                up = math.log(_objective(a + h, p, q, domain_gamma4, b_const))
                down = math.log(_objective(a - h, p, q, domain_gamma4, b_const))
                assert abs(up - down) / (2 * h) < 1e-7
        report = ce.lambda_lower_bound(cfg_gamma4, domain_gamma4)
        lo, hi = report.interval
        dense = np.linspace(lo + 1e-9, hi - 1e-9, 20_001)
        f_min = min(_objective(a, 3.0, 2.0, domain_gamma4, report.b_rs) for a in dense)
        assert report.upper_on_inverse_lambda <= f_min

    def test_two_dimensional_gate(self):
        domain = ce.CuspDomain((2.0,))
        cfg = ce.ExponentConfig(p=1.6, q=1.3, s=1.2, r=1.9, n=2, gamma=3.0)
        with pytest.raises(BoundConfigError, match="n >= 3"):
            ce.lambda_lower_bound(cfg, domain)
        report = ce.lambda_lower_bound(cfg, domain, allow_n2=True)
        assert report.lambda_lower > 0.0


class TestLambda32:
    def test_display_value(self):
        expected = (TWELVE_PI * math.sqrt(3.0)) ** (-3.0)
        assert ce.lambda_32_lower_bound(1.0, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_direct_substitution(self):
        expected = TWELVE_PI ** (-3.0) * 3.5 ** (-1.5)
        assert ce.lambda_32_lower_bound(1.5, 1.5) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("g1,g2", [(2.5, 2.5), (4.0, 1.5)])
    def test_window_rejection(self, g1, g2):
        with pytest.raises(BoundConfigError, match="3 <= gamma < 6"):
            ce.lambda_32_lower_bound(g1, g2)


class TestLowerBoundReport:
    def test_composite_path_fills_exponents(self):
        domain = ce.CuspDomain((1.5, 1.5))
        report, s, r = ce.lower_bound_report(domain, 3.0, 2.0)
        cfg = ce.ExponentConfig.from_domain(domain, 3.0, 2.0)
        assert (s, r) == (cfg.s, cfg.r)
        assert report.as_dict() == ce.lambda_lower_bound(cfg, domain).as_dict()

    def test_lipschitz_corner_keeps_distortion(self):
        # At a = 1 on the reference cone k_ps = sqrt(3), not 1.
        report, s, r = ce.lower_bound_report(ce.CuspDomain((1.0, 1.0)), 3.0, 2.0)
        assert (s, r) == (1.5, 2.5)
        assert report.k_ps == pytest.approx(math.sqrt(3.0), rel=1e-15)
        expected = (math.sqrt(3.0) * ce.b_rs_estimate(3, 2.5, 1.5)) ** (-3.0)
        assert report.lambda_lower == pytest.approx(expected, rel=1e-14)
        assert report.interval == (1.0, 1.0)
        assert report.evaluations == [(1.0, report.upper_on_inverse_lambda)]

    @pytest.mark.parametrize("p,fixed_a", [(3.5, None), (3.0, 1.2)])
    def test_rejects_other_degenerate_cases(self, p, fixed_a):
        with pytest.raises(BoundConfigError, match="requires p < gamma"):
            ce.lower_bound_report(ce.CuspDomain((1.0, 1.0)), p, 2.0, fixed_a=fixed_a)
