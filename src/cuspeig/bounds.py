"""Closed-form lower bounds on the first nontrivial Neumann (p,q)-eigenvalue.

The composition method transports a Sobolev-Poincare inequality from the
reference cone onto the cusp domain through the map phi_a and yields

    1/lambda  <=  inf_a  K(a)^p * M(a)^p * B^p,

where K(a) bounds the (p,s)-distortion of phi_a, M(a) the L^{r/(r-q)}
Jacobian factor, and B a Sobolev-Poincare constant of the cone.  All three
factors are available in closed form, and so is the infimum: the
stationarity condition of the product in a is a quadratic, so the minimizer
is a window end or one of its roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import CuspDomain

TWELVE_PI = 12.0 * math.pi

# Open-interval endpoints are shrunk by this margin before optimizing;
# the objective extends continuously to the closure.
_ENDPOINT_MARGIN = 1e-9

# Samples of the objective across the window, reported with the bound.
_SCAN_POINTS = 512


class BoundConfigError(ValueError):
    """Exponent tuple violates an admissibility condition."""


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n (pi for n=2, 4*pi/3 for n=3)."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def p_star_gamma(p: float, gamma: float) -> float:
    """Critical embedding exponent gamma p / (gamma - p), for p < gamma."""
    return gamma * p / (gamma - p)


@dataclass(frozen=True)
class ExponentConfig:
    """Admissible exponent tuple (p, q, s, r) for dimension n and cusp gamma.

    Validity requires 1 < s < p < gamma, 1 < q < p*_gamma, q < r, s < n,
    and 0 <= 1/s - 1/r < 1/n, where p*_gamma = gamma p / (gamma - p) is the
    critical embedding exponent.  The last condition is r < ns/(n-s), i.e.
    the reference-cone Poincare pair (r, s) stays subcritical.
    """

    p: float
    q: float
    s: float
    r: float
    n: int
    gamma: float

    def __post_init__(self):
        p, q, s, r, n, gamma = self.p, self.q, self.s, self.r, self.n, self.gamma
        if not (1.0 < s < p < gamma):
            raise BoundConfigError(f"requires 1<s<p<gamma, got s={s}, p={p}, gamma={gamma}")
        if not gamma >= n:
            raise BoundConfigError(f"requires gamma >= n, got gamma={gamma}, n={n}")
        if not (1.0 < q < self.p_star_gamma):
            raise BoundConfigError(
                f"requires 1<q<p*_gamma={self.p_star_gamma:.6g}, got q={q}"
            )
        if not q < r:
            raise BoundConfigError(f"requires q<r, got q={q}, r={r}")
        if not s < n:
            raise BoundConfigError(f"requires s<n, got s={s}, n={n}")
        delta = 1.0 / s - 1.0 / r
        if not (0.0 <= delta < 1.0 / n):
            raise BoundConfigError(
                f"requires 0 <= 1/s-1/r < 1/n (i.e. s <= r < ns/(n-s)), "
                f"got delta={delta:.6g}"
            )

    @property
    def p_star_gamma(self) -> float:
        return p_star_gamma(self.p, self.gamma)

    @property
    def delta(self) -> float:
        return 1.0 / self.s - 1.0 / self.r

    @classmethod
    def from_domain(
        cls,
        domain: CuspDomain,
        p: float,
        q: float,
        s: float | None = None,
        r: float | None = None,
    ) -> "ExponentConfig":
        """Config for (p, q) on ``domain``, filling (s, r) when not given.

        s is chosen so that ns/(n-s) exceeds p*_gamma by 5 percent, clamped
        so the mapping-exponent window stays nonempty (for gamma close to p
        the unclamped rule empties it); r sits halfway between q and the
        subcritical ceiling.  Both can be overridden.
        """
        n, gamma = domain.n, domain.gamma
        if not p < gamma:
            raise BoundConfigError(f"requires p < gamma, got p={p}, gamma={gamma}")
        p_star = p_star_gamma(p, gamma)
        if s is None:
            target = 1.05 * p_star
            s = n * target / (n + target)
            # Nonempty window needs p(n-s)/(s(gamma-p)) > n/gamma.
            s_window = gamma * p * n / (gamma * p + n * (gamma - p))
            s = min(s, 0.98 * s_window)
        if r is None:
            r = 0.5 * (q + min(p_star, n * s / (n - s)))
        return cls(p=p, q=q, s=s, r=r, n=n, gamma=gamma)


def k_ps_bound(a: float, p: float, domain: CuspDomain, s: float | None = None) -> float:
    """Distortion bound a**(-1/p) * sqrt(sum (a g_i - 1)^2 + n - 1 + a^2).

    Bounds the (p,s)-distortion of phi_a on the reference cone.  The
    admissible window is (n-p)/(gamma-p) < a < p(n-s)/(s(gamma-p)); the
    upper end is only checked when s is supplied.
    """
    n, gamma = domain.n, domain.gamma
    if gamma < p:
        raise BoundConfigError(f"requires p <= gamma, got p={p}, gamma={gamma}")
    if gamma > p:
        # The admissibility window degenerates at gamma = p (Lipschitz
        # corner); there the formula is evaluated as a continuous limit.
        lo = (n - p) / (gamma - p)
        if not a > lo:
            raise BoundConfigError(f"requires a > (n-p)/(gamma-p)={lo:.6g}, got a={a}")
        if s is not None:
            hi = p * (n - s) / (s * (gamma - p))
            if not a < hi:
                raise BoundConfigError(
                    f"requires a < p(n-s)/(s(gamma-p))={hi:.6g}, got a={a}"
                )
    if not a > 0.0:
        raise BoundConfigError(f"requires a > 0, got a={a}")
    square_sum = sum((a * g - 1.0) ** 2 for g in domain.gamma_exponents)
    return a ** (-1.0 / p) * math.sqrt(square_sum + (n - 1) + a * a)


def m_rq_bound(a: float, q: float, cfg: ExponentConfig) -> float:
    """Jacobian factor bound a**(1/q), valid for a >= n/gamma.

    Below n/gamma the chain a > nq/(gamma r) can fail and the integral may
    diverge; at a = n/gamma (the Lipschitz corner a = 1, gamma = n) the
    integrand exponent vanishes and the bound still holds.
    """
    if not a >= cfg.n / cfg.gamma:
        raise BoundConfigError(
            f"requires a >= n/gamma={cfg.n / cfg.gamma:.6g} for a convergent "
            f"Jacobian integral, got a={a}"
        )
    return a ** (1.0 / q)


def m_rq_exact(a: float, cfg: ExponentConfig, domain: CuspDomain) -> float:
    """Exact Jacobian factor of phi_a on the reference cone.

    Integrating |J|**(r/(r-q)) over the cone reduces to
    int_0^1 x**(E + n - 1) dx with E = (a gamma - n) r / (r - q), giving
    a**(1/q) * (1/(E + n))**((r-q)/(r q)).  Never exceeds a**(1/q).
    """
    n, gamma, r, q = domain.n, domain.gamma, cfg.r, cfg.q
    exponent = (a * gamma - n) * r / (r - q)
    if not exponent + n - 1.0 > -1.0:
        raise BoundConfigError(
            f"divergent Jacobian integral: requires (a*gamma-n)r/(r-q)+n-1 > -1, "
            f"got {exponent + n - 1.0:.6g}"
        )
    return a ** (1.0 / q) * (1.0 / (exponent + n)) ** ((r - q) / (r * q))


def b_rs_estimate(n: int, r: float, s: float) -> float:
    """(r,s)-Sobolev-Poincare constant estimate for the reference cone.

    Evaluates n * ((1-d)/(1/n-d))**(1-d) * w_n**(1-1/n) * (1/(n+1)!)**(1/n-d)
    with d = 1/s - 1/r and w_n the unit-ball volume.  Requires 0 <= d < 1/n.
    """
    delta = 1.0 / s - 1.0 / r
    if not (0.0 <= delta < 1.0 / n):
        raise BoundConfigError(
            f"requires 0 <= 1/s-1/r < 1/n, got delta={delta:.6g} for n={n}"
        )
    omega = unit_ball_volume(n)
    return (
        n
        * ((1.0 - delta) / (1.0 / n - delta)) ** (1.0 - delta)
        * omega ** (1.0 - 1.0 / n)
        * (1.0 / math.factorial(n + 1)) ** (1.0 / n - delta)
    )


def admissible_interval(cfg: ExponentConfig) -> tuple[float, float]:
    """Window (n/gamma, p(n-s)/(s(gamma-p))) of admissible mapping exponents.

    The lower endpoint dominates (n-p)/(gamma-p), so n/gamma is the binding
    constraint, and admissible itself except at gamma = n, where the two
    coincide.  Raises when the window is empty; pick a smaller s then.
    """
    lo = cfg.n / cfg.gamma
    hi = cfg.p * (cfg.n - cfg.s) / (cfg.s * (cfg.gamma - cfg.p))
    if not lo < hi:
        raise BoundConfigError(
            f"empty admissible interval ({lo:.6g}, {hi:.6g}); decrease s"
        )
    return lo, hi


@dataclass
class BoundReport:
    """Optimized composite bound: lambda >= 1 / upper_on_inverse_lambda."""

    a_star: float
    k_ps: float
    m_rq: float
    b_rs: float
    upper_on_inverse_lambda: float
    lambda_lower: float
    interval: tuple[float, float]
    evaluations: list[tuple[float, float]] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "a_star": self.a_star,
            "k_ps": self.k_ps,
            "m_rq": self.m_rq,
            "b_rs": self.b_rs,
            "upper_on_inverse_lambda": self.upper_on_inverse_lambda,
            "lambda_lower": self.lambda_lower,
            "interval": list(self.interval),
        }


def _objective(a: float, p: float, q: float, domain: CuspDomain, b_const: float) -> float:
    """F(a) = a**(p/q-1) Q(a)**(p/2) B**p, Q(a) = sum (a g_i - 1)^2 + n - 1 + a^2."""
    square_sum = sum((a * g - 1.0) ** 2 for g in domain.gamma_exponents)
    try:
        val = a ** (p / q - 1.0) * (square_sum + (domain.n - 1) + a * a) ** (p / 2.0) * b_const**p
    except OverflowError:  # a float power raises; a product of finite ones gives inf
        val = math.inf
    if not math.isfinite(val):
        raise BoundConfigError(f"non-finite objective at a={a}")
    return val


def _stationary_points(p: float, q: float, domain: CuspDomain) -> list[float]:
    """Real roots of d ln F/da = 0.

    With Q(a) = (1 + sum g_i^2) a^2 - 2 (sum g_i) a + 2(n-1) the condition
    (p/q-1) Q + (p/2) a Q' = 0 reads
    (c+p)(1 + sum g_i^2) a^2 - (2c+p)(sum g_i) a + 2c(n-1) = 0, c = p/q-1.
    The leading coefficient is positive since p > 1 and c > -1.
    """
    c = p / q - 1.0
    gs = domain.gamma_exponents
    c2 = (c + p) * (1.0 + sum(g * g for g in gs))
    c1 = -(2.0 * c + p) * sum(gs)
    c0 = 2.0 * c * (domain.n - 1)
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return []
    # half / c2 is the larger-magnitude root and c0 / half the other (their
    # product is c0 / c2), so neither subtracts nearly equal terms.
    half = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
    return [half / c2, c0 / half]


def _report_at(
    a: float,
    samples: list[float],
    p: float,
    q: float,
    s: float,
    domain: CuspDomain,
    b_const: float,
    interval: tuple[float, float],
) -> BoundReport:
    """The bound's factors at mapping exponent a, with F sampled at ``samples``."""
    f_val = _objective(a, p, q, domain, b_const)
    return BoundReport(
        a_star=float(a),
        k_ps=k_ps_bound(a, p, domain, s=s),
        m_rq=a ** (1.0 / q),  # m_rq_bound: a >= n/gamma on the window and at the corner
        b_rs=b_const,
        upper_on_inverse_lambda=f_val,
        lambda_lower=1.0 / f_val,
        interval=interval,
        evaluations=[(x, _objective(x, p, q, domain, b_const)) for x in samples],
    )


def lambda_lower_bound(
    cfg: ExponentConfig,
    domain: CuspDomain,
    b_constant: float | None = None,
    fixed_a: float | None = None,
    allow_n2: bool = False,
) -> BoundReport:
    """Minimize the composite bound over the admissible mapping exponent.

    The objective F(a) = a**(p/q-1) Q(a)**(p/2) * B**p, with
    Q(a) = sum (a g_i - 1)^2 + n - 1 + a^2, equals (K M B)**p.  Since
    Q > 0, F is stationary exactly where the quadratic
    (p/q-1) Q + (p/2) a Q' vanishes, so its infimum over the window is the
    lower value of F at the two window ends, shrunk by a 1e-9 margin, and
    at the quadratic's real roots inside them.  ``evaluations`` samples F
    at 512 evenly spaced points of the shrunk window.  Pass ``b_constant``
    to replace the Poincare estimate (e.g. by 12*pi) and ``fixed_a`` to pin
    the mapping exponent instead of optimizing; a pin outside [lo, hi), or
    at lo where the window is open (gamma = n), is refused.

    The composite estimate is stated for n >= 3; 2-D evaluation is refused
    unless ``allow_n2`` is set.
    """
    if domain.n == 2 and not allow_n2:
        raise BoundConfigError(
            "composite bound is stated for n >= 3; pass allow_n2=True to "
            "evaluate the 2-D formula anyway"
        )
    if domain.n != cfg.n or abs(domain.gamma - cfg.gamma) > 1e-12:
        raise BoundConfigError("config does not match the domain (n, gamma)")
    p, q = cfg.p, cfg.q
    b_const = b_rs_estimate(cfg.n, cfg.r, cfg.s) if b_constant is None else b_constant
    lo, hi = admissible_interval(cfg)
    closed = lo > (cfg.n - p) / (cfg.gamma - p)
    if fixed_a is not None and not (lo < fixed_a < hi or (closed and fixed_a == lo)):
        raise BoundConfigError(
            f"pinned exponent a={fixed_a} outside admissible interval "
            f"{'[' if closed else '('}{lo:.6g}, {hi:.6g})"
        )
    lo_c, hi_c = lo + _ENDPOINT_MARGIN, hi - _ENDPOINT_MARGIN
    if fixed_a is None:
        candidates = [lo_c, hi_c] + [
            a for a in _stationary_points(p, q, domain) if lo_c < a < hi_c
        ]
        a_star = min(candidates, key=lambda a: _objective(a, p, q, domain, b_const))
    else:
        a_star = fixed_a
    samples = np.linspace(lo_c, hi_c, _SCAN_POINTS).tolist()
    return _report_at(a_star, samples, p, q, cfg.s, domain, b_const, (lo, hi))


def lower_bound_report(
    domain: CuspDomain,
    p: float,
    q: float,
    s: float | None = None,
    r: float | None = None,
    b_constant: float | None = None,
    fixed_a: float | None = None,
    allow_n2: bool = False,
) -> tuple[BoundReport, float, float]:
    """Lower bound for (p, q) on a cusp domain and the (s, r) it used.

    For p < gamma this is :func:`lambda_lower_bound`, with missing (s, r)
    filled by :meth:`ExponentConfig.from_domain`.  At the Lipschitz corner
    (n, p, q) = (3, 3, 2), gamma = 3, the window degenerates, but the
    composite bound extends continuously to a = 1 with m_rq = 1; there
    (s, r) enter only the Poincare estimate and default to (1.5, 2.5).  Any
    other p >= gamma, or a pinned a != 1 at the corner, raises
    :class:`BoundConfigError`.
    """
    if p < domain.gamma:
        cfg = ExponentConfig.from_domain(domain, p, q, s=s, r=r)
        report = lambda_lower_bound(
            cfg, domain, b_constant=b_constant, fixed_a=fixed_a, allow_n2=allow_n2
        )
        return report, cfg.s, cfg.r
    corner = domain.n == 3 and p == 3.0 and q == 2.0 and domain.gamma == 3.0
    if corner and fixed_a in (None, 1.0):
        s = 1.5 if s is None else float(s)
        r = 2.5 if r is None else float(r)
        b_const = b_constant if b_constant is not None else b_rs_estimate(3, r, s)
        return _report_at(1.0, [1.0], p, q, s, domain, b_const, (1.0, 1.0)), s, r
    raise BoundConfigError(
        f"requires p < gamma (got p={p}, gamma={domain.gamma}); the "
        "degenerate corner is supported only for (n, p, q) = (3, 3, 2) at a = 1"
    )


def lambda_32_lower_bound(gamma_1: float, gamma_2: float) -> float:
    """Closed-form lower bound for the first Neumann (3,2)-eigenvalue in 3-D.

    For a 3-D cusp with exponents (g1, g2) and 3 <= gamma < 6 the choice
    a = 1, r = 5/2, s = 3/2 with the rounded Poincare constant 12*pi gives

        lambda >= (12 pi)**-3 * ((g1-1)^2 + (g2-1)^2 + 3)**(-3/2).

    gamma = 3 (the Lipschitz cone) is included as the continuous limit.
    """
    gamma = 1.0 + gamma_1 + gamma_2
    if not (3.0 <= gamma < 6.0):
        raise BoundConfigError(
            f"formula requires 3 <= gamma < 6 (a = 1 admissible), got gamma={gamma}"
        )
    square_sum = (gamma_1 - 1.0) ** 2 + (gamma_2 - 1.0) ** 2 + 3.0
    return TWELVE_PI ** (-3.0) * square_sum ** (-1.5)
