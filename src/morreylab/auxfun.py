"""Auxiliary exponent functions for the potential-commutator boundedness.

The transfer from the source scale eps (on the q side) to the target scale
eta (on the p side) is governed by the identity

    1/(p - eta) - 1/(q - eps) = alpha / (1 - lambda + A2(eps)),

whose solution eta = phibar(eps) drives the whole family of bookkeeping
functions evaluated here.  The exponent bundle also carries the admissible
parameter ranges: 1/p - 1/q = alpha/(1-lambda), 0 < alpha < (1-lambda)/p,
theta2 >= theta1 (1 + alpha q/(1-lambda)), and a slope bound at zero for A2.

Bundles, auxiliary values and residuals also come in batches: D draws as
(D, 1) columns with stacks of D tables, run by the same code, each draw
bit-identical to its one-draw evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .funcnorm import TabulatedFunction

__all__ = [
    "SingularDenominator",
    "AuxValues",
    "AuxExponents",
    "aux_values",
    "eval_aux",
    "eta_identity_residual",
    "constant_formula",
    "CONSTANT_FORMULAS",
    "psi_table",
]


class SingularDenominator(ZeroDivisionError):
    def __init__(self, x, which, draw=None):
        at = "" if draw is None else f" (draw {draw})"
        super().__init__(f"denominator of {which} vanishes at x = {x:.6g}{at}")
        self.x = x
        self.draw = draw


def _invalid(message, *values, draw=None):
    at = "" if draw is None else f" (draw {draw})"
    return ValueError(message.format(*values) + at)


def _require(ok, error, *args):
    """Raise error(*args) unless the verdict `ok` holds.

    Every function here takes one parameter set as floats, or a batch of D
    draws as (D, 1) columns with stacked tables.  A batch's verdict is an
    array: the error is raised for its first failing draw, with the array
    arguments taken at that draw and the draw named."""
    if getattr(ok, "ndim", 0) == 0:
        if not ok:
            raise error(*args)
    else:
        _refuse(~ok, error, *args)


def _refuse(bad, error, *args):
    """Raise error(*args) where the verdict `bad` holds; see _require."""
    if getattr(bad, "ndim", 0) == 0:
        if bad:
            raise error(*args)
    elif bad.any():
        i = int(np.argmax(bad.ravel()))
        raise error(*(float(a.ravel()[i]) if isinstance(a, np.ndarray) else a for a in args),
                    draw=i)


def _pow(base, exp):
    """base ** exp as Python float powers (the C library's pow), per element
    for arrays: NumPy's vector power and its square differ from pow in the
    last bit, and a batch must give each draw its one-draw value."""
    if not isinstance(base, np.ndarray) and not isinstance(exp, np.ndarray):
        return base ** exp
    b, e = np.broadcast_arrays(base, exp)
    return np.array([u ** v for u, v in zip(b.ravel().tolist(), e.ravel().tolist())]
                    ).reshape(b.shape)


def _geomspace(start, stop, num):
    """np.geomspace for one parameter set, or per draw for (D, 1) columns: (D, num)."""
    if not isinstance(start, np.ndarray):
        return np.geomspace(start, stop, num)
    return np.geomspace(start[:, 0], stop[:, 0], num, axis=1)


@dataclass(frozen=True)
class AuxValues:
    phibar: float
    phitilde: float
    abar: float
    atilde: float
    phi: float
    bigphi: float
    psi: float
    bigpsi: float


def _conj(p: float) -> float:
    return p / (p - 1.0)


def _bar_tilde(x, p, q, alpha, lam, a1x, a2x, which):
    """(phibar, phitilde, abar, atilde) at x from the values a1x = A1(x), a2x = A2(x).

    The guards raise SingularDenominator at x, naming the powers `which`
    that need them: a vanishing denominator first, then a base <= 0."""
    base2 = 1.0 - lam + a2x
    base1 = 1.0 - lam + a1x
    den_bar = base2 - alpha * (x - q)
    den_tilde = base1 - alpha * (p - x)
    _refuse((abs(den_bar) < 1e-300) | (abs(den_tilde) < 1e-300), SingularDenominator, x, which)
    phibar = p + (x - q) * base2 / den_bar
    phitilde = q - (p - x) * base1 / den_tilde
    _refuse((phibar <= 0) | (phitilde <= 0), SingularDenominator, x,
            f"{which} (negative base)")
    return phibar, phitilde, 1.0 - alpha * (x - q) / base2, base1 / den_tilde


def aux_values(x: float, p: float, q: float, alpha: float, lam: float,
               a1, a2, theta1: float) -> AuxValues:
    """Evaluate the eight bookkeeping functions at x without range checks.

    a1, a2 are callables (tabulated lambda shifts); the guarded denominators
    raise SingularDenominator so invalid parameter combinations surface with
    the offending x.  For a batch, x and the parameters are (D, 1) columns,
    a1 and a2 stacks of D tables, and every value is a (D, 1) column.
    phi, Phi are phibar^abar, phitilde^atilde at x; psi, Psi the same at x^theta1.
    """
    return _aux_values(x, p, q, alpha, lam, a1, a2, theta1, a2(x))


def _aux_values(x, p, q, alpha, lam, a1, a2, theta1, a2x) -> AuxValues:
    """aux_values, given the values a2x = A2(x)."""
    phibar, phitilde, abar, atilde = _bar_tilde(x, p, q, alpha, lam, a1(x), a2x, "phi/Phi")
    xt = _pow(x, theta1)
    pb_t, pt_t, ab_t, at_t = _bar_tilde(xt, p, q, alpha, lam, a1(xt), a2(xt), "psi/Psi")
    return AuxValues(phibar, phitilde, abar, atilde, _pow(phibar, abar),
                     _pow(phitilde, atilde), _pow(pb_t, ab_t), _pow(pt_t, at_t))


def _phibar(x, p, q, alpha, lam, a2x):
    """phibar at x, given the values a2x = A2(x)."""
    base = 1.0 - lam + a2x
    return p + (x - q) * base / (base - alpha * (x - q))


def _increasing(vals):
    """Verdict: a probe row of phibar increases strictly from above 0 (NaN fails)."""
    return (np.diff(vals) > 0).all(axis=-1) & (vals[..., 0] > 0)


@dataclass(frozen=True)
class AuxExponents:
    """Validated exponent bundle (p, q, alpha, lambda, A1, A2, thetas, delta).

    The scalars are floats, or (D, 1) columns of D draws with A1 and A2
    stacks of D tables: the checks then hold per draw, and a failure names
    the first failing draw."""

    p: float
    q: float
    alpha: float
    lam: float
    a1: TabulatedFunction
    a2: TabulatedFunction
    theta1: float
    theta2: float
    delta: float

    def __post_init__(self):
        p, q, alpha, lam = self.p, self.q, self.alpha, self.lam
        _require((1 < p) & (p < q), _invalid, "need 1 < p < q")
        _require((0 <= lam) & (lam < 1), _invalid, "need 0 <= lambda < 1")
        _require((0 < alpha) & (alpha < (1 - lam) / p), _invalid,
                 "need 0 < alpha < (1-lambda)/p")
        _refuse(abs(1 / p - 1 / q - alpha / (1 - lam)) > 1e-12, _invalid,
                "exponents must satisfy 1/p - 1/q = alpha/(1-lambda)")
        lo = self.theta1 * (1 + alpha * q / (1 - lam))
        _require(self.theta2 >= lo - 1e-12, _invalid,
                 "need theta2 >= theta1(1 + alpha q/(1-lambda)) = {}", lo)
        slope = self.a2.right_derivative0
        cap = _pow(1 - lam, 2) / (alpha * _pow(q, 2))
        _require((0 <= slope) & (slope < cap), _invalid,
                 "A2 slope at 0 is {}, outside [0, (1-lambda)^2/(alpha q^2)) = [0, {})",
                 slope, cap)
        _require(self.delta > 0, _invalid, "need delta > 0")
        # phibar must be strictly increasing on (0, delta]: finite differences
        # on a geometric probe grid.
        probe = _geomspace(self.delta * 1e-6, self.delta, 64)
        vals = _phibar(probe, p, q, alpha, lam, self.a2(probe))
        _require(_increasing(vals), _invalid, "phibar is not strictly increasing on (0, delta]")

    @staticmethod
    def derive(p: float, alpha: float, lam: float, theta1: float,
               a2: TabulatedFunction | None = None, delta: float = 0.5,
               theta2: float | None = None, n_knots: int = 96) -> "AuxExponents":
        """Build the bundle from (p, alpha, lambda): q solves the exponent
        identity, theta2 defaults to its lower bound, and A1 is tabulated from
        A1(eta) = A2(phibar^{-1}(eta)) on the image of (0, delta]."""
        _require((0 <= lam) & (lam < 1) & (0 < alpha) & (alpha < (1 - lam) / p),
                 _invalid, "need 0 <= lambda < 1 and 0 < alpha < (1-lambda)/p")
        q = 1.0 / (1.0 / p - alpha / (1.0 - lam))
        if a2 is None:
            a2 = TabulatedFunction.zero()
        if theta2 is None:
            theta2 = theta1 * (1 + alpha * q / (1 - lam))
        knots = _geomspace(delta * 1e-8, delta, n_knots)
        a2k = a2(knots)
        eta = _phibar(knots, p, q, alpha, lam, a2k)
        _require(_increasing(eta), _invalid, "phibar is not invertible on (0, delta]")
        a1 = TabulatedFunction(eta, a2k)
        return AuxExponents(p, q, alpha, lam, a1, a2, theta1, theta2, delta)


def _in_domain(x, exps: AuxExponents):
    """x, once checked to lie in (0, delta]."""
    _require((0 < x) & (x <= exps.delta * (1 + 1e-12)), _invalid,
             "x = {} outside (0, delta = {}]", x, exps.delta)
    return x


def eval_aux(x: float, exps: AuxExponents) -> AuxValues:
    """All eight auxiliary values at 0 < x <= delta."""
    return aux_values(_in_domain(x, exps), exps.p, exps.q, exps.alpha, exps.lam,
                      exps.a1, exps.a2, exps.theta1)


def eta_identity_residual(eps: float, exps: AuxExponents):
    """|1/(p - phibar(eps)) - 1/(q - eps) - alpha/(1 - lambda + A2(eps))|:
    a float, or a (D, 1) column for a batch of draws.  A2(eps) is evaluated
    once, for phibar and the right-hand side."""
    a2x = exps.a2(_in_domain(eps, exps))
    eta = _aux_values(eps, exps.p, exps.q, exps.alpha, exps.lam, exps.a1, exps.a2,
                      exps.theta1, a2x).phibar
    lhs = 1.0 / (exps.p - eta) - 1.0 / (exps.q - eps)
    rhs = exps.alpha / (1.0 - exps.lam + a2x)
    return abs(lhs - rhs)


def _phi_of(y: float, exps: AuxExponents) -> float:
    """phi(y) = phibar(y)^abar(y) for y in (0, delta]."""
    base = 1.0 - exps.lam + float(exps.a2(y))
    den = base - exps.alpha * (y - exps.q)
    if abs(den) < 1e-300:
        raise SingularDenominator(y, "phibar")
    pb = exps.p + (y - exps.q) * base / den
    if pb <= 0:
        raise SingularDenominator(y, "phi (phibar <= 0)")
    return pb ** (1.0 - exps.alpha * (y - exps.q) / base)


def psi_table(exps: AuxExponents, eps_grid) -> TabulatedFunction:
    """psi(eps) = phi(eps^theta1) tabulated on a grid with eps^theta1 <= delta."""
    grid = np.asarray(eps_grid, dtype=float)
    if np.any(grid**exps.theta1 > exps.delta * (1 + 1e-12)):
        raise ValueError("grid reaches beyond the domain of the auxiliary functions")
    ys = np.array([_phi_of(float(e) ** exps.theta1, exps) for e in grid])
    return TabulatedFunction(grid, ys)


def _f_maximal_morrey(p, lam, b, c=1.0, **_):
    return c * b ** (lam / p) * _conj(p) ** (1.0 / p) + 1.0


def _f_maximal_s_morrey(p, s, lam, b, c=1.0, **_):
    if not (1 < s < p):
        raise ValueError("need 1 < s < p")
    return c * b ** (lam * s / p) * _conj(p / s) ** (s / p) + 1.0


def _f_cz_morrey(p, lam, c=1.0, **_):
    if p == 2:
        raise ValueError("the two-branch constant excludes p = 2")
    if not (0 <= lam < 1):
        raise ValueError("need 0 <= lambda < 1")
    if 1 < p < 2:
        return c * (p / (p - 1) + p / (2 - p) + (p - lam + 1) / (1 - lam))
    if p > 2:
        return c * (p + p / (p - 2) + (p - lam + 1) / (1 - lam))
    raise ValueError("need p > 1")


def _f_potential_commutator_morrey(p, q, alpha, lam, s, b, c=1.0, **_):
    if not (1 < s < p):
        raise ValueError("need 1 < s < p")
    if not (0 < alpha < (1 - lam) / p):
        raise ValueError("need 0 < alpha < (1-lambda)/p")
    inner = b ** (lam * s / p) * _conj(p / s) ** (s / p) + 1.0
    return (c * inner ** (1.0 + p / q) * (1.0 + p / (1.0 - lam - alpha * p))
            * (_conj(p) ** (1.0 / q) + 1.0))


CONSTANT_FORMULAS = {
    "maximal_morrey": _f_maximal_morrey,
    "maximal_s_morrey": _f_maximal_s_morrey,
    "cz_morrey": _f_cz_morrey,
    "potential_commutator_morrey": _f_potential_commutator_morrey,
}


def constant_formula(name: str, **params) -> float:
    """Evaluate a named boundedness-constant formula.

    maximal_morrey:              c b^(lam/p) (p')^(1/p) + 1
    maximal_s_morrey:            c b^(lam s/p) ((p/s)')^(s/p) + 1
    cz_morrey:                   two-branch expression in (p, lam), p != 2
    potential_commutator_morrey: c (b^(lam s/p)((p/s)')^(s/p)+1)^(1+p/q)
                                   (1 + p/(1-lam-alpha p)) ((p')^(1/q)+1)

    `b` is the doubling constant of the space; `c` is the calibrated absolute
    constant (default 1).
    """
    try:
        fn = CONSTANT_FORMULAS[name]
    except KeyError:
        raise ValueError(f"unknown constant formula {name!r}; "
                         f"choose from {sorted(CONSTANT_FORMULAS)}") from None
    return float(fn(**params))
