"""Maximal, singular-integral, and potential operators on grid functions.

All operators act through the realized ball family of the space.  Principal
values on an atomic space mean exactly that the diagonal term is excluded:
the singular atom carries positive mass, so excising it is the discrete
limit of the truncated integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .funcnorm import TabulatedFunction, _as_rows, _center_peaks, _oscillation_peaks, as_values
from .homspace import DiscreteHomSpace

__all__ = [
    "KernelSizeViolation",
    "DivergenceSuspected",
    "KernelSpec",
    "DiniResult",
    "maximal",
    "maximal_s",
    "sharp_maximal",
    "conjugate_kernel",
    "hilbert_kernel",
    "kernel_from_matrix",
    "validate_kernel",
    "cz_apply",
    "CZOperator",
    "potential_apply",
    "PotentialOperator",
    "commutator",
    "dini_integral",
]


class KernelSizeViolation(ValueError):
    """|K(x,y)| exceeds C / mu B(x, d(x,y)) at some stored pair."""

    def __init__(self, i, j, lhs, rhs):
        super().__init__(
            f"kernel size condition failed at ({i},{j}): |K|={lhs:.6g} > bound={rhs:.6g}")
        self.witness = (i, j)


class DivergenceSuspected(RuntimeError):
    """Partial sums of w(2^-k) fail the Cauchy test at table resolution."""


def maximal(space: DiscreteHomSpace, f) -> np.ndarray:
    """Hardy-Littlewood maximal function: max ball average of |f| per center,
    for one input (N,) or per row of a stack (M, N), swept in column blocks."""
    rows, single = _as_rows(space, f)
    out = _center_peaks(space, rows, lambda b: np.abs(b) * space.weight, space.balls.measures)
    return out[0] if single else out


def maximal_s(space: DiscreteHomSpace, f, s: float) -> np.ndarray:
    """(M |f|^s)^(1/s) for s >= 1, of one input (N,) or per row of a stack (M, N)."""
    if s < 1:
        raise ValueError("need s >= 1")
    v = as_values(space, f) if np.ndim(f) < 2 else np.asarray(f, dtype=float)
    return maximal(space, np.abs(v) ** s) ** (1.0 / s)  # maximal checks the stack


def sharp_maximal(space: DiscreteHomSpace, f) -> np.ndarray:
    """f#(x): max over balls centered at x of avg_B |f - f_B|, for one input (N,)
    or per row of a stack (M, N)."""
    rows, single = _as_rows(space, f)
    out = _oscillation_peaks(space, rows)
    return out[0] if single else out


@dataclass(frozen=True)
class KernelSpec:
    """A singular kernel on one space: dense off-diagonal table plus the
    size constant, smoothness modulus, and its Dini integral."""

    matrix: np.ndarray
    size_constant: float
    modulus: TabulatedFunction
    delta2_constant: float
    dini_value: float
    name: str = "custom"

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float).copy()
        np.fill_diagonal(m, 0.0)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def _default_modulus() -> TabulatedFunction:
    # Lipschitz-type modulus w(t) = t; Delta_2 constant 2, Dini integral 1.
    return TabulatedFunction.power(1.0, np.geomspace(1e-8, 1.0, 65))


def kernel_from_matrix(space: DiscreteHomSpace, matrix, name: str = "custom",
                       modulus: TabulatedFunction | None = None,
                       size_constant: float | None = None) -> KernelSpec:
    """Wrap a dense kernel table; the size constant defaults to the smallest
    C satisfying |K(x,y)| <= C / mu{z: d(x,z) < d(x,y)} on the stored pairs.
    A non-finite off-diagonal entry raises ValueError."""
    m = np.asarray(matrix, dtype=float)
    if m.shape != (space.n, space.n):
        raise ValueError("kernel table shape does not match the space")
    modulus = modulus or _default_modulus()
    lhs = np.abs(m)
    lhs *= space.balls.open_measure
    np.fill_diagonal(lhs, 0.0)  # the diagonal is never applied: a 0 drops out of the max
    top = float(lhs.max())
    if not math.isfinite(top):
        i, j = map(int, np.argwhere(~np.isfinite(lhs))[0])
        raise ValueError(f"kernel entry K({i},{j}) = {m[i, j]} is not finite")
    c = top if size_constant is None else float(size_constant)
    del lhs  # not held while KernelSpec copies the matrix
    d2 = float(np.max(modulus(2.0 * modulus.xs) / modulus(modulus.xs)))
    dini = dini_integral(modulus).integral
    return KernelSpec(m, c, modulus, d2, dini, name=name)


def conjugate_kernel(space: DiscreteHomSpace) -> KernelSpec:
    """Conjugate-function kernel on the uniform circle.

    Against the unit-mass atomic measure (atoms 1/N) the classical kernel
    cot((x-y)/2) dphi/(2 pi) becomes K(x,y) = cot((theta_x-theta_y)/2), so the
    discrete operator reproduces the conjugate function (cos -> sin).
    """
    if space.labels is None or space.labels.shape[1] != 1:
        raise ValueError("conjugate kernel needs circle angles in space.labels")
    theta = space.labels[:, 0]
    k = theta[:, None] - theta[None, :]  # turned into the kernel in place
    k /= 2.0
    np.tan(k, out=k)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(1.0, k, out=k)
    np.fill_diagonal(k, 0.0)
    return kernel_from_matrix(space, k, name="circle-conjugate")


def hilbert_kernel(space: DiscreteHomSpace) -> KernelSpec:
    """Finite Hilbert transform kernel 1/(pi (x - y)) on an interval grid."""
    if space.labels is None or space.labels.shape[1] != 1:
        raise ValueError("hilbert kernel needs 1-D coordinates in space.labels")
    x = space.labels[:, 0]
    k = x[:, None] - x[None, :]  # turned into the kernel in place
    k *= math.pi
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(1.0, k, out=k)
    np.fill_diagonal(k, 0.0)
    return kernel_from_matrix(space, k, name="interval-hilbert")


def validate_kernel(space: DiscreteHomSpace, kernel: KernelSpec) -> None:
    """Check the size condition |K(x,y)| <= C / mu B(x,d(x,y)) pairwise."""
    open_mu = space.balls.open_measure
    lhs = np.abs(kernel.matrix)
    lhs *= open_mu
    bad = ~(lhs <= kernel.size_constant * (1.0 + 1e-12) + 1e-300)  # NaN is a violation
    np.fill_diagonal(bad, False)
    if np.any(bad):
        i, j = map(int, np.argwhere(bad)[0])
        raise KernelSizeViolation(i, j, float(np.abs(kernel.matrix[i, j])),
                                  kernel.size_constant / open_mu[i, j])


def _rowwise(space: DiscreteHomSpace, mat: np.ndarray, f) -> np.ndarray:
    """mat @ f for one input (N,) or each row of a stack (M, N), one product
    per row, so no row's summation order depends on the stack."""
    rows, single = _as_rows(space, f)
    out = np.array([mat @ r for r in rows]).reshape(rows.shape)
    return out[0] if single else out


class CZOperator:
    """Tf(x) = sum_{y != x} K(x,y) f(y) w(y); the kernel is validated once.
    It holds only the weighted matrix K(x,y) w(y), not the kernel's own table.
    Applies to one input (N,) or to each row of a stack (M, N)."""

    def __init__(self, space: DiscreteHomSpace, kernel: KernelSpec):
        validate_kernel(space, kernel)
        self.space = space
        self._mat = kernel.matrix * space.weight[None, :]

    def __call__(self, f) -> np.ndarray:
        return _rowwise(self.space, self._mat, f)


def cz_apply(space: DiscreteHomSpace, kernel: KernelSpec, f) -> np.ndarray:
    """One-shot principal-value application; see CZOperator for batch use."""
    return CZOperator(space, kernel)(f)


class PotentialOperator:
    """I^a f(x) = sum_y f(y) w(y) / mu B(x, d(x,y))^(1-a), 0 < a < 1.

    The denominator measures the open ball at the pair distance; at y = x it
    degenerates to the atom's own weight, the smallest ball containing x.
    Applies to one input (N,) or to each row of a stack (M, N).
    """

    def __init__(self, space: DiscreteHomSpace, alpha: float):
        if not (0.0 < alpha < 1.0):
            raise ValueError("need 0 < alpha < 1")
        self.space = space
        self.alpha = alpha
        open_mu = space.balls.open_measure
        self._mat = open_mu ** (alpha - 1.0) * space.weight[None, :]

    def __call__(self, f) -> np.ndarray:
        return _rowwise(self.space, self._mat, f)


def potential_apply(space: DiscreteHomSpace, f, alpha: float) -> np.ndarray:
    return PotentialOperator(space, alpha)(f)


def commutator(b, op: Callable[[np.ndarray], np.ndarray], f) -> np.ndarray:
    """[b, op] f = b * op(f) - op(b * f) for a linear operator handle: of one
    pair (N,), or per row of (M, N) stacks of b and f for an operator that
    maps stacks row by row, as CZOperator and PotentialOperator do."""
    b = np.asarray(b, dtype=float)
    f = np.asarray(f, dtype=float)
    return b * np.asarray(op(f)) - np.asarray(op(b * f))


@dataclass(frozen=True)
class DiniResult:
    integral: float
    series: float
    n_terms: int


def dini_integral(w: TabulatedFunction, max_terms: int = 200,
                  divergence_tol: float = 0.05) -> DiniResult:
    """Trapezoid value of int_0^1 w(t)/t dt plus the partial sum of w(2^-k).

    The head (0, x_1] uses the table's linear segment through the origin, so
    w(t)/t is constant there and w(t) = t integrates to exactly 1.  Raises
    DivergenceSuspected when the dyadic partial sums keep growing at the
    table's resolution (Cauchy test on the last half of the terms).
    """
    x1 = float(w.xs[0])
    if x1 >= 1.0:
        raise ValueError("modulus table must start below t = 1")
    knots = np.unique(np.concatenate([w.xs[w.xs < 1.0], [1.0]]))
    knots = knots[knots >= x1]
    vals = w(knots) / knots
    integral = float(np.trapezoid(vals, knots)) + float(w(x1))
    n_terms = min(max_terms, max(int(math.floor(math.log2(1.0 / x1))), 1))
    terms = w(0.5 ** np.arange(1, n_terms + 1))
    series = float(terms.sum())
    if n_terms >= 16:
        tail = float(terms[n_terms // 2:].sum())
        if series > 0 and tail / series > divergence_tol:
            raise DivergenceSuspected(
                f"partial sums still growing: last-half share {tail / series:.3f} "
                f"over {n_terms} terms")
    return DiniResult(integral, series, n_terms)

