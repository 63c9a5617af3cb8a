"""Norms on grid functions: Lebesgue, Morrey, BMO, grand Lebesgue, and the
generalized grand Morrey norm.

All ball suprema are exact maxima over the realized closed-ball family of
the underlying space.  The epsilon suprema of the grand norms are maxima
over a finite grid; the grid is user-suppliable, defaulting to a geometric
sequence below s_max, and grid refinement can only increase the value.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .homspace import DiscreteHomSpace

__all__ = [
    "EmptyGrid",
    "TabulatedFunction",
    "GridFunction",
    "GrandParams",
    "NormResult",
    "as_values",
    "lp_norm",
    "morrey_norm",
    "morrey_norm_detail",
    "bmo_norm",
    "grand_lebesgue_norm",
    "grand_lebesgue_norm_detail",
    "phi_functional",
    "grand_morrey_norm",
    "grand_morrey_norm_detail",
    "s_max",
    "default_eps_grid",
]


class EmptyGrid(ValueError):
    """No epsilon grid point lies below the requested endpoint."""


@dataclass(frozen=True)
class TabulatedFunction:
    """Piecewise-linear table on knots 0 < x_1 < ... < x_m.

    Evaluation interpolates linearly, extends from (0, head_value) on the
    left and holds the last value on the right.  head_value is the limit at
    0+ (zero for the vanishing families used here), which gives the table an
    explicit right derivative at 0: (y_1 - head) / x_1.

    Knots and values of shape (D, m) make a stack of D tables, one per row:
    row i of an argument of shape (D,) or (D, k) is evaluated by table i,
    exactly as that table alone would evaluate it.  Only evaluation and the
    right derivative (a (D, 1) column) are defined for a stack.
    """

    xs: np.ndarray
    ys: np.ndarray
    head_value: float = 0.0

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim not in (1, 2) or xs.shape != ys.shape or xs.size == 0:
            raise ValueError("knots and values must be equal-length 1-D arrays "
                             "or equal-shape stacks of them")
        first = xs[0] if xs.ndim == 1 else xs[:, 0].min()
        if first <= 0 or np.any(np.diff(xs) <= 0):
            raise ValueError("knots must be strictly increasing and positive")
        xs.setflags(write=False)
        ys.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __call__(self, x):
        if self.xs.ndim == 2:
            head = np.full((len(self.xs), 1), self.head_value)
            xp = np.concatenate([np.zeros_like(head), self.xs], axis=1)
            yp = np.concatenate([head, self.ys], axis=1)
            return np.array([np.interp(*row) for row in zip(x, xp, yp)]).reshape(np.shape(x))
        xp = np.concatenate([[0.0], self.xs])
        yp = np.concatenate([[self.head_value], self.ys])
        out = np.interp(x, xp, yp)
        return float(out) if np.isscalar(x) else out

    @property
    def right_derivative0(self):
        if self.xs.ndim == 2:
            return (self.ys[:, :1] - self.head_value) / self.xs[:, :1]
        return float((self.ys[0] - self.head_value) / self.xs[0])

    @property
    def is_nondecreasing(self) -> bool:
        return bool(np.all(np.diff(self.ys) >= 0) and self.ys[0] >= self.head_value)

    def rightmost_below(self, level: float) -> float | None:
        """Largest x in the table domain with value <= level, or None when the
        whole table sits below the level (an unbounded sup)."""
        if self.ys[-1] <= level:
            return None
        xs = np.concatenate([[0.0], self.xs])
        ys = np.concatenate([[self.head_value], self.ys])
        # scan from the right for the last downward crossing of `level`
        for i in range(len(xs) - 1, 0, -1):
            y0, y1 = ys[i - 1], ys[i]
            if y1 <= level:
                return float(xs[i])
            if y0 <= level < y1:
                return float(xs[i - 1] + (level - y0) * (xs[i] - xs[i - 1]) / (y1 - y0))
        return 0.0

    @staticmethod
    def power(theta: float, knots) -> "TabulatedFunction":
        knots = np.asarray(knots, dtype=float)
        return TabulatedFunction(knots, knots**theta)

    @staticmethod
    def linear(slope: float, knots) -> "TabulatedFunction":
        knots = np.asarray(knots, dtype=float)
        return TabulatedFunction(knots, slope * knots)

    @staticmethod
    def zero(knots=(1.0,)) -> "TabulatedFunction":
        knots = np.asarray(knots, dtype=float)
        return TabulatedFunction(knots, np.zeros_like(knots))

    @staticmethod
    def from_callable(fn: Callable, knots) -> "TabulatedFunction":
        knots = np.asarray(knots, dtype=float)
        return TabulatedFunction(knots, np.asarray([fn(x) for x in knots]))


@dataclass(frozen=True)
class GridFunction:
    """A real-valued function on the atoms of a space."""

    space: DiscreteHomSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.space.n,):
            raise ValueError(f"expected {self.space.n} values, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid function values must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def as_values(space: DiscreteHomSpace, f) -> np.ndarray:
    """Coerce a GridFunction or array-like to a validated value vector."""
    if isinstance(f, GridFunction):
        if f.space is not space:
            raise ValueError("grid function lives on a different space")
        return f.values
    v = np.asarray(f, dtype=float)
    if v.shape != (space.n,):
        raise ValueError(f"expected {space.n} values, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("grid function values must be finite")
    return v


def _as_rows(space: DiscreteHomSpace, f) -> tuple[np.ndarray, bool]:
    """One input (N,) or a stack (M, N) as validated (M, N) rows, and whether it was one."""
    single = isinstance(f, GridFunction) or np.ndim(f) == 1
    rows = as_values(space, f)[None] if single else np.asarray(f, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != space.n:
        raise ValueError(f"expected (M, {space.n}) values, got shape {rows.shape}")
    if not np.all(np.isfinite(rows)):
        raise ValueError("grid function values must be finite")
    return rows, single


def default_eps_grid(smax: float, ratio: float = 0.9, floor: float = 1e-6,
                     max_points: int | None = None) -> np.ndarray:
    """Geometric grid smax*ratio^k, k >= 1, truncated at `floor`."""
    if not (0 < ratio < 1):
        raise ValueError("ratio must lie in (0, 1)")
    pts = []
    eps = smax * ratio
    while eps >= floor and (max_points is None or len(pts) < max_points):
        pts.append(eps)
        eps *= ratio
    if not pts:
        pts = [smax * ratio]
    return np.asarray(pts[::-1])


def s_max(p: float, lam: float, A: TabulatedFunction) -> float:
    """min{p-1, sup{x > 0: A(x) <= lam}} computed on the table.

    The sup is the rightmost point of the piecewise-linear graph lying at or
    below lam; a table entirely below lam (in particular A == 0) counts as an
    unbounded sup, giving p - 1.
    """
    if p <= 1:
        raise ValueError("need p > 1")
    if not A.is_nondecreasing:
        raise ValueError("A must be non-decreasing")
    a = A.rightmost_below(lam)
    if a is None:
        return p - 1.0
    return min(p - 1.0, a)


@dataclass(frozen=True)
class GrandParams:
    """Exponent bundle (p, lambda, phi, A, eps grid, s_max) of a grand Morrey norm."""

    p: float
    lam: float
    phi: TabulatedFunction
    A: TabulatedFunction
    eps_grid: np.ndarray
    smax: float

    def __post_init__(self):
        grid = np.asarray(self.eps_grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0):
            raise ValueError("eps grid must be strictly increasing and non-empty")
        if grid[0] <= 0 or grid[-1] > self.smax * (1 + 1e-12):
            raise ValueError("eps grid must lie in (0, s_max]")
        grid.setflags(write=False)
        object.__setattr__(self, "eps_grid", grid)
        expected = s_max(self.p, self.lam, self.A)
        if self.smax > expected * (1 + 1e-9) + 1e-300:
            raise ValueError(f"s_max={self.smax} exceeds min(p-1, a)={expected}")
        av = self.A(grid)
        if np.any(self.lam - av < -1e-12):
            raise ValueError("lambda - A(eps) must stay non-negative on the grid")
        pv = self.phi(grid)
        if np.any(pv <= 0) or not np.all(np.isfinite(pv)):
            raise ValueError("phi must be positive and bounded on the grid")

    @staticmethod
    def power(p: float, lam: float, theta: float, A: TabulatedFunction | None = None,
              eps_grid=None, ratio: float = 0.9, floor: float = 1e-6,
              max_points: int | None = None) -> "GrandParams":
        """phi(eps) = eps^theta with an optional lambda shift table A."""
        if A is None:
            A = TabulatedFunction.zero()
        sm = s_max(p, lam, A)
        if eps_grid is None:
            eps_grid = default_eps_grid(sm, ratio=ratio, floor=floor,
                                        max_points=max_points)
        eps_grid = np.asarray(eps_grid, dtype=float)
        phi = TabulatedFunction.power(theta, eps_grid)
        return GrandParams(p, lam, phi, A, eps_grid, sm)

    @staticmethod
    def tabulated(p: float, lam: float, phi: TabulatedFunction,
                  A: TabulatedFunction, eps_grid) -> "GrandParams":
        sm = s_max(p, lam, A)
        grid = np.asarray(eps_grid, dtype=float)
        return GrandParams(p, lam, phi, A, grid, sm)


@dataclass(frozen=True)
class NormResult:
    value: float
    eps: float | None = None
    center: int | None = None
    rank: int | None = None


def lp_norm(space: DiscreteHomSpace, f, p: float):
    """(sum |f|^p weight)^(1/p) for p >= 1: a float for one input (N,), an
    (M,) array for a stack (M, N).  Each row is summed by its own dot
    product and rooted as a scalar, so it gets its one-input value."""
    if p < 1:
        raise ValueError("need p >= 1")
    rows, single = _as_rows(space, f)
    out = np.array([(row @ space.weight) ** (1.0 / p) for row in np.abs(rows) ** p])
    return float(out[0]) if single else out


def _morrey_peaks(space: DiscreteHomSpace, rows: np.ndarray, p: float, lam: float):
    """(M, N) peaks over radii of mu B^(-lam) sum_B |f|^p w (unrooted) and mu B^lam."""
    if p < 1:
        raise ValueError("need p >= 1")
    if not (0 <= lam < 1):
        raise ValueError("need 0 <= lambda < 1")
    scale = space.balls.measures ** lam
    return _center_peaks(space, rows, lambda b: np.abs(b) ** p * space.weight, scale), scale


def morrey_norm_detail(space: DiscreteHomSpace, f, p: float, lam: float) -> NormResult:
    """morrey_norm of one input and its ball: the first (center, rank) attaining it."""
    v = as_values(space, f)
    peaks, scale = _morrey_peaks(space, v[None], p, lam)
    c, bf = int(np.argmax(peaks[0])), space.balls
    row = np.cumsum((np.abs(v) ** p * space.weight)[bf.order[c]])[bf.counts[c] - 1] / scale[c]
    return NormResult(float(peaks[0, c] ** (1.0 / p)), center=c, rank=int(np.argmax(row)))


def morrey_norm(space: DiscreteHomSpace, f, p: float, lam: float):
    """max over realized balls of (mu B^(-lam) int_B |f|^p dmu)^(1/p): a float
    for one input (N,), an (M,) array for a stack (M, N), rooted per input."""
    rows, single = _as_rows(space, f)
    out = np.array([v ** (1.0 / p) for v in _morrey_peaks(space, rows, p, lam)[0].max(axis=1)])
    return float(out[0]) if single else out


# work buffers of one oscillation-kernel chunk and of one column block of
# the shell sweep; the sweep's four (N, C E) arrays stay near it, so C falls
# to one input at large N, where wider blocks measured slower
_BLOCK_BYTES = 512 * 1024
_OSC_RANKS = 16  # radius ranks per chunk of the oscillation kernel


def _ball_peaks(space: DiscreteHomSpace, powers: np.ndarray, scale: np.ndarray, ufunc):
    """Each center's peak over ranks k of ufunc(ball sum, scale[k]), shape (N, C, E),
    for an (N + 1, C, E) block of powers whose row N is zero and an (R, N, E) scale.
    A running sum per center gains its next shell one step-table row at a time, the
    zero row padding short shells, so each column adds its atoms in distance order
    from +0.0: a per-center cumulative sum bit for bit, whatever C is, in O(N C E)."""
    steps, widths = space.balls.step_table
    n, (c, e) = space.n, powers.shape[1:]
    flat = powers.reshape(n + 1, c * e)
    run, tmp, peak = np.zeros((n, c * e)), np.empty((n, c * e)), np.full((n, c, e), -np.inf)
    t = 0
    for k, width in enumerate(widths):
        for s in range(t, t + width):
            flat.take(steps[s], axis=0, out=tmp)
            run += tmp
        t += width
        scaled = tmp.reshape(n, c, e)
        ufunc(run.reshape(n, c, e), scale[k][:, None, :], out=scaled)
        np.maximum(peak, scaled, out=peak)
    return peak


def _center_peaks(space: DiscreteHomSpace, rows: np.ndarray, terms, scale) -> np.ndarray:
    """(M, N) peaks over radii of sum_B terms / scale per input row, in column
    blocks; `terms` maps a (C, N) block to its atom terms, `scale` is (N, R)."""
    n, columns = space.n, max(1, _BLOCK_BYTES // (4 * 8 * space.n))  # E = 1
    scale = np.ascontiguousarray(scale.T)[:, :, None]
    out = np.empty((len(rows), n))
    for c0 in range(0, len(rows), columns):
        block = terms(rows[c0:c0 + columns])
        powers = np.zeros((n + 1, len(block), 1))  # row n pads short shells
        powers[:n, :, 0] = block.T
        out[c0:c0 + columns] = _ball_peaks(space, powers, scale, np.divide)[:, :, 0].T
    return out


def _oscillation_table(space: DiscreteHomSpace, f, p: float = 1.0,
                       center: str = "mean") -> np.ndarray:
    """(N, R) padded table of (avg_B |f - c_B|^p)^(1/p) over balls centered per row.

    c_B is the ball mean, or for center "median" the lower weighted median:
    the first value, in increasing order, at which the members' cumulative
    weight reaches half the ball's measure.  Centers are processed in blocks
    and ranks in chunks whose (B, K, N) buffer fits a fixed byte budget;
    each chunk's median search and deviation cumsum stop at the farthest
    member its balls reach, and ranks past a center's last radius repeat
    its last value.
    """
    bf = space.balls
    v = as_values(space, f)
    w = space.weight
    n, rmax = bf.measures.shape
    chunk = min(rmax, _OSC_RANKS)
    block = max(1, min(n, _BLOCK_BYTES // (8 * chunk * n)))
    work = np.empty(block * chunk * n)
    value_rank = np.argsort(np.argsort(v, kind="stable"))  # ties by atom index
    # centers with more radii first, so the live rows of a block are a prefix
    seq = np.argsort(-bf.n_ranks, kind="stable")
    out = np.empty((n, rmax))
    for c0 in range(0, n, block):
        rows = seq[c0:c0 + block]
        idx = bf.order[rows]
        fv, wv, nr = v[idx], w[idx], bf.n_ranks[rows]
        counts, mu = bf.counts[rows], bf.measures[rows]
        if center == "mean":
            means = np.take_along_axis(np.cumsum(fv * wv, axis=1), counts - 1, axis=1) / mu
        else:
            ranks = value_rank[idx]
        for k0 in range(0, int(nr[0]), chunk):
            k1 = min(k0 + chunk, rmax)
            m = int(np.count_nonzero(nr > k0))
            # padded ranks get a one-atom ball and are overwritten below
            ends = np.where(np.arange(k0, k1) < nr[:m, None], counts[:m, k0:k1] - 1, 0)
            length = int(ends.max()) + 1
            if center == "mean":
                cen = means[:m, k0:k1]
            else:  # distance positions of the chunk's reach, listed in value order
                near = np.argsort(ranks[:m, :length], axis=1)
                cum = work[:m * (k1 - k0) * length].reshape(m, k1 - k0, length)
                np.multiply(near[:, None, :] <= ends[:, :, None],
                            np.take_along_axis(wv[:m, :length], near, axis=1)[:, None, :], out=cum)
                np.cumsum(cum, axis=2, out=cum)
                half = (cum < 0.5 * cum[:, :, -1:]).sum(axis=2)
                cen = np.take_along_axis(fv[:m], np.take_along_axis(near, half, axis=1), axis=1)
            dev = work[:m * (k1 - k0) * length].reshape(m, k1 - k0, length)
            np.subtract(fv[:m, None, :length], cen[:, :, None], out=dev)
            np.abs(dev, out=dev)
            if p != 1.0:
                dev **= p
            dev *= wv[:m, None, :length]
            np.cumsum(dev, axis=2, out=dev)
            osc = np.take_along_axis(dev, ends[:, :, None], axis=2)[:, :, 0] / mu[:m, k0:k1]
            if p != 1.0:
                osc **= 1.0 / p
            out[rows[:m], k0:k1] = osc
    last = out[np.arange(n), bf.n_ranks - 1][:, None]
    return np.where(np.arange(rmax) < bf.n_ranks[:, None], out, last)


def bmo_norm(space: DiscreteHomSpace, b, variant: str = "mean",
             p: float | None = None) -> float:
    """Bounded-mean-oscillation norm over the realized ball family.

    variant "mean":  max_B avg_B |b - b_B|
    variant "inf":   max_B min_c avg_B |b - c| (c is the lower weighted median)
    variant "jn":    max_B (avg_B |b - b_B|^p)^(1/p), 1 < p < infinity

    A constant has norm 0 exactly: its ball means can be off by roundoff,
    which would make the norm of c*b depend on c.
    """
    if variant == "jn":
        if p is None or not (1 < p < math.inf):
            raise ValueError("variant 'jn' needs 1 < p < infinity")
    elif variant not in ("mean", "inf"):
        raise ValueError(f"unknown BMO variant {variant!r}")
    v = as_values(space, b)
    if np.ptp(v) == 0:
        return 0.0
    if variant == "jn":
        return float(_oscillation_table(space, v, p).max())
    return float(_oscillation_table(space, v, 1.0,
                                    "median" if variant == "inf" else "mean").max())


def _grand_lebesgue_values(space: DiscreteHomSpace, f, p: float, thetas, eps_grid):
    """eps^(theta/(p-eps)) ||f||_{L^{p-eps}} per theta, input and grid point,
    shape (T, M, E) for T thetas and M inputs, and whether f was one input.
    Each Lebesgue norm is computed once, for the whole stack, whatever T is."""
    if p <= 1:
        raise ValueError("need p > 1")
    if any(theta <= 0 for theta in thetas):
        raise ValueError("need theta > 0")
    grid = np.asarray(eps_grid, dtype=float)
    if grid.size == 0:
        raise EmptyGrid("empty epsilon grid")
    if np.any(grid <= 0) or np.any(grid >= p - 1):
        raise ValueError("epsilon grid must lie inside (0, p-1)")
    rows, single = _as_rows(space, f)
    norms = np.array([lp_norm(space, rows, p - eps) for eps in grid]).T
    weights = np.array([[eps ** (theta / (p - eps)) for eps in grid] for theta in thetas])
    return weights[:, None, :] * norms, single


def grand_lebesgue_norm_detail(space: DiscreteHomSpace, f, p: float, theta: float,
                               eps_grid) -> NormResult:
    vals = _grand_lebesgue_values(space, as_values(space, f), p, (theta,), eps_grid)[0]
    k = int(np.argmax(vals[0, 0]))
    return NormResult(float(vals[0, 0, k]), eps=float(np.asarray(eps_grid, dtype=float)[k]))


def grand_lebesgue_norm(space: DiscreteHomSpace, f, p: float, theta: float, eps_grid):
    """max over the grid of eps^(theta/(p-eps)) ||f||_{L^{p-eps}}: a float for
    one input (N,), an (M,) array for a stack (M, N)."""
    vals, single = _grand_lebesgue_values(space, f, p, (theta,), eps_grid)
    out = vals[0].max(axis=1)
    return float(out[0]) if single else out


def phi_functional_detail(space: DiscreteHomSpace, f, params: GrandParams,
                          s: float) -> NormResult:
    if not (0 < s <= params.smax * (1 + 1e-12)):
        raise ValueError("need 0 < s <= s_max")
    grid = params.eps_grid[params.eps_grid < s]
    if grid.size == 0:
        raise EmptyGrid(f"no grid point below s={s}")
    v = as_values(space, f)
    best = NormResult(-1.0)
    for eps in grid:
        pe = params.p - eps
        le = max(params.lam - params.A(eps), 0.0)
        detail = morrey_norm_detail(space, v, pe, le)
        val = params.phi(eps) ** (1.0 / pe) * detail.value
        if val > best.value:
            best = NormResult(val, eps=float(eps), center=detail.center,
                              rank=detail.rank)
    return best


def phi_functional(space: DiscreteHomSpace, f, params: GrandParams, s: float) -> float:
    """sup over grid eps < s of phi(eps)^(1/(p-eps)) ||f||_{L^{p-eps, lam-A(eps)}}."""
    return phi_functional_detail(space, f, params, s).value


def grand_morrey_norm_detail(space: DiscreteHomSpace, f, params: GrandParams) -> NormResult:
    return phi_functional_detail(space, f, params, params.smax)


def grand_morrey_norm(space: DiscreteHomSpace, f, params: GrandParams) -> float:
    """The generalized grand Morrey norm: the phi functional at s_max."""
    return grand_morrey_norm_detail(space, f, params).value


class GrandNormEvaluator:
    """Batched grand Morrey norms for one (space, params) pair.

    Every method takes one input of shape (N,) or a stack of M inputs of
    shape (M, N), and answers per input: (E,) or (M, E) vectors, a float or
    an (M,) array.  A single input is a stack of one; there is one path.

    Precomputes mu(B)^(-lam_eff) per (center, rank, eps) in `mu_pow`,
    stored rank-major so the (N, E) slice of one rank is contiguous, and
    reads the ball family's step table (`steps`, `widths`).  Inputs are
    swept by `_ball_peaks` in column blocks of C inputs, C sized so the
    sweep's arrays fit `_BLOCK_BYTES`.  Matches grand_morrey_norm to
    roundoff.

    Results are memoised per input row for the instance's lifetime.  The
    memo is the only state calls share and its get and set are atomic, so
    threads may share an instance (two may compute one new input twice).
    """

    def __init__(self, space: DiscreteHomSpace, params: GrandParams):
        self.space = space
        self.params = params
        bf = space.balls
        grid = params.eps_grid[params.eps_grid < params.smax]
        if grid.size == 0:
            raise EmptyGrid("no grid point below s_max")
        self.grid = grid
        self.pe = params.p - grid
        lam_eff = np.maximum(params.lam - params.A(grid), 0.0)
        # mu^(-lam_eff) indexed (N, R, E), stored (R, N, E)
        self.mu_pow = (np.ascontiguousarray(bf.measures.T)[:, :, None]
                       ** -lam_eff).transpose(1, 0, 2)
        self.phi_pow = params.phi(grid) ** (1.0 / self.pe)
        self.steps, self.widths = bf.step_table
        # inputs per column block: powers, run, tmp and peak are (N, C E) each
        self.columns = max(1, _BLOCK_BYTES // (4 * 8 * space.n * self.pe.size))
        self._memo: dict[bytes, np.ndarray] = {}

    def morrey_vector(self, f) -> np.ndarray:
        """Per-grid-point Morrey norms ||f||_{p-eps, lam-A(eps)}: shape (E,)
        for one input, (M, E) for a stack of M."""
        n, e = self.space.n, self.pe.size
        rows, single = _as_rows(self.space, f)
        keys = [hashlib.blake2b(r.tobytes(), digest_size=16).digest() for r in rows]
        todo: dict[bytes, int] = {}  # first row of each input the memo lacks
        for i, key in enumerate(keys):
            if key not in self._memo:
                todo.setdefault(key, i)
        missing, at = list(todo), list(todo.values())
        for c0 in range(0, len(missing), self.columns):
            c1 = c0 + self.columns
            block = rows[at[c0:c1]]
            powers = np.zeros((n + 1, len(block), e))  # row n pads short shells
            np.power(np.abs(block.T)[:, :, None], self.pe, out=powers[:n])
            powers[:n] *= self.space.weight[:, None, None]
            peak = _ball_peaks(self.space, powers, self.mu_pow.transpose(1, 0, 2), np.multiply)
            self._memo.update(zip(missing[c0:c1], peak.max(axis=0) ** (1.0 / self.pe)))
        out = np.array([self._memo[key] for key in keys]).reshape(len(keys), e)
        return out[0] if single else out

    def weighted_vector(self, f) -> np.ndarray:
        """phi(eps)^(1/(p-eps)) ||f||_{p-eps, lam-A(eps)} over the grid, per input."""
        return self.phi_pow * self.morrey_vector(f)

    def __call__(self, f):
        """The grand norm: a float for one input, an (M,) array for a stack."""
        out = self.weighted_vector(f).max(axis=-1)
        return float(out) if out.ndim == 0 else out
