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
from functools import cached_property

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
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()
                and np.isfinite(self.head_value)):
            raise ValueError("knots, values and head_value must be finite")
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


@dataclass(frozen=True)
class GridFunction:
    """A real-valued function on the atoms of a space."""

    space: DiscreteHomSpace
    values: np.ndarray

    def __post_init__(self):
        v = as_values(self.space, self.values).copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def as_values(space: DiscreteHomSpace, f) -> np.ndarray:
    """One input, a GridFunction of `space` or an (N,) vector, as validated values."""
    rows, single = _as_rows(space, f)
    if not single:
        raise ValueError(f"expected {space.n} values, got shape {rows.shape}")
    return rows[0]


def _as_rows(space: DiscreteHomSpace, f) -> tuple[np.ndarray, bool]:
    """What every norm, operator and check takes: a GridFunction of `space`, an (N,)
    vector or an (M, N) stack, all finite.  (M, N) rows, and whether it was one input."""
    if isinstance(f, GridFunction):
        if f.space is not space:
            raise ValueError("grid function lives on a different space")
        return f.values[None], True  # validated when it was made
    want = f"expected {space.n} values or an (M, {space.n}) stack"
    try:
        rows = np.asarray(f, dtype=float)  # copies only to convert
    except (TypeError, ValueError) as exc:  # a GridFunction row, a ragged list
        raise ValueError(f"{want} of numbers: {exc}") from None
    if rows.ndim not in (1, 2) or rows.shape[-1] != space.n:
        raise ValueError(f"{want}, got shape {rows.shape}")
    if not np.isfinite(rows).all():
        raise ValueError("grid function values must be finite")
    return (rows[None], True) if rows.ndim == 1 else (rows, False)


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
    """(M, N) peaks over radii of mu B^(-lam) sum_B |f|^p w (unrooted)."""
    if p < 1:
        raise ValueError("need p >= 1")
    if not (0 <= lam < 1):
        raise ValueError("need 0 <= lambda < 1")
    return _center_peaks(space, rows, lambda b: np.abs(b) ** p * space.weight, lam)


def morrey_norm_detail(space: DiscreteHomSpace, f, p: float, lam: float) -> NormResult:
    """morrey_norm of one input and its ball: the first (center, rank) attaining it."""
    v = as_values(space, f)
    peaks = _morrey_peaks(space, v[None], p, lam)
    c, bf = int(np.argmax(peaks[0])), space.balls
    row = np.cumsum((np.abs(v) ** p * space.weight)[bf.order[c]])[bf.counts[c] - 1] \
        / bf.measures[c] ** lam
    return NormResult(float(peaks[0, c] ** (1.0 / p)), center=c, rank=int(np.argmax(row)))


def morrey_norm(space: DiscreteHomSpace, f, p: float, lam: float):
    """max over realized balls of (mu B^(-lam) int_B |f|^p dmu)^(1/p): a float
    for one input (N,), an (M,) array for a stack (M, N), rooted per input."""
    rows, single = _as_rows(space, f)
    out = np.array([v ** (1.0 / p) for v in _morrey_peaks(space, rows, p, lam).max(axis=1)])
    return float(out[0]) if single else out


# arrays of one column block of the shell sweep: the (N, C E) arrays it holds
# stay near it.  Wider blocks measured slower for per-center peaks, and faster
# but at twice the memory for peaks reduced over centers
_BLOCK_BYTES = 512 * 1024
# arrays of one block of the oscillation kernel, a core's 2 MiB L2 cache.  Its
# deviation sums pay NumPy's cost per row of an (L, X) buffer: X = 900, 227
# and 56 (center, input) columns at n = 64, 192 and 1024 ran f# 1.1 to 1.8
# times faster than the sweep's 512 KiB did; twice this won 0 to 9 % at
# n = 256 and 1024, lost 3 to 5 % at n = 64 and doubles the memory.  A median
# block gives half of it to the weighted-median search, whose groups then do
# not shrink as X grows.
_OSC_BYTES = 4 * _BLOCK_BYTES
_OSC_RANKS = 16  # radius ranks per chunk of the weighted-median search


def _ball_peaks(space: DiscreteHomSpace, powers: np.ndarray, scale, ufunc):
    """Each center's peak over ranks k of ufunc(ball sum, scale(k)), shape (N, C, E),
    for an (N + 1, C, E) block of powers whose row N is zero, scale(k) being rank k's
    (N, E) scale.  A running sum per center gains its next shell one step-table row at
    a time, so each column adds its atoms in distance order from +0.0: a per-center
    cumulative sum bit for bit, whatever C is, in O(N C E).  A row of runs adds each as
    a slice, skipping pads, which would add +0.0 to a sum >= +0.0; any other row gathers
    with mode "clip" (the table was bounds-checked when built), the zero row padding.
    A one-row scale (1, E), shared by all centers, is applied to the sums' maximum over
    centers, taken g | N rows side by side for wide inner loops: for s > 0,
    max_c fl(s x_c) = fl(s max_c x_c), so the (1, C, E) peaks keep their bits."""
    steps, widths, runs = space.balls.step_table
    n, (c, e) = space.n, powers.shape[1:]
    flat = powers.reshape(n + 1, c * e)
    reduced = len(scale(0)) == 1
    g = max(d for d in range(1, max(1, 512 // (c * e)) + 1) if n % d == 0) if reduced else 1
    run, wide = np.zeros((n, c * e)), np.empty(g * c * e)
    tmp = None if reduced and None not in runs else np.empty((n, c * e))
    peak = np.full((1 if reduced else n, c, e), -np.inf)
    t = 0
    for k, width in enumerate(widths):
        for s in range(t, t + width):
            if runs[s] is None:
                flat.take(steps[s], axis=0, out=tmp, mode="clip")
                run += tmp
            else:
                for a, b, src in runs[s]:
                    run[a:b] += flat[src:src + b - a]
        t += width
        if reduced:
            top = np.max(run.reshape(n // g, g * c * e), axis=0, out=wide)
            sums = scaled = (top.reshape(g, c * e).max(axis=0) if g > 1 else top).reshape(1, c, e)
        else:
            sums, scaled = run.reshape(n, c, e), tmp.reshape(n, c, e)
        ufunc(sums, scale(k)[:, None, :], out=scaled)
        np.maximum(peak, scaled, out=peak)
    return peak


def _center_peaks(space: DiscreteHomSpace, rows: np.ndarray, terms,
                  lam: float | None = None) -> np.ndarray:
    """(M, N) peaks over radii of sum_B terms / mu(B)^lam per input row (mu(B) for lam
    None), in column blocks; `terms` maps a (C, N) block to its atom terms.  Rank k's
    (N, 1) scale column comes from a contiguous copy of 16 ranks' measures: no (N, R)
    table per call, and no strided column, whose powers took up to 1.5 times as long."""
    n, columns = space.n, max(1, _BLOCK_BYTES // (4 * 8 * space.n))  # E = 1
    mu, chunk = space.balls.measures, {}

    def scale(k):
        k0, i = divmod(k, 16)
        if k0 not in chunk:
            chunk.clear()
            block = np.ascontiguousarray(mu[:, 16 * k0:16 * k0 + 16].T)
            chunk[k0] = block if lam is None else block ** lam
        return chunk[k0][i, :, None]

    out = np.empty((len(rows), n))
    for c0 in range(0, len(rows), columns):
        block = terms(rows[c0:c0 + columns])
        powers = np.zeros((n + 1, len(block), 1))  # row n pads short shells
        powers[:n, :, 0] = block.T
        out[c0:c0 + columns] = _ball_peaks(space, powers, scale, np.divide)[:, :, 0].T
    return out


def _grand_peaks(space: DiscreteHomSpace, rows: np.ndarray, at, pe: np.ndarray, scale):
    """(N', C, E) peaks over ranks of scale(k) sum_B |f|^(p-eps) w for (C, E) (input, eps)
    columns, input rows[at[c, e]] raised to pe[c, e], scale(k) being rank k's (N', E)
    mu^(-lam_eff), N' in {1, N}, and the powers swept."""
    n = space.n
    powers = np.zeros((n + 1, *pe.shape))  # row n pads short shells
    terms = rows.T.take(at, axis=1, out=powers[:n])
    np.power(np.abs(terms, out=terms), pe, out=terms)
    terms *= space.weight[:, None, None]
    return _ball_peaks(space, powers, scale, np.multiply), powers


def _ball_medians(fv, wv, ranks, ends, nr, work):
    """(R, X) lower weighted medians of the balls of X columns: the first value, in
    increasing order, at which the members' cumulative weight reaches half the
    ball's measure.  fv and wv are (N, X) values and weights in distance order,
    ranks their (X, N) value ranks, ends the (R, X) last member positions and nr
    the non-increasing rank counts.  Ranks go in chunks of up to `_OSC_RANKS`
    and columns in groups whose (G, K, L) search fits `work`, each searching
    only as far as its balls reach."""
    cen = np.zeros(ends.shape)  # ranks past a column's last stay finite
    chunk = min(_OSC_RANKS, work.size // len(fv))  # one column's search fits
    for k0 in range(0, int(nr[0]), chunk):
        k1 = min(k0 + chunk, len(ends))
        m = int(np.count_nonzero(nr > k0))
        # padded ranks get a one-atom ball and are never read
        last = np.where(np.arange(k0, k1) < nr[:m, None], ends[k0:k1, :m].T, 0)
        group = max(1, work.size // ((k1 - k0) * (int(last.max()) + 1)))
        for g0 in range(0, m, group):
            g1 = min(g0 + group, m)
            lg, g = last[g0:g1], np.arange(g0, g1)[:, None]
            length = int(lg.max()) + 1
            near = np.argsort(ranks[g0:g1, :length], axis=1)  # positions in value order
            cum = work[:near.size * (k1 - k0)].reshape(g1 - g0, k1 - k0, length)
            np.multiply(near[:, None, :] <= lg[:, :, None], wv[near, g][:, None, :], out=cum)
            np.cumsum(cum, axis=2, out=cum)
            half = np.argmax(cum >= 0.5 * cum[:, :, -1:], axis=2)  # cum does not fall
            cen[k0:k1, g0:g1] = fv[np.take_along_axis(near, half, axis=1), g].T
    return cen


def _oscillation_sizes(space: DiscreteHomSpace, center: str) -> tuple[int, int]:
    """Columns per block of the oscillation kernel, at least two, and the doubles of
    its median search.  A block's arrays fit `_OSC_BYTES`, or its first half for center
    "median", whose search takes the second half, whatever the block's width."""
    n, rmax, median = space.n, space.balls.measures.shape[1], center != "mean"
    # per column: values, weights and the work buffer (N rows each); ends,
    # measures and centres, which become the sums (R rows each); value ranks
    per_column = 8 * (3 * n + 3 * rmax + median * n)
    search = median * (_OSC_BYTES // 2)
    return max(2, (_OSC_BYTES - search) // per_column), search // 8


def _oscillation_peaks(space: DiscreteHomSpace, rows: np.ndarray, p: float = 1.0,
                       center: str = "mean") -> np.ndarray:
    """(M, N) peaks over radius ranks of (avg_B |f - c_B|^p)^(1/p), per input row and
    center, c_B being the ball mean or, for center "median", its lower weighted median.

    A block's X columns are (center, input) pairs, center-major, centers with more
    radii first, so the columns that have a rank are a prefix.  The block's (R, X)
    ball centres come first.  Then each rank writes |f - c_B|^p w into one contiguous
    (L, X) buffer, L reaching the farthest member, zeroes the rows past each ball by
    assignment and sums down axis 0: a running sum per column, atom by atom in
    distance order, so the bits of a per-center cumulative sum read at the ball's
    end.  Rows are at least two wide; a one-wide sum would run pairwise.
    """
    bf, w = space.balls, space.weight
    n, pairs = space.n, len(rows) * space.n
    columns, search = _oscillation_sizes(space, center)
    if center != "mean":
        value_rank = np.argsort(np.argsort(rows, axis=1, kind="stable"), axis=1)
    seq = np.argsort(-bf.n_ranks, kind="stable")
    out = np.empty((len(rows), n))
    width = min(columns, max(pairs, 2))
    work = np.empty(max(n * width, search))  # deviations, or a median search
    for j0 in range(0, pairs, columns):
        j = np.arange(j0, min(j0 + columns, pairs))
        if len(j) == 1:  # a lone pair is repeated
            j = np.repeat(j, 2)
        cs, ins = seq[j // len(rows)], j % len(rows)
        nr, r = bf.n_ranks[cs], int(bf.n_ranks[cs[0]])
        idx = np.ascontiguousarray(bf.order[cs].T)
        fv, wv = rows[ins, idx], w[idx]
        ranks = value_rank[ins, idx].T if center != "mean" else None
        del idx
        ends = np.ascontiguousarray(bf.counts[cs, :r].T)
        ends -= 1
        mu = np.ascontiguousarray(bf.measures[cs, :r].T)
        if center == "mean":  # running sums of f w down axis 0
            cw = np.multiply(fv, wv, out=work[:fv.size].reshape(fv.shape))
            np.cumsum(cw, axis=0, out=cw)
            cen = np.take_along_axis(cw, ends, axis=0)
            cen /= mu
        else:
            cen = _ball_medians(fv, wv, ranks, ends, nr, work)
        live = np.searchsorted(-nr, -np.arange(r))  # columns with rank k
        inside = np.arange(len(j)) < live[:, None]
        lo = np.min(ends, axis=1, where=inside, initial=n) + 1
        hi = np.max(ends, axis=1, where=inside, initial=-1) + 1
        # a one-wide sum would run pairwise: a lone live column brings the next
        for k, (x, a, b) in enumerate(zip(np.maximum(live, 2).tolist(), lo.tolist(), hi.tolist())):
            dev = work[:b * x].reshape(b, x)
            np.subtract(fv[:b, :x], cen[k, :x], out=dev)
            np.abs(dev, out=dev)
            if p != 1.0:
                dev **= p
            dev *= wv[:b, :x]
            if a < b:  # zero, not mask: inf * 0 is NaN
                np.copyto(dev[a:], 0.0, where=np.arange(a, b)[:, None] > ends[k, :x])
            np.add.reduce(dev, axis=0, out=cen[k, :x])  # rank k's centres are spent
        np.copyto(cen, 0.0, where=np.arange(len(j)) >= live[:, None])  # ranks a column lacks
        cen /= mu
        if p != 1.0:
            cen **= 1.0 / p
        out[ins, cs] = cen.max(axis=0)
        del fv, wv, ranks, ends, mu, cen  # before the next block's are made
    return out


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
        return float(_oscillation_peaks(space, v[None], p).max())
    return float(_oscillation_peaks(space, v[None], 1.0,
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


def _grand_grid(params: GrandParams, s: float):
    """Grid points eps below s, p - eps, max(lam - A(eps), 0) and phi(eps)^(1/(p - eps))."""
    grid = params.eps_grid[params.eps_grid < s]
    if grid.size == 0:
        raise EmptyGrid(f"no grid point below s={s}")
    pe = params.p - grid
    return grid, pe, np.maximum(params.lam - params.A(grid), 0.0), params.phi(grid) ** (1.0 / pe)


def _scale_exponents(lam_eff: np.ndarray) -> np.ndarray:
    """-lam_eff per grid point, or its one entry when lam_eff is constant: the
    sweep broadcasts a one-column scale over eps, the same powers in 1/E the work."""
    return -(lam_eff[:1] if np.all(lam_eff == lam_eff[0]) else lam_eff)


def _rank_measures(bf) -> np.ndarray:
    """The (N, R) ball measures, or their first row when every center's ball of
    each rank has the same measure, as on a uniform circle: a scale table built
    from it holds the same powers in 1/N the work, and the sweep reduces over centers."""
    return bf.measures[:1] if np.all(bf.measures == bf.measures[:1]) else bf.measures


def _column_bounds(bf, mu: np.ndarray, lam_eff: np.ndarray):
    """(cmax_k - 1, smax, sfull, satom) of `_column_range` from the (N', R) measures mu."""
    lo, hi, neg = mu.min(axis=0), mu.max(axis=0), -lam_eff
    return bf.counts.max(axis=0) - 1, lo ** neg[:, None], hi[-1] ** neg, hi[0] ** neg


def _column_range(space: DiscreteHomSpace, rows, pe, phi_pow, last, smax, sfull, satom):
    """(M, E) upper and lower bounds of each (input, eps) column's weighted norm: with P(m)
    the sum of the input's m largest terms |f|^(p - eps) w, phi_pow times the 1/(p - eps)
    power of max_k P(cmax_k) smax_k and of max(P(N) sfull, P(1) satom), cmax_k and smax_k
    rank k's largest count and scale mu(B)^(-lam_eff), sfull and satom the least scales of
    the whole space and of one atom, balls every sweep evaluates.  An N-term sum rounds by
    at most N 2^-53 relative, 1e-13 at N = 1024: the 1e-9 margins cover N up to about 1e6.
    Inputs go in chunks whose (m, E, N) arrays fit `_BLOCK_BYTES`; an input with a lower
    bound under tiny / 1e-9 or at inf gets lower bounds -inf, all its columns swept."""
    upper, lower = np.empty((2, len(rows), pe.size))
    chunk = max(1, _BLOCK_BYTES // (3 * 8 * space.n * pe.size))
    for c0 in range(0, len(rows), chunk):
        sums = np.power(np.abs(rows[c0:c0 + chunk, None, :]), pe[:, None])
        sums *= -space.weight  # negated, so an ascending sort puts the largest first
        sums.sort(axis=2)
        np.negative(np.cumsum(sums, axis=2, out=sums), out=sums)  # P(m) at m - 1
        upper[c0:c0 + chunk] = np.max(sums[:, :, last] * smax, axis=2)
        lower[c0:c0 + chunk] = np.maximum(sums[:, :, -1] * sfull, sums[:, :, 0] * satom)
    pre, root = lower, lower ** (1.0 / pe)
    upper, lower = upper ** (1.0 / pe) * phi_pow * (1 + 1e-9), root * phi_pow * (1 - 1e-9)
    # under tiny / 1e-9 subnormal steps are no small relative error; at inf a sweep may be finite
    sound = (np.min([pre, root, lower], axis=0) >= np.finfo(float).tiny * 1e9) & (lower < np.inf)
    lower[~sound.all(axis=1)] = -np.inf
    return upper, lower


def _live_columns(upper, lower, cuts) -> np.ndarray:
    """(M, cuts[-1]) mask of the columns that can attain Phi at some non-decreasing cut: e's
    `_column_range` upper bound reaches the largest lower bound below the first cut above e."""
    below = np.maximum.accumulate(lower, axis=1)[:, cuts - 1]
    return upper >= below[:, np.searchsorted(cuts, np.arange(cuts[-1]), side="right")]


def phi_functional_detail(space: DiscreteHomSpace, f, params: GrandParams,
                          s: float) -> NormResult:
    """phi_functional and its first maximising eps, then center, then rank: one shell sweep
    of the eps below s that `_column_range` keeps, mu(B)^(-lam_eff) formed per rank, and
    after a sweep reduced over centers a per-center one of the maximising eps alone."""
    if not (0 < s <= params.smax * (1 + 1e-12)):
        raise ValueError("need 0 < s <= s_max")
    grid, pe, lam_eff, phi_pow = _grand_grid(params, s)
    bf, v, mu = space.balls, as_values(space, f), _rank_measures(space.balls)
    upper, lower = _column_range(space, v[None], pe, phi_pow, *_column_bounds(bf, mu, lam_eff))
    live = _live_columns(upper, lower, np.array([pe.size]))[0]
    grid, pe, phi_pow, neg = grid[live], pe[live], phi_pow[live], _scale_exponents(lam_eff[live])
    peak, powers = _grand_peaks(space, v[None], np.zeros((1, pe.size), int), pe[None],
                                lambda k: mu[:, k, None] ** neg)
    vals = phi_pow * peak[:, 0].max(axis=0) ** (1.0 / pe)
    e = int(np.argmax(vals))
    neg_e, at = neg[min(e, neg.size - 1):][:1], peak[:, 0, e]
    if len(at) < space.n:  # reduced over centers
        at = _ball_peaks(space, np.ascontiguousarray(powers[:, :, e:e + 1]),
                         lambda k: bf.measures[:, k, None] ** neg_e, np.multiply)[:, 0, 0]
    c = int(np.argmax(at))
    row = np.cumsum(powers[bf.order[c], 0, e])[bf.counts[c] - 1] * bf.measures[c] ** neg_e
    return NormResult(float(vals[e]), eps=float(grid[e]), center=c, rank=int(np.argmax(row)))


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
    stored rank-major so the (N, E) slice of one rank is contiguous; when
    lam_eff is the same at every grid point it holds one column, (N, R, 1),
    and when every center's ball of each rank has the same measure one row,
    (1, R, E): the sweep broadcasts the column over eps, and with one row it
    takes each rank's maximum over centers before scaling it.  (input, eps)
    columns are swept by `_grand_peaks`, C E at a time, C sized so the arrays
    the sweep holds fit `_BLOCK_BYTES`.  A vector sweeps all E columns of an
    input; Phi at cuts (`phi_at`, the norm its one cut at E) those that
    `_live_columns` keeps, so it is `weighted_vector`'s prefix maximum bit for bit.

    Vectors and Phi memoise swept columns per input row as (E,) rows, NaN where not swept, and
    norms their values keyed also by the phi weights, in the ball family under (p - eps, lam_eff)
    while the space lives; a call sweeps only the columns it needs and the memo lacks.  The memos
    are the only state calls share; their gets and sets are atomic, so threads may share them.
    """

    def __init__(self, space: DiscreteHomSpace, params: GrandParams):
        self.space = space
        self.params = params
        bf = space.balls
        self.grid, self.pe, lam_eff, self.phi_pow = _grand_grid(params, params.smax)
        mu, key = _rank_measures(bf), (self.pe.tobytes(), lam_eff.tobytes())
        # mu^(-lam_eff) indexed (N, R, E), stored (R, N, E), E = 1 for a constant
        # lam_eff and N = 1 for measures that depend on the rank alone
        self.mu_pow = (np.ascontiguousarray(mu.T)[:, :, None]
                       ** _scale_exponents(lam_eff)).transpose(1, 0, 2)
        self._bounds = _column_bounds(bf, mu, lam_eff)
        self._memo: dict[bytes, np.ndarray] = bf.memo.setdefault(("grand", *key), {})
        self._norms = bf.memo.setdefault(("grand-norm", *key, self.phi_pow.tobytes()), {})

    @cached_property
    def columns(self) -> int:
        """Inputs per column block, C E columns in a norm's: powers and run are (N, C E), and
        so are a gather buffer and, unless a one-row scale reduces over centers, the peaks."""
        per_center = self.mu_pow.shape[0] > 1
        held = 2 + (per_center or None in self.space.balls.step_table[2]) + per_center
        return max(1, _BLOCK_BYTES // (held * 8 * self.space.n * self.pe.size))

    def _missing(self, f, memo=()):
        """f's rows that `memo` lacks (first of each key), whether f is one row, keys, missing."""
        rows, single = _as_rows(self.space, f)
        keys = [hashlib.blake2b(r.tobytes(), digest_size=16).digest() for r in rows]
        todo: dict[bytes, int] = {}
        for i, key in enumerate(keys):
            if key not in memo:
                todo.setdefault(key, i)
        return rows[list(todo.values())] if len(todo) < len(rows) else rows, single, keys, todo

    def _known(self, keys) -> np.ndarray:
        """A copy of the memo's (M, E) rows of keys, NaN in the columns not swept."""
        blank = np.full(self.pe.size, np.nan)
        return np.array([self._memo.get(k, blank) for k in keys]).reshape(len(keys), blank.size)

    def _fill(self, rows, keys, known, at, ex, memo):
        """Sweep columns (rows[at], ex), at ascending, whole rows if all, into known and memo."""
        known[at, ex] = self._sweep(rows, at, ex, len(at) == known.size)
        memo.update((keys[i], known[i]) for i in set(at.tolist()))

    def _sweep(self, rows: np.ndarray, at: np.ndarray, ex: np.ndarray, whole: bool):
        """Morrey norms of the (input, eps) columns (rows[at], ex), at ascending, C E a block:
        (C, E) for whole inputs, rank k's scale broadcast, or (1, X), each column's gathered."""
        scales, out = self.mu_pow.transpose(1, 0, 2), np.empty(len(at))
        shape, width = (-1, self.pe.size) if whole else (1, -1), self.columns * self.pe.size
        for c0 in range(0, len(at), width):
            a, x = at[c0:c0 + width], ex[c0:c0 + width]
            pick = slice(None) if whole or scales.shape[2] == 1 else x
            pe = self.pe[x].reshape(shape)
            peak = _grand_peaks(self.space, rows[a[0]:a[-1] + 1], a.reshape(shape) - a[0], pe,
                                lambda k: scales[k][..., pick])[0]
            out[c0:c0 + width] = (peak.max(axis=0) ** (1.0 / pe)).ravel()
        return out

    def morrey_vector(self, f) -> np.ndarray:
        """Per-grid-point Morrey norms ||f||_{p-eps, lam-A(eps)}: shape (E,)
        for one input, (M, E) for a stack of M."""
        rows, single, keys, todo = self._missing(f)
        known = self._known(todo)
        self._fill(rows, list(todo), known, *np.nonzero(np.isnan(known)), self._memo)
        got = dict(zip(todo, known))
        out = np.array([got[key] for key in keys]).reshape(len(keys), self.pe.size)
        return out[0] if single else out

    def weighted_vector(self, f) -> np.ndarray:
        """phi(eps)^(1/(p-eps)) ||f||_{p-eps, lam-A(eps)} over the grid, per input."""
        return self.phi_pow * self.morrey_vector(f)

    def _phis(self, rows, keys, cuts, memo) -> np.ndarray:
        """(M, K) Phi at a cuts array, for distinct rows: memo columns and the live ones swept."""
        c, known = cuts[-1], self._known(keys)
        hole = np.isnan(known[:, :c])
        need = np.flatnonzero(hole.any(axis=1))  # a row without holes needs no bounds
        upper, lower = _column_range(self.space, rows[need], self.pe[:c], self.phi_pow[:c],
                                     self._bounds[0], *(b[:c] for b in self._bounds[1:]))
        at, ex = np.nonzero(_live_columns(upper, lower, cuts) & hole[need])
        self._fill(rows, keys, known, need[at], ex, memo)
        return np.fmax.accumulate(self.phi_pow[:c] * known[:, :c], axis=1)[:, cuts - 1]

    def phi_at(self, f, cuts) -> np.ndarray:
        """Phi(f, sigma) at each cut, the grid points below sigma (non-decreasing, in 1..E): (K,)
        or (M, K), bit for bit np.maximum.accumulate(weighted_vector(f))[..., cuts - 1]."""
        cuts = np.asarray(cuts)
        if cuts.ndim != 1 or cuts.size == 0 or cuts.dtype.kind not in "iu" \
                or np.any(np.diff(cuts, prepend=1, append=self.pe.size) < 0):
            raise ValueError(f"cuts must be non-decreasing integers in 1..{self.pe.size}")
        rows, single, keys, todo = self._missing(f)
        got = dict(zip(todo, self._phis(rows, list(todo), cuts, self._memo)))
        out = np.array([got[key] for key in keys]).reshape(len(keys), cuts.size)
        return out[0] if single else out

    def __call__(self, f):
        """The grand norm: a float for one input, an (M,) array for a stack."""
        rows, single, keys, todo = self._missing(f, self._norms)
        cut = np.array([self.pe.size])  # its columns are not kept: no suite reads them as vectors
        self._norms.update(zip(todo, self._phis(rows, list(todo), cut, {})[:, 0]))
        out = np.array([self._norms[key] for key in keys])
        return float(out[0]) if single else out
