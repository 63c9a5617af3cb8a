"""Finite discrete spaces of homogeneous type.

A space is the triple (X, d, mu): a finite point set 0..N-1, an N x N
quasi-metric table, and strictly positive atomic weights.  Suprema over
continuous ball radii reduce, on a finite space, to maxima over the family
of closed balls realized at the distinct distances from each center; this
module builds and caches that family and computes the doubling diagnostics
(doubling constant, reverse-doubling exponent, annulus positivity).

Conventions:
  * balls are closed, enumerated at the sorted distinct distances from the
    center, radius 0 included (the zero-distance class) and the largest
    realized radius included, so the full space is always the last ball;
  * ties in distance collapse into a single radius rank;
  * where a measure mu B(x, d(x, y)) is evaluated at an exact pair distance
    (potential kernels, kernel size conditions) the open ball {z: d(x,z) <
    d(x,y)} is used, with the atom's own weight as the radius-0 fallback.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "SpaceValidationError",
    "QuasiTriangleViolation",
    "SymmetryViolation",
    "NonPositiveWeight",
    "ZeroDistanceOffDiagonal",
    "NonZeroDiagonal",
    "DegenerateFit",
    "DiscreteHomSpace",
    "BallFamily",
    "AnnulusReport",
    "build_uniform_grid",
    "build_from_table",
    "space_from_points",
    "load_space_json",
    "dump_space_json",
    "load_space_csv",
    "doubling_constant",
    "reverse_doubling_exponent",
    "check_annulus",
]

_REL_TOL = 1e-12


class SpaceValidationError(ValueError):
    """A quasi-metric measure-space axiom failed; carries the witness."""

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class QuasiTriangleViolation(SpaceValidationError):
    def __init__(self, i, j, k, lhs, rhs):
        super().__init__(
            f"quasi-triangle failed at ({i},{j},{k}): d={lhs:.6g} > C_t*(sum)={rhs:.6g}",
            (i, j, k),
        )


class SymmetryViolation(SpaceValidationError):
    def __init__(self, i, j, lhs, rhs):
        super().__init__(
            f"quasi-symmetry failed at ({i},{j}): d={lhs:.6g} > C_s*d(j,i)={rhs:.6g}",
            (i, j),
        )


class NonPositiveWeight(SpaceValidationError):
    def __init__(self, i, value):
        super().__init__(f"weight[{i}] = {value:.6g} is not strictly positive", (i,))


class ZeroDistanceOffDiagonal(SpaceValidationError):
    def __init__(self, i, j):
        super().__init__(f"d({i},{j}) = 0 with {i} != {j}", (i, j))


class NonZeroDiagonal(SpaceValidationError):
    def __init__(self, i, value):
        super().__init__(f"d({i},{i}) = {value:.6g} != 0", (i,))


class DegenerateFit(RuntimeError):
    """Too few nested ball pairs to fit a reverse-doubling exponent."""


def _as_readonly(a, dtype=float):
    out = np.ascontiguousarray(np.asarray(a, dtype=dtype))
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DiscreteHomSpace:
    """Immutable (X, d, mu) triple on N atoms.

    dist:   (N, N) quasi-metric table, zero exactly on the diagonal.
    weight: (N,) strictly positive atomic measures.
    ct, cs: declared quasi-triangle / quasi-symmetry constants.
    labels: optional (N, dim) coordinates kept for provenance (grids record
            their positions, circles their angles).
    """

    dist: np.ndarray
    weight: np.ndarray
    ct: float = 1.0
    cs: float = 1.0
    labels: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "dist", _as_readonly(self.dist))
        object.__setattr__(self, "weight", _as_readonly(self.weight))
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=float)
            if lab.ndim == 1:
                lab = lab[:, None]
            object.__setattr__(self, "labels", _as_readonly(lab))

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @property
    def diameter(self) -> float:
        return float(self.dist.max()) if self.n else 0.0

    @property
    def total_measure(self) -> float:
        return float(self.weight.sum())

    @cached_property
    def balls(self) -> "BallFamily":
        return BallFamily.build(self)

    def validate(self) -> "DiscreteHomSpace":
        """Check every axiom; raise the subclass naming the violated one."""
        d, w = self.dist, self.weight
        n = self.n
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise SpaceValidationError("distance table is not square", ())
        if w.shape != (n,):
            raise SpaceValidationError("weight length does not match table", ())
        bad = np.flatnonzero(~np.isfinite(w))
        if bad.size:
            i = int(bad[0])
            raise SpaceValidationError(f"weight[{i}] = {w[i]} is not finite", (i,))
        if not np.all(np.isfinite(d)):
            i, j = map(int, np.argwhere(~np.isfinite(d))[0])
            raise SpaceValidationError(f"d({i},{j}) = {d[i, j]} is not finite", (i, j))
        bad = np.flatnonzero(w <= 0)
        if bad.size:
            i = int(bad[0])
            raise NonPositiveWeight(i, float(w[i]))
        if np.any(d < 0):
            i, j = map(int, np.argwhere(d < 0)[0])
            raise SpaceValidationError(f"d({i},{j}) = {d[i, j]:.6g} < 0", (i, j))
        diag = np.abs(np.diag(d))
        if np.any(diag > 0):
            i = int(np.flatnonzero(diag > 0)[0])
            raise NonZeroDiagonal(i, float(d[i, i]))
        off = d + np.eye(n)
        if np.any(off == 0):
            i, j = map(int, np.argwhere(off == 0)[0])
            raise ZeroDistanceOffDiagonal(i, j)
        # Quasi-symmetry with a relative float cushion.
        cap = self.cs * d.T
        viol = d > cap * (1.0 + _REL_TOL) + 1e-300
        if np.any(viol):
            i, j = map(int, np.argwhere(viol)[0])
            raise SymmetryViolation(i, j, float(d[i, j]), float(cap[i, j]))
        # Quasi-triangle: the cap is non-decreasing in the sum (ct >= 0), so some k
        # fails iff the least sum over k does; the scan then names the first k.
        low, tmp = np.full((n, n), np.inf), np.empty((n, n))
        for k in range(n):
            np.minimum(low, np.add(d[:, k, None], d[k], out=tmp), out=low)
        if not np.any(d > self.ct * low * (1.0 + _REL_TOL) + 1e-300):
            return self
        for k in range(n):
            cap = self.ct * (d[:, k][:, None] + d[k, :][None, :])
            viol = d > cap * (1.0 + _REL_TOL) + 1e-300
            if np.any(viol):
                i, j = map(int, np.argwhere(viol)[0])
                raise QuasiTriangleViolation(i, j, k, float(d[i, j]), float(cap[i, j]))
        return self


class BallFamily:
    """Nested closed balls at realized radii, one chain per center.

    Its one (N, N) table is `order`: `order[c]` lists the points by distance
    from center c (stable sort, deterministic), and the ball at (c, k) is the
    first `counts[c, k]` entries of it.  The (N, R) `radii`, `counts` and
    `measures` are padded to the widest chain by repeating the full-space
    entry, so vectorized maxima over ranks are unaffected.  It keeps the
    space's `weight`, not the space, so the cached family forms no
    reference cycle and is freed with its space.  `memo` holds the norm
    layers' per-space result memos, one entry per kind of result, so they
    too live exactly as long as the space.  `open_measure` and `step_table`
    are built on first use.
    """

    __slots__ = ("weight", "order", "radii", "counts",
                 "measures", "n_ranks", "memo", "_open_mu", "_steps")

    def __init__(self, weight, order, radii, counts, measures, n_ranks):
        self.weight = weight
        self.order = order
        self.radii = radii
        self.counts = counts
        self.measures = measures
        self.n_ranks = n_ranks
        self.memo: dict = {}
        self._open_mu = None
        self._steps = None

    @staticmethod
    def build(space: DiscreteHomSpace) -> "BallFamily":
        d, w = space.dist, space.weight
        n = space.n
        order = np.argsort(d, axis=1, kind="stable")
        rows = np.arange(0, n * n, n)[:, None]
        order += rows  # one flat take, then the row offsets come off again
        sd = d.take(order)
        order -= rows
        # Rank boundaries: the last position of each run of equal distances.
        last = np.ones((n, n), dtype=bool)
        np.not_equal(sd[:, 1:], sd[:, :-1], out=last[:, :-1])
        n_ranks = last.sum(axis=1, dtype=np.int64)
        rmax = int(n_ranks.max())
        ends = np.flatnonzero(last)  # flat positions in sd, row by row
        del last
        if ends.size < n * rmax:  # chains shorter than rmax repeat their last end
            ends = ends[np.minimum(np.arange(rmax), n_ranks[:, None] - 1)
                        + (np.cumsum(n_ranks) - n_ranks)[:, None]]
        ends = ends.reshape(n, rmax)
        radii = sd.take(ends)
        del sd
        cum_w = w.take(order)
        measures = np.cumsum(cum_w, axis=1, out=cum_w).take(ends)
        del cum_w
        counts = ends - (rows - 1)
        for a in (order, radii, counts, measures, n_ranks):
            a.setflags(write=False)
        return BallFamily(w, order, radii, counts, measures, n_ranks)

    def radii_of(self, center: int) -> np.ndarray:
        return self.radii[center, : self.n_ranks[center]]

    def members(self, center: int, rank: int) -> np.ndarray:
        return self.order[center, : self.counts[center, rank]]

    def measure(self, center: int, rank: int) -> float:
        return float(self.measures[center, rank])

    @property
    def step_table(self) -> tuple[np.ndarray, list[int], list]:
        """(steps, widths, runs) of a shell sweep, built once: rank k adds each
        center's shell of equidistant atoms in widths[k] steps, and row s of
        the int32 `steps` holds the atom each center gains, or N if none.
        Every entry is checked to lie in [0, N] here, once, so sweeps may
        gather with `take(..., mode="clip")`, which skips the per-call check.
        runs[s] lists row s, N entries left out, as (first center, end center,
        first atom) runs of consecutive atoms that a sweep adds as slices: at
        most 3 on a circle and 2 on an interval, and None past 4 runs."""
        if self._steps is None:
            order = self.order
            n = order.shape[0]
            if not 0 <= order.min() <= order.max() <= n:
                raise ValueError(f"step table entries outside [0, {n}]")
            # bounds[k, c], bounds[k + 1, c]: where center c's rank-k shell starts and ends
            bounds = np.vstack([np.zeros(n, dtype=int), self.counts.T], dtype=np.int32)
            widths = np.diff(bounds, axis=0).max(axis=1)
            rank = np.repeat(np.arange(widths.size), widths)
            shift = np.arange(rank.size) - np.repeat(np.cumsum(widths) - widths, widths)
            steps, runs = np.empty((rank.size, n), dtype=np.int32), []
            row_at = np.arange(0, n * n, n)[:, None]
            t = 64  # steps a block writes, and centers a tile of it gathers at once
            for s in range(0, rank.size, t):
                k, rows = rank[s:s + t], steps[s:s + t]
                pos = bounds[k] + shift[s:s + t, None]  # each step's position in order's rows
                for c in range(0, n, t):  # a tile reads t rows of order, not one entry of each
                    at = pos[:, c:c + t].T + row_at[c:c + t]
                    rows[:, c:c + t] = order.take(at, mode="clip").T
                rows[pos >= bounds[k + 1]] = n
                runs += _step_runs(rows, n)
            steps.setflags(write=False)
            self._steps = (steps, widths.tolist(), runs)
        return self._steps

    @property
    def open_measure(self) -> np.ndarray:
        """open_measure[x, y] = mu{z: d(x,z) < d(x,y)}, with weight[x] at y=x.

        This is the denominator convention for kernels evaluated at an exact
        pair distance: it keeps the two-atom potential value (1/2)/(1/2)^(1/2)
        and makes the smallest denominator the atom's own mass.
        """
        if self._open_mu is None:
            n = self.order.shape[0]
            # each shell gets the measure of the ball before it, rank 0 the atom's weight
            before = np.concatenate([self.weight[:, None], self.measures[:, :-1]], axis=1)
            sizes = np.diff(self.counts, axis=1, prepend=0)
            by_distance = np.repeat(before.ravel(), sizes.ravel()).reshape(n, n)
            del before, sizes  # at most two N x N tables are held below
            out = np.empty((n, n))
            np.put_along_axis(out, self.order, by_distance, axis=1)
            out.setflags(write=False)
            self._open_mu = out
        return self._open_mu


def _step_runs(rows, n):
    """Each row's (first center, end center, first atom) runs of consecutive
    atoms, N entries left out, or None past 4 runs."""
    flat = rows.ravel()
    real = flat < n
    linked = np.zeros(flat.size + 1, dtype=bool)  # flat[i - 1] runs on into flat[i]
    linked[1:-1] = (np.diff(flat) == 1) & real[1:]
    linked[::n] = False  # not across rows
    first = (real & ~linked[:-1]).reshape(-1, n)
    end = (real & ~linked[1:]).reshape(-1, n)
    n_runs = first.sum(axis=1, dtype=np.int32)
    first[n_runs > 4] = end[n_runs > 4] = False
    at, a = np.divmod(np.flatnonzero(first), n)
    runs = zip(a.tolist(), (np.flatnonzero(end) % n + 1).tolist(), rows[at, a].tolist())
    return [None if m > 4 else [next(runs) for _ in range(m)] for m in n_runs.tolist()]


@dataclass
class AnnulusReport:
    passed: bool
    witnesses: list
    note: str = ""


def build_uniform_grid(n: int, dim: int = 1, geometry: str = "interval") -> DiscreteHomSpace:
    """Equispaced grid on [0,1]^dim (Euclidean) or the unit circle (arc length).

    Every atom carries weight 1/n^dim so the total measure is 1; the metric
    constants are C_t = C_s = 1.
    """
    if n < 2:
        raise ValueError("need at least 2 points per axis")
    if geometry not in ("interval", "circle"):
        raise ValueError(f"unknown geometry {geometry!r}")
    # Distances are computed from integer index offsets so that geometric
    # ties are exact floats and collapse into a single radius rank.
    idx = np.arange(n)
    h = 1.0 / (n - 1)
    if geometry == "circle":
        if dim != 1:
            raise ValueError("circle geometry is one-dimensional")
        x = 2.0 * np.pi * idx / n
        table = (2.0 * np.pi / n) * np.minimum(idx, n - idx)
    elif dim == 1:
        x = (idx * h)[:, None]
        table = h * idx.astype(float)
    elif dim == 2:
        ii, jj = np.meshgrid(idx, idx, indexing="ij")
        x = np.column_stack([ii.ravel() * h, jj.ravel() * h])
        table = h * np.sqrt((idx[:, None] ** 2 + idx[None, :] ** 2).astype(float))
    else:
        raise ValueError("dim must be 1 or 2")
    # d[a, b] = table[|a - b|] along each axis (atoms row-major): a strided view
    # into ext[n - 1 + k] = table[|k|], copied once
    ext = table[np.ix_(*[np.abs(np.arange(1 - n, n))] * table.ndim)]
    dist = np.ndarray(table.shape * 2, float, ext, (n - 1) * sum(ext.strides),
                      tuple(-s for s in ext.strides) + ext.strides).reshape(len(x), len(x))
    return DiscreteHomSpace(dist, np.full(len(x), 1.0 / len(x)), 1.0, 1.0, labels=x)


def build_from_table(dist_table, weights, ct: float = 1.0, cs: float = 1.0,
                     labels=None) -> DiscreteHomSpace:
    """Ingest an explicit table, validating every axiom against (ct, cs)."""
    return DiscreteHomSpace(dist_table, weights, float(ct), float(cs), labels).validate()


def space_from_points(coords, weights=None) -> DiscreteHomSpace:
    """Euclidean metric space on a point cloud; weights default to 1/N each."""
    pts = np.asarray(coords, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    if weights is None:
        weights = np.full(n, 1.0 / n)
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(dist, 0.0)
    return DiscreteHomSpace(dist, weights, 1.0, 1.0, labels=pts).validate()


def dump_space_json(space: DiscreteHomSpace, path) -> None:
    payload = {
        "n": space.n,
        "dist": space.dist.tolist(),
        "weight": space.weight.tolist(),
        "ct": space.ct,
        "cs": space.cs,
    }
    if space.labels is not None:
        payload["labels"] = space.labels.tolist()
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_space_json(path) -> DiscreteHomSpace:
    with open(path) as fh:
        payload = json.load(fh)
    for key in ("n", "dist", "weight", "ct", "cs"):
        if key not in payload:
            raise ValueError(f"space file missing field {key!r}")
    dist = np.asarray(payload["dist"], dtype=float)
    if dist.shape != (payload["n"], payload["n"]):
        raise ValueError("dist table shape does not match declared n")
    return build_from_table(dist, payload["weight"], payload["ct"], payload["cs"],
                            labels=payload.get("labels"))


def load_space_csv(path) -> DiscreteHomSpace:
    """Point cloud ingestion: columns x1..xd plus a final weight column."""
    rows, seen = [], False
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for rec in reader:
            if not rec or rec[0].lstrip().startswith("#"):
                continue
            if any(not _is_number(tok) for tok in rec):
                if seen:  # only the first row may be a header
                    raise ValueError(f"non-numeric data row at line {reader.line_num}")
            else:
                rows.append([float(tok) for tok in rec])
            seen = True
    if not rows:
        raise ValueError("no data rows in point-cloud CSV")
    arr = np.asarray(rows)
    if arr.shape[1] < 2:
        raise ValueError("expected at least one coordinate column plus weight")
    return space_from_points(arr[:, :-1], arr[:, -1])


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def doubling_constant(space: DiscreteHomSpace) -> float:
    """Least C_d with mu B(x,2r) <= C_d mu B(x,r) over all centers and r > 0.

    The ratio is a piecewise-constant function of r with breakpoints at the
    realized distances and their halves, so scanning those candidates gives
    the exact supremum over the continuum of radii.
    """
    bf = space.balls
    best = 1.0
    for c in range(space.n):
        radii = bf.radii_of(c)
        mus = bf.measures[c, : len(radii)]
        pos = radii[radii > 0]
        if pos.size == 0:
            continue
        cand = np.concatenate([pos, pos / 2.0])
        lo = mus[np.searchsorted(radii, cand, side="right") - 1]
        hi = mus[np.minimum(np.searchsorted(radii, 2.0 * cand, side="right") - 1,
                            len(radii) - 1)]
        best = max(best, float((hi / lo).max()))
    return best


def reverse_doubling_exponent(space: DiscreteHomSpace) -> tuple[float, float]:
    """Fit mu B(x,r)/mu B(x,R) ~ C (r/R)^gamma over nested realized pairs.

    Returns (C, gamma).  gamma is the least-squares slope through the origin
    of log measure ratios against log radius ratios.  The fit uses the
    dyadic pairs of each center -- (r, R) with R the realized radius nearest
    2r -- restricted to the scaling window: r at least twice the smallest
    positive radius (above the atomic floor), mu B(x,R) at most half the
    total measure (below saturation), and both balls within 95 percent of
    the fullest ball realized anywhere at the same radius (boundary-clipped
    balls grow with a depressed exponent and would bias the fit; on generic
    spaces radii rarely coincide across centers so the criterion is
    inactive).  When no pair survives the window, all positive pairs are
    used.  C is the envelope constant making the power bound hold for every
    positive pair, never below 1.  Raises DegenerateFit with fewer than two
    nested pairs.
    """
    bf = space.balls
    half = 0.5 * space.total_measure
    # the fullest ball at each realized radius; a chain's padding repeats
    # its own full-space entry, so it changes no maximum
    keys, inv = np.unique(bf.radii, return_inverse=True)
    fullest = np.zeros(keys.size)
    np.maximum.at(fullest, inv.ravel(), bf.measures.ravel())

    def chain(c):
        """Radii and measures of center c's balls of positive radius."""
        radii = bf.radii_of(c)
        keep = radii > 0
        return radii[keep], bf.measures[c, : radii.size][keep]

    def nested_pairs(lx, ly):
        """(log r/R, log mu B(x,r)/mu B(x,R)) over one center's pairs r < R."""
        iu = np.triu_indices(lx.size, k=1)
        return (lx[:, None] - lx[None, :])[iu], (ly[:, None] - ly[None, :])[iu]

    # pass 1: pair count, fallback sums and window pairs, holding one center's
    # O(R^2) nested pairs at a time; pass 2 forms them again for the envelope
    npairs, sxx, sxy = 0, 0.0, 0.0
    fit_x, fit_y = [], []
    for c in range(space.n):
        r, m = chain(c)
        if r.size < 2:
            continue
        lx, ly = np.log(r), np.log(m)
        x, y = nested_pairs(lx, ly)
        npairs += x.size
        sxx += float((x * x).sum())
        sxy += float((x * y).sum())
        # each r in the window and the realized radius nearest 2r (the lower on a tie)
        i = np.flatnonzero((r >= 2.0 * r[0]) & (2.0 * r <= r[-1]))
        j = np.clip(np.searchsorted(r, 2.0 * r[i]), 1, r.size - 1)
        j = j - (np.abs(r[j - 1] - 2.0 * r[i]) <= np.abs(r[j] - 2.0 * r[i]))
        full = 0.95 * fullest[np.searchsorted(keys, r)]
        keep = (j > i) & (m[j] <= half) & (m[i] >= full[i]) & (m[j] >= full[j])
        fit_x.append(lx[i[keep]] - lx[j[keep]])
        fit_y.append(ly[i[keep]] - ly[j[keep]])
    if npairs < 2:
        raise DegenerateFit(f"only {npairs} nested realized pair(s)")
    if sum(x.size for x in fit_x) >= 2:
        x, y = np.concatenate(fit_x), np.concatenate(fit_y)
        gamma = float((x * y).sum() / (x * x).sum())
    else:
        gamma = sxy / sxx
    resid = -math.inf
    for c in range(space.n):
        r, m = chain(c)
        if r.size >= 2:
            x, y = nested_pairs(np.log(r), np.log(m))
            resid = max(resid, float((y - gamma * x).max()))
    return max(math.exp(resid), 1.0), gamma


def check_annulus(space: DiscreteHomSpace) -> AnnulusReport:
    """Verify mu(B(x,R) \\ B(x,r)) > 0 for realized r < R < diameter.

    Under the closed-ball realized-radius convention every such annulus
    contains the atoms at distance exactly R, so valid spaces always pass;
    failures are reported as witness triples, never raised.
    """
    bf = space.balls
    radii, mus = bf.radii, bf.measures
    live = np.arange(radii.shape[1]) < bf.n_ranks[:, None]
    # radii ascend along a chain, so a center's selected ranks are contiguous
    sel = live & (radii > 0) & (radii < space.diameter)
    bad = sel[:, :-1] & sel[:, 1:] & ~(mus[:, 1:] > mus[:, :-1])
    witnesses = [(int(c), float(radii[c, a]), float(radii[c, a + 1]))
                 for c, a in np.argwhere(bad)]
    note = ("closed-ball realized-radius convention: annuli between distinct "
            "ranks contain the atoms at the outer radius")
    return AnnulusReport(passed=not witnesses, witnesses=witnesses, note=note)

