import math

import numpy as np
import pytest

from morreylab import funcnorm
from morreylab.homspace import (_REL_TOL, DegenerateFit, DiscreteHomSpace,
                                NonPositiveWeight, NonZeroDiagonal, QuasiTriangleViolation,
                                SpaceValidationError, SymmetryViolation,
                                ZeroDistanceOffDiagonal, build_from_table, build_uniform_grid,
                                space_from_points)


@pytest.fixture(scope="session")
def two_atom():
    return build_from_table([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])


@pytest.fixture(scope="session")
def grid3():
    return build_uniform_grid(3, 1, "interval")


@pytest.fixture(scope="session")
def grid16():
    return build_uniform_grid(16, 1, "interval")


@pytest.fixture(scope="session")
def circle32():
    return build_uniform_grid(32, 1, "circle")


@pytest.fixture(scope="session")
def cloud20():
    rng = np.random.default_rng(11)
    return space_from_points(rng.random((20, 2)), rng.uniform(0.5, 1.5, 20) / 20)


def random_cloud(n, seed, dim=2):
    rng = np.random.default_rng(seed)
    return space_from_points(rng.random((n, dim)), rng.uniform(0.5, 1.5, n) / n)


# Spaces for kernel-versus-reference tests: a circle with an odd number of
# atoms, a tie-free cloud, a 2-D grid with distance ties and a single atom.
REFERENCE_SPACES = {
    "circle257": lambda: build_uniform_grid(257, 1, "circle"),
    "cloud40": lambda: random_cloud(40, 5),
    "grid2d-ties": lambda: build_uniform_grid(6, 2, "interval"),
    "single-atom": lambda: build_from_table([[0.0]], [1.0]),
}

# stack tests add two spaces whose shells are uneven, so some centers pad
# their shells with the zero row; the weighted 7 x 7 grid has N = 49 atoms.
# Two more have ball measures that depend on the rank alone, as the circle's
# do, but step rows the sweep gathers: a relabeled circle, whose rows are
# scattered, and a uniform complete space, whose one wide shell gains the
# same atom at most centers.
STACK_SPACES = {
    **REFERENCE_SPACES,
    "interval256": lambda: build_uniform_grid(256, 1, "interval"),
    "grid2d-weighted": lambda: build_from_table(
        build_uniform_grid(7, 2, "interval").dist,
        np.random.default_rng(4).uniform(0.2, 1.8, 49) / 49),
    "circle64-relabeled": lambda: relabeled(build_uniform_grid(64, 1, "circle"),
                                            np.random.default_rng(6).permutation(64)),
    "complete50": lambda: build_from_table(1.0 - np.eye(50), np.full(50, 1.0 / 50)),
}


def reference_ball_family(space):
    """(order, radii, counts, measures, n_ranks) from the per-center loops
    that BallFamily.build replaced, kept verbatim as its reference."""
    d, w = space.dist, space.weight
    n = space.n
    order = np.argsort(d, axis=1, kind="stable")
    sd = np.take_along_axis(d, order, axis=1)
    sw = w[order]
    cumw = np.cumsum(sw, axis=1)

    radii_rows, count_rows, mu_rows = [], [], []
    for c in range(n):
        row = sd[c]
        # Rank boundaries: last index of each run of equal distances.
        ends = np.flatnonzero(np.diff(row) != 0)
        ends = np.concatenate([ends, [n - 1]])
        radii_rows.append(row[ends])
        count_rows.append(ends + 1)
        mu_rows.append(cumw[c, ends])

    n_ranks = np.array([len(r) for r in radii_rows], dtype=np.int64)
    rmax = int(n_ranks.max())
    radii = np.empty((n, rmax))
    counts = np.empty((n, rmax), dtype=np.int64)
    measures = np.empty((n, rmax))
    for c in range(n):
        k = n_ranks[c]
        radii[c, :k] = radii_rows[c]
        counts[c, :k] = count_rows[c]
        measures[c, :k] = mu_rows[c]
        radii[c, k:] = radii_rows[c][-1]
        counts[c, k:] = count_rows[c][-1]
        measures[c, k:] = mu_rows[c][-1]
    return order, radii, counts, measures, n_ranks


def reference_open_measure(space):
    """The per-center searchsorted loop that BallFamily.open_measure replaced,
    over the reference family's tables."""
    _, radii_table, _, measures, n_ranks = reference_ball_family(space)
    n = space.n
    w = space.weight
    out = np.empty((n, n))
    for c in range(n):
        radii = radii_table[c, : n_ranks[c]]
        rk = np.searchsorted(radii, space.dist[c], side="left")
        mu = np.where(rk > 0, measures[c, np.maximum(rk - 1, 0)], w[c])
        out[c] = mu
    return out


def reference_annulus_witnesses(space):
    """The witness triples of the per-center loop that check_annulus
    replaced, over the reference family's tables."""
    _, radii_table, _, measures, n_ranks = reference_ball_family(space)
    d_x = space.diameter
    witnesses = []
    for c in range(space.n):
        radii = radii_table[c, : n_ranks[c]]
        mus = measures[c, : len(radii)]
        sel = np.flatnonzero((radii > 0) & (radii < d_x))
        for a, b in zip(sel[:-1], sel[1:]):
            if not mus[b] > mus[a]:
                witnesses.append((c, float(radii[a]), float(radii[b])))
    return witnesses


def reference_uniform_grid(n, dim=1, geometry="interval"):
    """build_uniform_grid as it was when it formed the N x N index offsets,
    kept verbatim as the reference of the one-row layout."""
    if n < 2:
        raise ValueError("need at least 2 points per axis")
    if geometry not in ("interval", "circle"):
        raise ValueError(f"unknown geometry {geometry!r}")
    idx = np.arange(n)
    if geometry == "circle":
        if dim != 1:
            raise ValueError("circle geometry is one-dimensional")
        theta = 2.0 * np.pi * idx / n
        m = np.abs(idx[:, None] - idx[None, :])
        m = np.minimum(m, n - m)
        dist = (2.0 * np.pi / n) * m
        return DiscreteHomSpace(dist, np.full(n, 1.0 / n), 1.0, 1.0, labels=theta)
    h = 1.0 / (n - 1)
    if dim == 1:
        x = (idx * h)[:, None]
        dist = h * np.abs(idx[:, None] - idx[None, :]).astype(float)
    elif dim == 2:
        ii, jj = np.meshgrid(idx, idx, indexing="ij")
        ii, jj = ii.ravel(), jj.ravel()
        x = np.column_stack([ii * h, jj * h])
        sq = (ii[:, None] - ii[None, :]) ** 2 + (jj[:, None] - jj[None, :]) ** 2
        dist = h * np.sqrt(sq.astype(float))
    else:
        raise ValueError("dim must be 1 or 2")
    m = x.shape[0]
    return DiscreteHomSpace(dist, np.full(m, 1.0 / m), 1.0, 1.0, labels=x)


def reference_step_table(bf):
    """BallFamily.step_table as it was when it put order into an (N, S)
    table, transposed it and split it into runs row by row; kept verbatim
    as the reference of the tiled gather."""
    n = bf.order.shape[0]
    sizes = np.diff(bf.counts, axis=1, prepend=0)
    widths = sizes.max(axis=0)
    offset = np.cumsum(widths) - widths - (bf.counts - sizes)
    step = np.repeat(offset.ravel(), sizes.ravel()).reshape(n, n) + np.arange(n)
    table = np.full((n, int(widths.sum())), n, dtype=np.int32)
    np.put_along_axis(table, step, bf.order, axis=1)
    if not 0 <= table.min() <= table.max() <= n:
        raise ValueError(f"step table entries outside [0, {n}]")
    steps = np.ascontiguousarray(table.T)
    steps.setflags(write=False)
    runs = []
    for row in steps:
        real = row < n
        linked = np.zeros(n + 1, dtype=bool)  # row[i - 1] runs on into row[i]
        linked[1:n] = (np.diff(row) == 1) & real[1:]
        first = np.flatnonzero(real & ~linked[:n])
        end = np.flatnonzero(real & ~linked[1:]) + 1
        runs.append(None if len(first) > 4 else
                    list(zip(first.tolist(), end.tolist(), row[first].tolist())))
    return steps, widths.tolist(), runs


def reference_validate(space):
    """DiscreteHomSpace.validate as it was when it tested the quasi-triangle
    cap at every intermediate point k in turn, kept verbatim: the running
    minimum must give the same verdict, exception and witness."""
    d, w = space.dist, space.weight
    n = space.n
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
    cap = space.cs * d.T
    viol = d > cap * (1.0 + _REL_TOL) + 1e-300
    if np.any(viol):
        i, j = map(int, np.argwhere(viol)[0])
        raise SymmetryViolation(i, j, float(d[i, j]), float(cap[i, j]))
    for k in range(n):
        cap = space.ct * (d[:, k][:, None] + d[k, :][None, :])
        viol = d > cap * (1.0 + _REL_TOL) + 1e-300
        if np.any(viol):
            i, j = map(int, np.argwhere(viol)[0])
            raise QuasiTriangleViolation(i, j, k, float(d[i, j]), float(cap[i, j]))
    return space


def validation_outcome(check, space):
    """(exception type, witness, message) that check(space) raises, or None."""
    try:
        check(space)
    except SpaceValidationError as exc:
        return type(exc), exc.witness, str(exc)
    return None


def reference_reverse_doubling(space):
    """reverse_doubling_exponent as it was when it held every center's
    nested pairs at once (`all_rows`); the two-pass version must return
    the same (C, gamma) bit for bit."""
    bf = space.balls
    half = 0.5 * space.total_measure
    fullest: dict[float, float] = {}
    for c in range(space.n):
        radii = bf.radii_of(c)
        mus = bf.measures[c, : len(radii)]
        for rv, mv in zip(radii, mus):
            key = float(rv)
            if mv > fullest.get(key, 0.0):
                fullest[key] = float(mv)
    all_rows = []
    fit_x, fit_y = [], []
    for c in range(space.n):
        radii = bf.radii_of(c)
        mus = bf.measures[c, : len(radii)]
        mask = radii > 0
        r, m = radii[mask], mus[mask]
        if r.size < 2:
            continue
        lx = np.log(r)
        ly = np.log(m)
        iu = np.triu_indices(r.size, k=1)
        all_rows.append(((lx[:, None] - lx[None, :])[iu],
                         (ly[:, None] - ly[None, :])[iu]))
        lo = np.flatnonzero((r >= 2.0 * r[0]) & (2.0 * r <= r[-1]))
        for i in lo:
            j = int(np.clip(np.searchsorted(r, 2.0 * r[i]), 1, r.size - 1))
            if abs(r[j - 1] - 2.0 * r[i]) <= abs(r[j] - 2.0 * r[i]):
                j -= 1
            if (j > i and m[j] <= half
                    and m[i] >= 0.95 * fullest[float(r[i])]
                    and m[j] >= 0.95 * fullest[float(r[j])]):
                fit_x.append(lx[i] - lx[j])
                fit_y.append(ly[i] - ly[j])
    npairs = sum(x.size for x, _ in all_rows)
    if npairs < 2:
        raise DegenerateFit(f"only {npairs} nested realized pair(s)")
    if len(fit_x) >= 2:
        x = np.asarray(fit_x)
        y = np.asarray(fit_y)
        gamma = float((x * y).sum() / (x * x).sum())
    else:
        sxx = sum(float((x * x).sum()) for x, _ in all_rows)
        sxy = sum(float((x * y).sum()) for x, y in all_rows)
        gamma = sxy / sxx
    resid = max(float((y - gamma * x).max()) for x, y in all_rows)
    return max(math.exp(resid), 1.0), gamma


def reference_ball_sums(space, v):
    """(N, R) table of sum(v over ball) per (center, rank): the dense
    cumulative sum that the shell sweep replaced."""
    bf = space.balls
    cs = np.cumsum(v[bf.order], axis=1)
    return np.take_along_axis(cs, bf.counts - 1, axis=1)


def reference_morrey_detail(space, f, p, lam):
    """(value, center, rank) of the Morrey norm from the dense table; the
    witness is its first maximum in row-major order."""
    v = np.asarray(f, dtype=float)
    table = reference_ball_sums(space, np.abs(v) ** p * space.weight) / space.balls.measures**lam
    c, k = divmod(int(np.argmax(table)), table.shape[1])
    return float(table[c, k] ** (1.0 / p)), c, k


def reference_phi_functional(space, f, params, s):
    """The per-eps loop of morrey_norm_detail that the one-sweep
    phi_functional_detail replaced, kept verbatim as its reference."""
    if not (0 < s <= params.smax * (1 + 1e-12)):
        raise ValueError("need 0 < s <= s_max")
    grid = params.eps_grid[params.eps_grid < s]
    if grid.size == 0:
        raise funcnorm.EmptyGrid(f"no grid point below s={s}")
    v = funcnorm.as_values(space, f)
    best = funcnorm.NormResult(-1.0)
    for eps in grid:
        pe = params.p - eps
        le = max(params.lam - params.A(eps), 0.0)
        detail = funcnorm.morrey_norm_detail(space, v, pe, le)
        val = params.phi(eps) ** (1.0 / pe) * detail.value
        if val > best.value:
            best = funcnorm.NormResult(val, eps=float(eps), center=detail.center,
                                       rank=detail.rank)
    return best


def reference_maximal(space, f):
    """Max ball average of |f| per center from the dense table."""
    v = np.abs(np.asarray(f, dtype=float))
    return (reference_ball_sums(space, v * space.weight) / space.balls.measures).max(axis=1)


def sweep_columns(n):
    """Inputs per column block of a one-exponent shell sweep: its four
    (N, C) arrays fit the byte budget."""
    return max(1, funcnorm._BLOCK_BYTES // (4 * 8 * n))


def oscillation_columns(space):
    """Inputs per block of the oscillation kernel's mean centres, at least one:
    its block of (center, input) columns, whose three (N, X) and three (R, X)
    arrays fit the kernel's own byte budget, over the N columns of one input."""
    n, rmax = space.n, space.balls.measures.shape[1]
    return max(1, max(2, funcnorm._OSC_BYTES // (8 * (3 * n + 3 * rmax))) // n)


def block_edge_stacks(n, columns, seed):
    """Stacks of 0, 1, C - 1, C, C + 1 and 2C + 3 rows: random rows, rows
    of small integers (value ties and zeros), an all-zero row and a
    duplicate row."""
    rng = np.random.default_rng(seed)
    for m in sorted({0, 1, columns - 1, columns, columns + 1, 2 * columns + 3}):
        fs = rng.normal(size=(m, n)) * rng.exponential(size=(m, n))
        fs[1::3] = rng.integers(-2, 3, size=fs[1::3].shape)
        if m >= 4:
            fs[2] = 0.0
            fs[-1] = fs[0]
        yield fs


def relabeled(space, perm):
    """The same space with atom perm[i] renamed i."""
    return build_from_table(space.dist[np.ix_(perm, perm)], space.weight[perm])


def tie_heavy_samples(n, seed):
    """A normal sample and one with many equal values."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=n), rng.integers(-2, 3, size=n).astype(float)
