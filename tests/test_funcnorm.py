import gc
import math
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morreylab import funcnorm, verify
from morreylab.corpus import make_corpus
from morreylab.funcnorm import (EmptyGrid, GrandNormEvaluator, GrandParams,
                                GridFunction, NormResult, TabulatedFunction,
                                _oscillation_peaks, bmo_norm, default_eps_grid,
                                grand_lebesgue_norm, grand_lebesgue_norm_detail,
                                grand_morrey_norm, grand_morrey_norm_detail, lp_norm,
                                morrey_norm, morrey_norm_detail, phi_functional,
                                phi_functional_detail, s_max)
from morreylab.homspace import build_from_table, build_uniform_grid
from morreylab.operators import maximal

from conftest import (REFERENCE_SPACES, STACK_SPACES, block_edge_stacks, random_cloud,
                      reference_maximal, reference_morrey_detail, reference_phi_functional,
                      oscillation_columns, relabeled, sweep_columns, tie_heavy_samples)


def reference_lp_norm(space, f, p):
    """One input's Lebesgue norm: one power, one dot product, one root."""
    return float((np.abs(f) ** p @ space.weight) ** (1.0 / p))


def reference_grand_lebesgue(space, f, p, theta, grid):
    """(value, eps) of the grand Lebesgue norm by its per-eps loop; eps is
    the first maximizing grid point."""
    vals = np.array([eps ** (theta / (p - eps)) * reference_lp_norm(space, f, p - eps)
                     for eps in grid])
    k = int(np.argmax(vals))
    return float(vals[k]), float(grid[k])


def naive_grand_morrey(space, f, params):
    """Independent oracle: explicit triple loop over (eps, center, radius),
    with ball membership recomputed from the raw distance rows."""
    f = np.abs(np.asarray(f, dtype=float))
    best = 0.0
    for eps in params.eps_grid:
        if eps >= params.smax:
            continue
        pe = params.p - eps
        le = max(params.lam - params.A(eps), 0.0)
        weight = params.phi(eps) ** (1.0 / pe)
        for c in range(space.n):
            row = space.dist[c]
            for rho in np.unique(row):
                members = row <= rho
                mu = space.weight[members].sum()
                s = (f[members] ** pe * space.weight[members]).sum()
                best = max(best, weight * (s / mu**le) ** (1.0 / pe))
    return best


class TestTabulatedFunction:
    def test_power_exact_at_knots(self):
        t = TabulatedFunction.power(2.0, [0.25, 0.5, 1.0])
        assert t(0.5) == 0.25
        assert t(1.0) == 1.0

    def test_head_interpolation(self):
        t = TabulatedFunction.linear(3.0, [1.0])
        assert t(0.5) == pytest.approx(1.5)
        assert t.right_derivative0 == pytest.approx(3.0)

    def test_right_extension_constant(self):
        t = TabulatedFunction.linear(1.0, [1.0, 2.0])
        assert t(5.0) == 2.0

    def test_rejects_bad_knots(self):
        with pytest.raises(ValueError):
            TabulatedFunction([1.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            TabulatedFunction([-1.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):  # one row of a stack decreases
            TabulatedFunction([[0.5, 1.0], [1.0, 0.5]], [[0.0, 1.0], [0.0, 1.0]])

    @pytest.mark.parametrize("xs, ys, head", [
        ([np.nan, 1.0], [0.0, 1.0], 0.0), ([0.5, np.inf], [0.0, 1.0], 0.0),
        ([0.5, 1.0], [np.nan, 1.0], 0.0), ([0.5, 1.0], [0.0, -np.inf], 0.0),
        ([0.5, 1.0], [0.0, 1.0], np.nan), ([0.5, 1.0], [0.0, 1.0], np.inf),
        ([[0.5, 1.0], [0.5, np.nan]], [[0.0, 1.0], [0.0, 1.0]], 0.0)])
    def test_rejects_non_finite(self, xs, ys, head):
        with pytest.raises(ValueError, match="finite"):
            TabulatedFunction(xs, ys, head_value=head)

    def test_stack_rows_are_their_own_tables(self):
        rng = np.random.default_rng(12)
        xs = np.sort(rng.uniform(0.01, 2.0, (5, 9)), axis=1)
        ys = rng.normal(size=(5, 9))
        stack = TabulatedFunction(xs, ys, head_value=0.3)
        tables = [TabulatedFunction(x, y, head_value=0.3) for x, y in zip(xs, ys)]
        at = rng.uniform(-0.5, 2.5, (5, 11))
        at[:, 0] = xs[:, 3]  # on a knot
        got = stack(at)
        assert got.shape == at.shape
        assert np.array_equal(got, [t(x) for t, x in zip(tables, at)])
        assert np.array_equal(stack(at[:, :1]), [[t(float(x[0]))] for t, x in zip(tables, at)])
        assert np.array_equal(stack.right_derivative0, [[t.right_derivative0] for t in tables])


class TestSMax:
    def test_zero_table_gives_p_minus_one(self):
        assert s_max(3.0, 0.5, TabulatedFunction.zero()) == pytest.approx(2.0)

    def test_identity_table(self):
        A = TabulatedFunction.linear(1.0, np.linspace(0.1, 1.0, 10))
        assert s_max(2.0, 0.5, A) == pytest.approx(0.5)

    def test_double_slope(self):
        A = TabulatedFunction.linear(2.0, np.linspace(0.1, 3.0, 30))
        assert s_max(4.0, 0.5, A) == pytest.approx(0.25)

    def test_plateau_takes_rightmost(self):
        A = TabulatedFunction([0.2, 0.5, 0.8], [0.5, 0.5, 1.0])
        assert s_max(3.0, 0.5, A) == pytest.approx(0.5)


class TestLpNorm:
    def test_zero(self, grid3):
        assert lp_norm(grid3, np.zeros(3), 2.0) == 0.0

    def test_constant_normalized(self, grid3):
        for p in (1.0, 1.5, 2.0, 7.0):
            assert lp_norm(grid3, np.ones(3), p) == pytest.approx(1.0)

    def test_two_atom_hand_value(self, two_atom):
        assert lp_norm(two_atom, [0.0, 2.0], 2.0) == pytest.approx(math.sqrt(2.0))

    def test_rejects_small_p(self, grid3):
        with pytest.raises(ValueError):
            lp_norm(grid3, np.ones(3), 0.5)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("make", STACK_SPACES.values(), ids=STACK_SPACES.keys())
    def test_stack_rows_match_the_one_input_formula(self, make, p):
        sp = make()
        for fs in block_edge_stacks(sp.n, 5, 35):
            got = lp_norm(sp, fs, p)
            assert got.shape == (len(fs),)
            want = [reference_lp_norm(sp, f, p) for f in fs]
            assert np.array_equal(got, want)
            for f, value in zip(fs[:3], got):
                one = lp_norm(sp, f, p)
                assert isinstance(one, float) and one == value


class TestMorreyNorm:
    def test_lambda_zero_constant(self, grid3):
        assert morrey_norm(grid3, np.ones(3), 2.0, 0.0) == pytest.approx(1.0)

    def test_three_point_hand_value(self, grid3):
        res = morrey_norm_detail(grid3, [1.0, 0.0, 0.0], 1.0, 0.5)
        assert res.value == pytest.approx(3.0 ** -0.5, abs=1e-12)
        assert res.center == 0 and res.rank == 0

    def test_zero_function(self, grid3):
        assert morrey_norm(grid3, np.zeros(3), 2.0, 0.3) == 0.0

    def test_rejects_bad_lambda(self, grid3):
        with pytest.raises(ValueError):
            morrey_norm(grid3, np.ones(3), 2.0, 1.0)

    def test_lambda_zero_equals_max_ball_lp(self, cloud20):
        # oracle: ball-restricted Lp norms computed from raw rows
        rng = np.random.default_rng(0)
        f = rng.normal(size=cloud20.n)
        best = 0.0
        for c in range(cloud20.n):
            row = cloud20.dist[c]
            for rho in np.unique(row):
                members = row <= rho
                best = max(best, ((np.abs(f[members]) ** 2
                                   * cloud20.weight[members]).sum()) ** 0.5)
        assert morrey_norm(cloud20, f, 2.0, 0.0) == pytest.approx(best, rel=1e-12)

    def test_monotone_in_lambda_when_measures_small(self, grid16):
        rng = np.random.default_rng(1)
        f = rng.normal(size=grid16.n)
        vals = [morrey_norm(grid16, f, 2.0, lam) for lam in (0.0, 0.2, 0.5, 0.8)]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(vals, vals[1:]))


class TestMorreyKernel:
    """morrey_norm on the shell sweep against the dense-table reference."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("make", STACK_SPACES.values(), ids=STACK_SPACES.keys())
    def test_stacks_bit_identical_at_every_block_edge(self, make, p):
        sp = make()
        columns = sweep_columns(sp.n)
        for fs in block_edge_stacks(sp.n, columns, 31):
            got = morrey_norm(sp, fs, p, 0.25)
            assert got.shape == (len(fs),)
            for f, value in zip(fs, got):
                assert value == reference_morrey_detail(sp, f, p, 0.25)[0]
            for f, value in zip(fs[:3], got):  # one input is a row of the stack
                one = morrey_norm(sp, f, p, 0.25)
                assert isinstance(one, float) and one == value

    def test_block_size_follows_bytes(self, monkeypatch):
        widths, real = [], funcnorm._ball_peaks

        def recording(sp, powers, *args):
            widths.append(powers.shape[1:])
            return real(sp, powers, *args)

        monkeypatch.setattr(funcnorm, "_ball_peaks", recording)
        for n, columns in ((64, 256), (256, 64), (1024, 16)):
            assert sweep_columns(n) == columns
            widths.clear()
            fs = np.ones((2 * columns + 1, n))
            morrey_norm(build_uniform_grid(n, 1, "circle"), fs, 2.0, 0.25)
            assert widths == [(columns, 1), (columns, 1), (1, 1)], n

    @pytest.mark.parametrize("p, lam", [(1.0, 0.0), (2.0, 0.25), (3.0, 0.7)])
    @pytest.mark.parametrize("make", STACK_SPACES.values(), ids=STACK_SPACES.keys())
    def test_detail_witness_is_the_first_maximum(self, make, p, lam):
        sp = make()
        rng = np.random.default_rng(32)
        samples = [rng.normal(size=sp.n), *tie_heavy_samples(sp.n, 33), np.zeros(sp.n),
                   np.ones(sp.n)]
        for f in samples:
            res = morrey_norm_detail(sp, f, p, lam)
            assert (res.value, res.center, res.rank) == reference_morrey_detail(sp, f, p, lam)

    @pytest.mark.parametrize("call", ["maximal", "morrey_norm"])
    def test_no_rank_table_per_call(self, call):
        # an (N, R) table of ball measures, or of their powers, takes 4.01 MiB
        # here: a sweep forms each rank's (N, 1) column as it reaches the rank
        sp = build_uniform_grid(1024, 1, "circle")
        fs = np.random.default_rng(38).normal(size=(16, sp.n))
        run = {"maximal": lambda: maximal(sp, fs),
               "morrey_norm": lambda: morrey_norm(sp, fs, 2.0, 0.25)}[call]
        sp.balls.step_table  # the family and its step table are built once per space
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2**20, peak

    def test_step_table_built_once_per_space(self):
        sp = build_uniform_grid(40, 1, "circle")
        table = sp.balls.step_table
        morrey_norm(sp, np.ones(40), 2.0, 0.25)
        for p in (2.0, 3.0):
            GrandNormEvaluator(sp, GrandParams.power(p, 0.25, 1.0, max_points=6))(np.ones(40))
        assert sp.balls.step_table is table
        assert not table[0].flags.writeable

    @pytest.mark.parametrize("entry", [-1, 41, 10**6])
    def test_out_of_range_step_entry_raises(self, entry):
        bf = build_uniform_grid(40, 1, "circle").balls
        order = bf.order.copy()
        order[3, 7] = entry  # the step table puts order's entries in place
        bad = type(bf)(bf.weight, order, bf.radii, bf.counts, bf.measures, bf.n_ranks)
        with pytest.raises(ValueError, match=r"outside \[0, 40\]"):
            bad.step_table

    @pytest.mark.parametrize("bad", [
        np.zeros((3, 31)), np.zeros(31), np.zeros((2, 2, 32)),
        np.where(np.arange(64).reshape(2, 32) == 40, np.nan, 0.0),
        GridFunction(build_uniform_grid(32, 1, "interval"), np.ones(32)),
    ], ids=["width", "length", "3-d", "nan", "other-space"])
    def test_bad_inputs_raise(self, circle32, bad):
        with pytest.raises(ValueError):
            morrey_norm(circle32, bad, 2.0, 0.25)
        if np.ndim(bad) != 2:
            with pytest.raises(ValueError):
                morrey_norm_detail(circle32, bad, 2.0, 0.25)


class TestBmoNorm:
    def test_constant_vanishes(self, grid16):
        for variant in ("mean", "inf"):
            assert bmo_norm(grid16, np.full(16, 3.7), variant) == pytest.approx(0.0, abs=1e-14)
        assert bmo_norm(grid16, np.full(16, 3.7), "jn", p=2.0) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("c", [-0.37, 5.3, 1e8])
    def test_constant_is_exactly_zero_at_any_scale(self, cloud20, c):
        # ball means of a constant carry roundoff; the norm must not
        for sp in (build_uniform_grid(32, 1, "circle"), cloud20):
            b = np.full(sp.n, c)
            assert bmo_norm(sp, b, "mean") == bmo_norm(sp, b, "inf") == 0.0
            assert bmo_norm(sp, b, "jn", p=2.0) == 0.0

    def test_two_atom_mean(self, two_atom):
        assert bmo_norm(two_atom, [0.0, 1.0], "mean") == pytest.approx(0.5, abs=1e-12)

    def test_two_atom_inf(self, two_atom):
        assert bmo_norm(two_atom, [0.0, 1.0], "inf") == pytest.approx(0.5, abs=1e-12)

    def test_two_atom_jn2(self, two_atom):
        assert bmo_norm(two_atom, [0.0, 1.0], "jn", p=2.0) == pytest.approx(0.5, abs=1e-12)

    def test_jn_requires_p(self, grid3):
        with pytest.raises(ValueError):
            bmo_norm(grid3, np.ones(3), "jn")

    def test_inf_oracle_scan(self, grid3):
        # oracle: scan candidate constants c densely on each ball
        rng = np.random.default_rng(2)
        b = rng.normal(size=3)
        best = 0.0
        for c in range(3):
            row = grid3.dist[c]
            for rho in np.unique(row):
                members = row <= rho
                w = grid3.weight[members]
                v = b[members]
                cands = np.linspace(v.min(), v.max(), 4001)
                dev = (np.abs(v[None, :] - cands[:, None]) * w).sum(axis=1) / w.sum()
                best = max(best, dev.min())
        assert bmo_norm(grid3, b, "inf") == pytest.approx(best, abs=1e-5)

    def test_variant_equivalence(self, grid16, cloud20):
        rng = np.random.default_rng(3)
        for sp in (grid16, cloud20):
            for _ in range(5):
                b = rng.normal(size=sp.n)
                inf_v = bmo_norm(sp, b, "inf")
                mean_v = bmo_norm(sp, b, "mean")
                assert inf_v <= mean_v * (1 + 1e-12)
                assert mean_v <= 2.0 * inf_v * (1 + 1e-12)


def reference_oscillation_table(space, f, p=1.0):
    """Reference: the per-center loop that the blocked oscillation kernel
    replaced, (avg_B |f - f_B|^p)^(1/p) padded to (N, R)."""
    bf = space.balls
    v = np.asarray(f, dtype=float)
    w = space.weight
    n, rmax = bf.measures.shape
    out = np.empty((n, rmax))
    for c in range(n):
        idx = bf.order[c]
        fv, wv = v[idx], w[idx]
        nr = int(bf.n_ranks[c])
        ends = bf.counts[c, :nr] - 1
        mu = bf.measures[c, :nr]
        means = np.cumsum(fv * wv)[ends] / mu
        dev = np.abs(fv[None, :] - means[:, None])
        if p != 1.0:
            dev **= p
        osc = np.cumsum(dev * wv[None, :], axis=1)[np.arange(nr), ends] / mu
        if p != 1.0:
            osc **= 1.0 / p
        out[c, :nr] = osc
        out[c, nr:] = osc[-1]
    return out


def weighted_median_deviation(values, weights):
    """min over c of weighted mean |values - c|; c = lower weighted median."""
    order = np.argsort(values, kind="stable")
    v, w = values[order], weights[order]
    cw = np.cumsum(w)
    total = cw[-1]
    m = int(np.searchsorted(cw, 0.5 * total, side="left"))
    cs = np.cumsum(w * v)
    dev = v[m] * (2.0 * cw[m] - total) + cs[-1] - 2.0 * cs[m]
    return dev / total


def reference_bmo_inf(space, b):
    """Reference: the per-ball double loop that the blocked kernel replaced."""
    bf = space.balls
    v = np.asarray(b, dtype=float)
    best = 0.0
    for c in range(space.n):
        idx = bf.order[c]
        fv, wv = v[idx], space.weight[idx]
        for k in range(int(bf.n_ranks[c])):
            m = int(bf.counts[c, k])
            best = max(best, float(weighted_median_deviation(fv[:m], wv[:m])))
    return best


def median_searches(monkeypatch):
    """(block width, search buffer doubles) of each median search the
    oscillation kernel makes from now on, appended to the list returned."""
    searches, ball_medians = [], funcnorm._ball_medians

    def spy(fv, wv, ranks, ends, nr, work):
        searches.append((fv.shape[1], work.size))
        return ball_medians(fv, wv, ranks, ends, nr, work)

    monkeypatch.setattr(funcnorm, "_ball_medians", spy)
    return searches


class TestOscillationKernel:
    @pytest.mark.parametrize("offset", [0.0, 1e3])
    @pytest.mark.parametrize("make", REFERENCE_SPACES.values(), ids=REFERENCE_SPACES.keys())
    def test_mean_and_jn_bit_identical(self, make, offset):
        sp = make()
        rng = np.random.default_rng(23)
        for _ in range(2):
            f = rng.normal(size=sp.n) * rng.exponential(size=sp.n) + offset
            ref = reference_oscillation_table(sp, f)
            assert np.array_equal(_oscillation_peaks(sp, f[None])[0], ref.max(axis=1))
            assert bmo_norm(sp, f, "mean") == ref.max()
            for p in (1.5, 2, 3):
                ref = reference_oscillation_table(sp, f, p)
                assert np.array_equal(_oscillation_peaks(sp, f[None], p)[0], ref.max(axis=1))
                assert bmo_norm(sp, f, "jn", p=p) == ref.max()

    @pytest.mark.parametrize("name", ["cloud40", "grid2d-ties", "single-atom", "grid2d-weighted"])
    def test_two_column_blocks(self, name, monkeypatch):
        # the smallest budget: two (center, input) columns a block, median
        # searches of two ranks, a block edge after every other column, and
        # with three rows on 49 atoms a last block of one pair
        monkeypatch.setattr(funcnorm, "_OSC_BYTES", 1)
        searches = median_searches(monkeypatch)
        make = STACK_SPACES[name]
        sp = make()
        assert funcnorm._oscillation_sizes(sp, "mean") == (2, 0)
        assert funcnorm._oscillation_sizes(sp, "median") == (2, 0)
        fs = np.random.default_rng(31).normal(size=(3, sp.n))
        fs[1] = np.round(fs[1])  # value ties
        peaks = _oscillation_peaks(sp, fs, 3.0)
        for f, row in zip(fs[:2], peaks):
            assert np.array_equal(_oscillation_peaks(sp, f[None])[0],
                                  reference_oscillation_table(sp, f).max(axis=1))
            assert np.array_equal(row, reference_oscillation_table(sp, f, 3.0).max(axis=1))
            want = reference_bmo_inf(sp, f)
            assert abs(bmo_norm(sp, f, "inf") - want) <= 1e-12 * want
        searches.clear()
        _oscillation_peaks(sp, fs[:2], 1.0, "median")
        # 2 N pairs two at a time, each search in the deviations' buffer
        assert searches == [(2, 2 * sp.n)] * sp.n, searches

    def test_block_size_follows_bytes(self, monkeypatch):
        # (center, input) columns a block: the kernel's own 2 MiB, or half of
        # it for median centres, whose search takes the other half (2^17 doubles)
        assert funcnorm._OSC_BYTES == 2 * 2**20
        spaces = {64: build_uniform_grid(64, 1, "circle"), 192: random_cloud(192, 3),
                  256: build_uniform_grid(256, 1, "circle"),
                  1024: build_uniform_grid(1024, 1, "circle")}
        for n, mean, median in ((64, 900, 369), (192, 227, 97), (256, 226, 92), (1024, 56, 23)):
            assert funcnorm._oscillation_sizes(spaces[n], "mean") == (mean, 0), n
            assert funcnorm._oscillation_sizes(spaces[n], "median") == (median, 2**17), n
        # one atom: 48 (mean) or 56 (median) bytes a column, one input a column
        atom = STACK_SPACES["single-atom"]()
        assert funcnorm._oscillation_sizes(atom, "mean") == (43_690, 0)
        assert funcnorm._oscillation_sizes(atom, "median") == (18_724, 2**17)
        assert oscillation_columns(atom) == 43_690
        searches = median_searches(monkeypatch)
        _oscillation_peaks(spaces[64], np.random.default_rng(32).normal(size=(8, 64)), 1.0,
                           "median")
        assert searches == [(369, 2**17), (8 * 64 - 369, 2**17)]

    def test_stack_working_set_is_one_block(self):
        sp = build_uniform_grid(256, 1, "circle")
        fs = np.random.default_rng(33).normal(size=(4, sp.n))
        _oscillation_peaks(sp, fs[:1], 1.0, "median")  # the ball family is built outside the trace
        tracemalloc.start()
        try:
            out = _oscillation_peaks(sp, fs, 1.0, "median")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output, a block of (center, input) columns in half the kernel's
        # budget and the median search in the other half
        assert peak <= 2 * funcnorm._OSC_BYTES + 2 * out.nbytes, peak

    def test_overflow_stays_infinite(self):
        # |f - c|^3 overflows at the outlier; rows past a ball are zeroed, not
        # multiplied by 0, where an overflow would become NaN
        sp = STACK_SPACES["grid2d-weighted"]()
        f = np.random.default_rng(41).normal(size=sp.n)
        f[24] = 1e110
        with np.errstate(over="ignore"):
            want = reference_oscillation_table(sp, f, 3.0).max(axis=1)
            assert np.array_equal(_oscillation_peaks(sp, f[None], 3.0)[0], want)
        assert np.isinf(want).all()

    def test_lone_live_column(self):
        # one atom of a 32-point circle moved off the lattice is the only
        # center with 32 radius ranks, so at its last ranks its column is the
        # only live one of its block; distances in lattice units tie exactly
        x = np.r_[0.3, np.arange(1.0, 32.0)]
        gap = np.abs(x[:, None] - x[None, :])
        sp = build_from_table(np.minimum(gap, 32.0 - gap), np.full(32, 1 / 32))
        assert np.count_nonzero(sp.balls.n_ranks == sp.balls.n_ranks.max()) == 1
        rng = np.random.default_rng(37)
        # growing with the distance from the moved atom, so that its peaks lie
        # at those last ranks
        for f in sp.dist[0] ** 2 + rng.normal(size=(3, sp.n)):
            for p in (1.0, 3.0):
                assert np.array_equal(_oscillation_peaks(sp, f[None], p)[0],
                                      reference_oscillation_table(sp, f, p).max(axis=1))
            want = reference_bmo_inf(sp, f)
            assert abs(bmo_norm(sp, f, "inf") - want) <= 1e-12 * want

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    @pytest.mark.parametrize("make", REFERENCE_SPACES.values(), ids=REFERENCE_SPACES.keys())
    def test_inf_matches_reference(self, make, offset):
        sp = make()
        f = np.random.default_rng(29).normal(size=sp.n) + offset
        got, want = bmo_norm(sp, f, "inf"), reference_bmo_inf(sp, f)
        assert abs(got - want) <= 1e-12 * want

    def test_inf_on_value_ties(self, grid16):
        for f in tie_heavy_samples(grid16.n, 3):
            want = reference_bmo_inf(grid16, f)
            assert abs(bmo_norm(grid16, f, "inf") - want) <= 1e-12 * want

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([(5, "grid2d"), (20, "cloud")]),
           st.integers(min_value=0, max_value=2**31 - 1))
    def test_relabeling_invariance(self, shape, seed):
        n, kind = shape
        sp = build_uniform_grid(n, 2, "interval") if kind == "grid2d" \
            else random_cloud(n, seed % 97)
        perm = np.random.default_rng(seed).permutation(sp.n)
        moved = relabeled(sp, perm)
        for f in tie_heavy_samples(sp.n, seed):
            for variant, p in (("mean", None), ("jn", 2.5), ("inf", None)):
                assert bmo_norm(moved, f[perm], variant, p=p) == pytest.approx(
                    bmo_norm(sp, f, variant, p=p), rel=1e-12, abs=1e-14 * np.abs(f).max())


class TestGrandLebesgue:
    def test_zero(self, grid3):
        grid = default_eps_grid(0.9)
        assert grand_lebesgue_norm(grid3, np.zeros(3), 2.0, 1.0, grid) == 0.0

    def test_constant_approaches_one(self, grid3):
        # sup over (0,1) of eps^(1/(2-eps)) is 1, attained at the right end
        grid = np.concatenate([default_eps_grid(0.9), [1.0 - 1e-6]])
        val = grand_lebesgue_norm(grid3, np.ones(3), 2.0, 1.0, grid)
        assert abs(val - 1.0) <= 1e-5

    def test_grid_refinement_monotone(self, grid16):
        rng = np.random.default_rng(4)
        f = rng.normal(size=16)
        coarse = default_eps_grid(0.999, ratio=0.7)
        fine = np.unique(np.concatenate([coarse, default_eps_grid(0.999, ratio=0.9)]))
        v1 = grand_lebesgue_norm(grid16, f, 2.0, 1.0, coarse)
        v2 = grand_lebesgue_norm(grid16, f, 2.0, 1.0, fine)
        assert v2 >= v1 - 1e-15

    def test_rejects_grid_outside_range(self, grid3):
        with pytest.raises(ValueError):
            grand_lebesgue_norm(grid3, np.ones(3), 2.0, 1.0, [0.5, 1.5])

    @pytest.mark.parametrize("p, theta", [(1.5, 1.0), (2.0, 2.0), (3.0, 0.5)])
    @pytest.mark.parametrize("make", STACK_SPACES.values(), ids=STACK_SPACES.keys())
    def test_stack_rows_match_the_per_eps_loop(self, make, p, theta):
        sp = make()
        grid = default_eps_grid(min(p - 1, 1.0) * 0.999999, ratio=0.8, max_points=40)
        for fs in block_edge_stacks(sp.n, 5, 36):
            got = grand_lebesgue_norm(sp, fs, p, theta, grid)
            assert got.shape == (len(fs),)
            for f, value in zip(fs, got):
                want, eps = reference_grand_lebesgue(sp, f, p, theta, grid)
                assert value == want
                assert grand_lebesgue_norm_detail(sp, f, p, theta, grid) == NormResult(want, eps)


class TestPhiFunctional:
    def test_zero_function(self, grid16):
        gp = GrandParams.power(2.0, 0.25, 1.0)
        assert phi_functional(grid16, np.zeros(16), gp, gp.smax) == 0.0

    def test_monotone_in_s(self, grid16):
        gp = GrandParams.power(2.0, 0.25, 1.0)
        rng = np.random.default_rng(5)
        f = rng.normal(size=16)
        s_vals = [0.3, 0.6, 0.9, gp.smax]
        vals = [phi_functional(grid16, f, gp, s) for s in s_vals]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_empty_grid(self, grid16):
        gp = GrandParams.power(2.0, 0.25, 1.0)
        with pytest.raises(EmptyGrid):
            phi_functional(grid16, np.ones(16), gp, float(gp.eps_grid[0]) * 0.5)

    def test_specializes_to_grand_morrey_loop(self, grid16):
        # A == 0 and phi = eps^theta: matches a direct per-eps Morrey loop
        gp = GrandParams.power(2.0, 0.25, 1.5, max_points=10)
        rng = np.random.default_rng(6)
        f = rng.normal(size=16)
        oracle = max(e ** (1.5 / (2 - e)) * morrey_norm(grid16, f, 2 - e, 0.25)
                     for e in gp.eps_grid if e < gp.smax)
        assert phi_functional(grid16, f, gp, gp.smax) == pytest.approx(oracle, rel=1e-13)


class TestGrandMorrey:
    def test_smax_from_identity_table(self):
        A = TabulatedFunction.linear(1.0, np.linspace(0.05, 1.0, 20))
        gp = GrandParams.power(2.0, 0.5, 1.0, A=A)
        assert gp.smax == pytest.approx(0.5)

    def test_reduces_to_grand_lebesgue(self, grid16):
        grid = default_eps_grid(0.999, ratio=0.75)
        gp = GrandParams.power(2.0, 0.0, 1.0, eps_grid=grid)
        rng = np.random.default_rng(7)
        f = rng.normal(size=16)
        lhs = grand_morrey_norm(grid16, f, gp)
        rhs = grand_lebesgue_norm(grid16, f, 2.0, 1.0, grid)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_triple_loop_oracle_small(self):
        sp = random_cloud(5, 17)
        gp = GrandParams.power(2.0, 0.3, 1.0, max_points=8)
        rng = np.random.default_rng(8)
        f = rng.normal(size=5)
        assert grand_morrey_norm(sp, f, gp) == pytest.approx(
            naive_grand_morrey(sp, f, gp), rel=1e-12)

    def test_evaluator_matches_reference(self, grid16, circle32):
        A = TabulatedFunction.linear(0.5, np.linspace(0.05, 1.0, 20))
        for sp in (grid16, circle32):
            gp = GrandParams.power(2.0, 0.25, 1.0, A=A, max_points=12)
            ev = GrandNormEvaluator(sp, gp)
            rng = np.random.default_rng(9)
            for _ in range(5):
                f = rng.normal(size=sp.n)
                assert ev(f) == pytest.approx(grand_morrey_norm(sp, f, gp), rel=1e-12)


# verify's bundle (16 eps points, A = linear(0.5)) and the CLI's (A = 0, 131 points)
VIEW_BUNDLES = {
    "verify": lambda: GrandParams.power(
        2.0, 0.25, 1.0, A=TabulatedFunction.linear(0.5, np.linspace(0.0, 1.0, 33)[1:]),
        max_points=16, ratio=0.7),
    "cli": lambda: GrandParams.power(2.0, 0.25, 1.0),
}


def spiked(n, seed):
    """Small noise plus one spike: the grand norm's (eps, center, rank) is
    then attained by one ball, so no roundoff tie decides the witness."""
    rng = np.random.default_rng(seed)
    f = 0.05 * rng.normal(size=n)
    f[rng.integers(n)] = 10.0
    return f


def direct_grand_value(space, f, params, res):
    """phi(eps)^(1/(p-eps)) (mu B^(-lam_eff) sum_B |f|^(p-eps) w)^(1/(p-eps)) on
    the witness ball, with its members taken from the raw distance row."""
    pe = params.p - res.eps
    lam_eff = max(params.lam - params.A(res.eps), 0.0)
    members = space.dist[res.center] <= space.balls.radii_of(res.center)[res.rank]
    total = (np.abs(f[members]) ** pe * space.weight[members]).sum()
    mu = space.weight[members].sum()
    return params.phi(res.eps) ** (1.0 / pe) * (total / mu ** lam_eff) ** (1.0 / pe)


class TestGrandMorreyView:
    """grand_morrey_norm and phi_functional are a table-free view of the
    evaluator's shell sweep."""

    @pytest.mark.parametrize("bundle", VIEW_BUNDLES, ids=VIEW_BUNDLES.keys())
    @pytest.mark.parametrize("make", STACK_SPACES.values(), ids=STACK_SPACES.keys())
    def test_equals_evaluator_and_witness_recomputes(self, make, bundle):
        sp, gp = make(), VIEW_BUNDLES[bundle]()
        ev = GrandNormEvaluator(sp, gp)
        rng = np.random.default_rng(40)
        for f in (rng.normal(size=sp.n) * rng.exponential(size=sp.n),
                  *tie_heavy_samples(sp.n, 41), spiked(sp.n, 42)):
            value = grand_morrey_norm(sp, f, gp)
            assert type(value) is float and value == ev(f)
            res = grand_morrey_norm_detail(sp, f, gp)
            assert res.value == value and res.eps in ev.grid
            assert direct_grand_value(sp, f, gp, res) == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("bundle", VIEW_BUNDLES, ids=VIEW_BUNDLES.keys())
    @pytest.mark.parametrize("make", STACK_SPACES.values(), ids=STACK_SPACES.keys())
    def test_matches_the_per_eps_loop(self, make, bundle):
        sp, gp = make(), VIEW_BUNDLES[bundle]()
        rng = np.random.default_rng(43)
        for f in (rng.normal(size=sp.n), *tie_heavy_samples(sp.n, 44)):
            want = reference_phi_functional(sp, f, gp, gp.smax)
            assert grand_morrey_norm(sp, f, gp) == pytest.approx(want.value, rel=1e-12)
        for seed in (45, 46):
            f = spiked(sp.n, seed)
            got = grand_morrey_norm_detail(sp, f, gp)
            want = reference_phi_functional(sp, f, gp, gp.smax)
            assert got.value == pytest.approx(want.value, rel=1e-12)
            assert (got.eps, got.center, got.rank) == (want.eps, want.center, want.rank)

    @pytest.mark.parametrize("make", STACK_SPACES.values(), ids=STACK_SPACES.keys())
    def test_phi_functional_below_s_max_matches_the_loop(self, make):
        sp, gp = make(), VIEW_BUNDLES["cli"]()
        f = spiked(sp.n, 47)
        for s in (0.05, 0.3, 0.6, 0.9):
            got, want = phi_functional_detail(sp, f, gp, s), reference_phi_functional(sp, f, gp, s)
            assert got.eps < s
            assert phi_functional(sp, f, gp, s) == got.value == pytest.approx(want.value, rel=1e-12)
            assert (got.eps, got.center, got.rank) == (want.eps, want.center, want.rank)

    @pytest.mark.parametrize("make", STACK_SPACES.values(), ids=STACK_SPACES.keys())
    def test_zero_input_witness(self, make):
        sp, gp = make(), VIEW_BUNDLES["verify"]()
        want = NormResult(0.0, eps=float(gp.eps_grid[0]), center=0, rank=0)
        assert grand_morrey_norm_detail(sp, np.zeros(sp.n), gp) == want
        assert reference_phi_functional(sp, np.zeros(sp.n), gp, gp.smax) == want

    def test_builds_no_rank_table(self):
        # one (R, N, E) table of mu^(-lam_eff), R = 129 here, would take R / 8 times the bound
        sp, gp = build_uniform_grid(256, 1, "circle"), VIEW_BUNDLES["cli"]()
        e = int(np.count_nonzero(gp.eps_grid < gp.smax))
        assert e == 131
        f = np.random.default_rng(48).normal(size=sp.n)
        sp.balls.step_table  # the ball family and its step table are built once per space
        tracemalloc.start()
        try:
            grand_morrey_norm_detail(sp, f, gp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (sp.n + 1) * e * 8, peak


def unblocked_morrey_vector(ev, f):
    """Reference: the evaluator's algorithm over all centers at once."""
    bf = ev.space.balls
    n, e = ev.space.n, ev.pe.size
    powers = np.abs(np.asarray(f, dtype=float))[:, None] ** ev.pe[None, :] \
        * ev.space.weight[:, None]
    cs = np.cumsum(np.take(powers, bf.order, axis=0), axis=1)
    flat_ends = (np.arange(n)[:, None] * n + bf.counts - 1).ravel()
    sums = np.take(cs.reshape(-1, e), flat_ends, axis=0).reshape(n, -1, e)
    sums *= ev.mu_pow  # (N, R, E), or (N, R, 1) for a constant lam_eff
    return sums.max(axis=(0, 1)) ** (1.0 / ev.pe)


class TestGrandNormEvaluator:
    A = TabulatedFunction.linear(0.5, np.linspace(0.0, 1.0, 33)[1:])

    def evaluator(self, sp):
        return GrandNormEvaluator(
            sp, GrandParams.power(2.0, 0.25, 1.0, A=self.A, max_points=16, ratio=0.7))

    @pytest.mark.parametrize("make", REFERENCE_SPACES.values(), ids=REFERENCE_SPACES.keys())
    def test_bit_identical_to_unblocked(self, make):
        sp = make()
        ev = self.evaluator(sp)
        rng = np.random.default_rng(21)
        for _ in range(3):
            f = rng.normal(size=sp.n) * rng.exponential(size=sp.n)
            assert np.array_equal(ev.morrey_vector(f), unblocked_morrey_vector(ev, f))

    @pytest.mark.parametrize("make", [
        lambda: build_uniform_grid(256, 1, "interval"),
        lambda: build_from_table(build_uniform_grid(7, 2, "interval").dist,
                                 np.random.default_rng(4).uniform(0.2, 1.8, 49) / 49),
    ], ids=["interval256", "grid2d-weighted"])
    def test_bit_identical_with_uneven_shells(self, make):
        sp = make()
        ev = self.evaluator(sp)
        assert np.any(sp.balls.step_table[0] == sp.n)  # some centers add the zero row
        rng = np.random.default_rng(22)
        samples = [rng.normal(size=sp.n) * rng.exponential(size=sp.n),
                   *tie_heavy_samples(sp.n, 23), np.zeros(sp.n)]
        for f in samples:
            assert np.array_equal(ev.morrey_vector(f), unblocked_morrey_vector(ev, f))

    @pytest.mark.parametrize("make", REFERENCE_SPACES.values(), ids=REFERENCE_SPACES.keys())
    def test_bit_identical_on_ties_and_zeros(self, make):
        sp = make()
        ev = self.evaluator(sp)
        ties = tie_heavy_samples(sp.n, 24)[1]
        assert sp.n == 1 or np.any(ties == 0.0)
        for f in (ties, np.zeros(sp.n)):
            assert np.array_equal(ev.morrey_vector(f), unblocked_morrey_vector(ev, f))
        assert np.all(ev.morrey_vector(np.zeros(sp.n)) == 0.0)

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from([(6, "grid2d"), (24, "cloud"), (33, "circle")]),
           st.integers(min_value=0, max_value=2**31 - 1))
    def test_relabeling_invariance(self, shape, seed):
        n, kind = shape
        sp = {"grid2d": lambda: build_uniform_grid(n, 2, "interval"),
              "cloud": lambda: random_cloud(n, seed % 97),
              "circle": lambda: build_uniform_grid(n, 1, "circle")}[kind]()
        perm = np.random.default_rng(seed).permutation(sp.n)
        moved = self.evaluator(relabeled(sp, perm))
        ev = self.evaluator(sp)
        for f in tie_heavy_samples(sp.n, seed):
            want = ev.morrey_vector(f)
            assert np.allclose(moved.morrey_vector(f[perm]), want, rtol=1e-12, atol=0.0)

    def test_call_working_set_is_linear_in_n(self):
        sp = build_uniform_grid(256, 1, "circle")
        ev = self.evaluator(sp)
        f = np.random.default_rng(25).normal(size=sp.n)
        sp.balls.step_table  # built once per space, not per call
        tracemalloc.start()
        try:
            ev.morrey_vector(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        row_table = 8 * sp.n * ev.pe.size  # bytes of one (N, E) float64 array
        # an (N, N, E) buffer would be N = 256 times row_table
        assert peak <= 8 * row_table, (peak, row_table)

    def test_threads_may_share_an_instance(self, circle32):
        ev = self.evaluator(circle32)
        fs = np.random.default_rng(26).normal(size=(16, 32))
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(ev.morrey_vector, [*fs, *fs]))
        for f, g in zip([*fs, *fs], got):
            assert np.array_equal(g, unblocked_morrey_vector(ev, f))

    def test_memo_returns_equal_private_copies(self, circle32):
        ev = self.evaluator(circle32)
        f = np.random.default_rng(3).normal(size=32)
        first = ev.morrey_vector(f)
        expected = first.copy()
        assert np.array_equal(ev.morrey_vector(f), expected)
        first[:] = -1.0
        assert np.array_equal(ev.morrey_vector(f), expected)

    @pytest.mark.parametrize("make", STACK_SPACES.values(), ids=STACK_SPACES.keys())
    def test_stacks_bit_identical_at_every_block_edge(self, make):
        sp = make()
        ev = self.evaluator(sp)
        c = ev.columns
        rng = np.random.default_rng(27)
        for m in sorted({0, 1, c - 1, c, c + 1, 2 * c + 3}):
            fs = rng.normal(size=(m, sp.n)) * rng.exponential(size=(m, sp.n))
            fs[1::3] = rng.integers(-2, 3, size=fs[1::3].shape)  # ties and zeros
            got = ev.morrey_vector(fs)
            assert got.shape == (m, ev.pe.size)
            for f, row in zip(fs, got):
                assert np.array_equal(row, unblocked_morrey_vector(ev, f))

    def test_duplicates_and_memo_hits_in_one_stack(self):
        # a space of its own: the memo is shared by every evaluator of a space
        ev = self.evaluator(build_uniform_grid(32, 1, "circle"))
        fs = np.random.default_rng(28).normal(size=(5, 32))
        ev.morrey_vector(fs[:2])
        stack = fs[[0, 2, 2, 1, 3, 0, 4, 4]]  # hits, misses and repeats
        got = ev.morrey_vector(stack)
        assert len(ev._memo) == 5
        for f, row in zip(stack, got):
            assert np.array_equal(row, unblocked_morrey_vector(ev, f))
        got[:] = -1.0
        assert np.array_equal(ev.morrey_vector(stack)[0], unblocked_morrey_vector(ev, fs[0]))

    @pytest.mark.parametrize("make", REFERENCE_SPACES.values(), ids=REFERENCE_SPACES.keys())
    def test_one_input_is_a_row_of_the_stack(self, make):
        sp = make()
        fs = np.random.default_rng(29).normal(size=(4, sp.n))
        stacked = self.evaluator(sp)
        ev = self.evaluator(sp)
        rows, weighted, norms = (stacked.morrey_vector(fs), stacked.weighted_vector(fs),
                                 stacked(fs))
        assert norms.shape == (4,)
        for i, f in enumerate(fs):
            one = ev.morrey_vector(f)
            assert one.shape == (ev.pe.size,) and np.array_equal(one, rows[i])
            assert np.array_equal(ev.weighted_vector(f), weighted[i])
            norm = ev(GridFunction(sp, f))
            assert isinstance(norm, float) and norm == norms[i]

    def test_block_size_follows_bytes(self):
        # (N, C E) arrays a block holds: two for a one-row scale and steps as
        # runs (the circle), four for an N-row scale (the interval)
        for kind, widths in (("circle", (32, 8, 2)), ("interval", (16, 4, 1))):
            for n, columns in zip((64, 256, 1024), widths):
                ev = self.evaluator(build_uniform_grid(n, 1, kind))
                assert (ev.pe.size, ev.columns) == (16, columns), (kind, n)
        # a one-row scale with gathered steps: three
        ev = self.evaluator(STACK_SPACES["circle64-relabeled"]())
        assert ev.columns == funcnorm._BLOCK_BYTES // (3 * 8 * 64 * 16) == 21

    def test_stack_working_set_is_one_block(self):
        sp = build_uniform_grid(256, 1, "circle")
        ev = self.evaluator(sp)
        fs = np.random.default_rng(30).normal(size=(64, sp.n))
        sp.balls.step_table  # built once per space, not per call
        tracemalloc.start()
        try:
            out = ev.morrey_vector(fs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a sweep of all 64 inputs at once would hold 16 blocks
        assert peak <= 2 * funcnorm._BLOCK_BYTES + 2 * out.nbytes, peak

    @pytest.mark.parametrize("bad", [
        np.zeros((3, 31)), np.zeros((2, 2, 32)),
        np.where(np.arange(64).reshape(2, 32) == 40, np.nan, 0.0),
        np.where(np.arange(64).reshape(2, 32) == 7, -np.inf, 0.0),
    ], ids=["width", "3-d", "nan", "inf"])
    def test_bad_stacks_raise(self, circle32, bad):
        ev = self.evaluator(circle32)
        for method in (ev.morrey_vector, ev.weighted_vector, ev):
            with pytest.raises(ValueError):
                method(bad)

    def test_memo_distinguishes_one_ulp(self, circle32):
        ev = self.evaluator(circle32)
        f = np.zeros(32)
        f[5] = 1.0
        g = f.copy()
        g[5] = np.nextafter(1.0, 2.0)
        vf, vg = ev.morrey_vector(f), ev.morrey_vector(g)
        assert np.array_equal(vg, unblocked_morrey_vector(ev, g))
        assert not np.array_equal(vf, vg)


# one bundle whose lam_eff varies over the grid and one whose lam_eff is constant (A = 0)
SWEEP_BUNDLES = {
    "varying": lambda: GrandParams.power(
        2.0, 0.25, 1.0, A=TabulatedFunction.linear(0.5, np.linspace(0.0, 1.0, 33)[1:]),
        max_points=16, ratio=0.7),
    "constant": lambda: GrandParams.power(2.0, 0.25, 1.0, max_points=16, ratio=0.7),
}


# spaces of STACK_SPACES on which every center's ball of each rank has the same measure
RANK_ONLY_MEASURES = {"circle257", "single-atom", "circle64-relabeled", "complete50"}
# spaces of STACK_SPACES whose step rows are all stored as runs, added as slices
SLICED_STEPS = {"circle257", "single-atom", "interval256"}


def full_width_evaluator(sp, gp):
    """An evaluator of gp with a (N, R, E) table of mu^(-lam_eff), whatever
    lam_eff and the ball measures are, and a memo of its own."""
    ev = GrandNormEvaluator(sp, gp)
    lam_eff = np.maximum(gp.lam - gp.A(ev.grid), 0.0)
    ev.mu_pow = (np.ascontiguousarray(sp.balls.measures.T)[:, :, None]
                 ** -lam_eff).transpose(1, 0, 2)
    ev._memo = {}
    return ev


def counting_sweeps(monkeypatch):
    """Wrap funcnorm._grand_peaks; the returned list gains each swept (input, p - eps)
    column."""
    swept, real = [], funcnorm._grand_peaks

    def counting(space, rows, at, pe, *args):
        swept.extend(zip((rows[i].tobytes() for i in at.ravel()), pe.ravel()))
        return real(space, rows, at, pe, *args)

    monkeypatch.setattr(funcnorm, "_grand_peaks", counting)
    return swept


class TestGrandSweep:
    """The shell sweep's one-column scale for a constant lam_eff, its one-row
    scale for ball measures that depend on the rank alone, and its per-space memo."""

    @pytest.mark.parametrize("bundle", SWEEP_BUNDLES, ids=SWEEP_BUNDLES.keys())
    @pytest.mark.parametrize("make", STACK_SPACES.values(), ids=STACK_SPACES.keys())
    def test_sweeps_match_the_references(self, make, bundle):
        sp = make()
        ev = GrandNormEvaluator(sp, SWEEP_BUNDLES[bundle]())
        rng = np.random.default_rng(50)
        fs = rng.normal(size=(2 * ev.columns + 1, sp.n)) * rng.exponential(size=sp.n)
        fs[1::3] = rng.integers(-2, 3, size=fs[1::3].shape)  # ties and zeros
        for f, row in zip(fs, ev.morrey_vector(fs)):
            assert np.array_equal(row, unblocked_morrey_vector(ev, f))
        for f, value, mf in zip(fs, morrey_norm(sp, fs, 1.5, 0.25), maximal(sp, fs)):
            assert value == reference_morrey_detail(sp, f, 1.5, 0.25)[0]
            assert np.array_equal(mf, reference_maximal(sp, f))

    @pytest.mark.parametrize("name", STACK_SPACES)
    def test_constant_lam_eff_keeps_one_scale_column(self, name):
        sp = STACK_SPACES[name]()
        gp = SWEEP_BUNDLES["constant"]()
        ev, full = GrandNormEvaluator(sp, gp), full_width_evaluator(sp, gp)
        n, r = sp.balls.measures.shape
        rows = 1 if name in RANK_ONLY_MEASURES else n
        assert ev.mu_pow.shape == (rows, r, 1) and full.mu_pow.shape == (n, r, ev.pe.size)
        assert ev.mu_pow.transpose(1, 0, 2).flags.c_contiguous  # stored (R, N', 1)
        rng = np.random.default_rng(51)
        fs = rng.normal(size=(5, sp.n)) * rng.exponential(size=(5, sp.n))
        fs[1] = rng.integers(-2, 3, size=sp.n)
        assert np.array_equal(ev.morrey_vector(fs), full.morrey_vector(fs))
        f = fs[0]
        assert grand_morrey_norm(sp, f, gp) == ev(f) == full(f)
        varying = GrandNormEvaluator(sp, SWEEP_BUNDLES["varying"]())
        assert varying.mu_pow.shape == (rows, r, varying.pe.size)

    @pytest.mark.parametrize("name", ["circle257", "interval256", "cloud40",
                                      "circle64-relabeled", "complete50"])
    def test_one_row_scale_matches_full_width(self, name):
        # a varying lam_eff: the constant one is compared in the test above
        sp, gp = STACK_SPACES[name](), SWEEP_BUNDLES["varying"]()
        ev, full = GrandNormEvaluator(sp, gp), full_width_evaluator(sp, gp)
        assert ev.mu_pow.shape[0] == (1 if name in RANK_ONLY_MEASURES else sp.n)
        rng = np.random.default_rng(54)
        fs = rng.normal(size=(3, sp.n)) * rng.exponential(size=(3, sp.n))
        fs[1] = rng.integers(-2, 3, size=sp.n)  # ties and zeros
        assert np.array_equal(ev.morrey_vector(fs), full.morrey_vector(fs))
        assert np.array_equal(ev(fs), full(fs))
        for f in fs:
            assert grand_morrey_norm(sp, f, gp) == ev(f) == full(f)

    @pytest.mark.parametrize("name", STACK_SPACES)
    def test_step_rows_as_runs(self, name):
        # every row stored as runs rebuilds its row of the step table, pads N
        # left out; any other row has more runs than a sweep adds as slices
        sp = STACK_SPACES[name]()
        steps, _, runs = sp.balls.step_table
        for row, row_runs in zip(steps, runs):
            built = np.full(sp.n, sp.n)
            for a, b, src in row_runs or ():
                built[a:b] = np.arange(src, src + b - a)
            if row_runs is not None:
                assert np.array_equal(built, row) and len(row_runs) <= 4
            else:
                starts = (np.diff(row) != 1) & (row[1:] < sp.n)
                assert np.count_nonzero(starts) + (row[0] < sp.n) > 4
        assert (None not in runs) == (name in SLICED_STEPS)
        if name == "circle257":
            assert max(map(len, runs)) == 3
        if name == "interval256":
            assert max(map(len, runs)) == 2

    @pytest.mark.parametrize("name", STACK_SPACES)
    def test_reduced_peaks_have_one_row(self, name):
        # a one-row scale reduces the sweep over centers; an N-row one does not
        sp = STACK_SPACES[name]()
        ev = GrandNormEvaluator(sp, SWEEP_BUNDLES["varying"]())
        f = np.random.default_rng(55).normal(size=(1, sp.n))
        peak = funcnorm._grand_peaks(sp, f, np.zeros((1, ev.pe.size), int), ev.pe[None],
                                     ev.mu_pow.transpose(1, 0, 2).__getitem__)[0]
        assert peak.shape == (1 if name in RANK_ONLY_MEASURES else sp.n, 1, ev.pe.size)

    def test_rank_only_measures_hold_no_center_axis(self):
        # the (N, R, E) table would hold 64.1 MiB here: 1024 x 513 x 16 doubles
        sp = build_uniform_grid(1024, 1, "circle")
        sp.balls  # the ball family is built once per space
        gp = SWEEP_BUNDLES["varying"]()
        tracemalloc.start()
        try:
            ev = GrandNormEvaluator(sp, gp)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert ev.mu_pow.shape == (1, sp.balls.measures.shape[1], ev.pe.size)
        assert held <= 2**20, held

    def test_equal_exponents_share_one_sweep(self, monkeypatch):
        sp = build_uniform_grid(48, 1, "circle")
        a = TabulatedFunction.linear(0.5, np.linspace(0.0, 1.0, 33)[1:])
        gp1, gp2 = (GrandParams.power(2.0, 0.25, theta, A=a, max_points=8, ratio=0.7)
                    for theta in (1.0, 2.0))  # same p - eps and lam_eff, other phi
        swept = counting_sweeps(monkeypatch)
        fs = np.random.default_rng(52).normal(size=(6, sp.n))
        ev1, ev2 = GrandNormEvaluator(sp, gp1), GrandNormEvaluator(sp, gp2)
        first = ev1.morrey_vector(fs[:4])
        second = ev2.morrey_vector(fs)
        assert ev2._memo is ev1._memo
        assert sorted(swept) == sorted((f.tobytes(), pe) for f in fs for pe in ev2.pe)  # once
        assert np.array_equal(second[:4], first)
        assert not np.array_equal(ev1.weighted_vector(fs), ev2.weighted_vector(fs))
        for f, row in zip(fs, second):
            assert np.array_equal(row, unblocked_morrey_vector(ev1, f))

    def test_other_exponents_or_spaces_share_nothing(self, monkeypatch):
        sp = build_uniform_grid(48, 1, "circle")
        a = TabulatedFunction.linear(0.5, np.linspace(0.0, 1.0, 33)[1:])
        base = GrandParams.power(2.0, 0.25, 1.0, A=a, max_points=8, ratio=0.7)
        other_a = GrandParams.tabulated(2.0, 0.25, base.phi, TabulatedFunction.linear(
            0.4, np.linspace(0.0, 1.0, 33)[1:]), base.eps_grid)
        other_lam = GrandParams.tabulated(2.0, 0.3, base.phi, a, base.eps_grid)
        other_p = GrandParams.tabulated(2.5, 0.25, base.phi, a, base.eps_grid)
        swept = counting_sweeps(monkeypatch)
        f = np.random.default_rng(53).normal(size=sp.n)
        evs = [GrandNormEvaluator(s, gp) for s, gp in (
            (sp, base), (sp, other_a), (sp, other_lam), (sp, other_p),
            (build_uniform_grid(48, 1, "circle"), base))]  # an equal but separate space
        vectors = [ev.morrey_vector(f) for ev in evs]
        assert len(swept) == sum(ev.pe.size for ev in evs)
        assert len({id(ev._memo) for ev in evs}) == len(evs)
        assert np.array_equal(vectors[-1], vectors[0])
        for ev, v in zip(evs, vectors):
            assert np.array_equal(v, unblocked_morrey_vector(ev, f))

    def test_memo_is_freed_with_its_space(self):
        sp = build_uniform_grid(32, 1, "circle")
        ev = GrandNormEvaluator(sp, SWEEP_BUNDLES["varying"]())
        ev.morrey_vector(np.random.default_rng(54).normal(size=32))
        (stored,) = ev._memo.values()
        ref = weakref.ref(stored)
        del ev, sp, stored
        gc.collect()
        assert ref() is None


# verify's four grand bundles, and one whose lam_eff is 0 at every grid point
NORM_BUNDLES = {
    **SWEEP_BUNDLES,  # the phi bundle with A, and the plain one (A = 0)
    "potential-in": lambda: verify._potential_bundles(2.0, 0.25, 0.25, 1.0, 0.5, 0.05, 16)[1],
    "potential-out": lambda: verify._potential_bundles(2.0, 0.25, 0.25, 1.0, 0.5, 0.05, 16)[2],
    "lambda-zero": lambda: GrandParams.power(2.0, 0.0, 1.0, max_points=16, ratio=0.7),
}


def norm_stack(n, seed):
    """Random rows, a row of small integers (value ties and exact zeros), an all-zero
    row, a lone spike, a constant and a repeat of the first row."""
    rng = np.random.default_rng(seed)
    fs = rng.normal(size=(7, n)) * rng.exponential(size=(7, n))
    fs[1] = rng.integers(-2, 3, size=n)
    fs[2] = 0.0
    fs[3] = spiked(n, seed)
    fs[4] = -1.5
    fs[6] = fs[0]
    return fs


class TestPrunedNorm:
    """A norm sweeps only the eps columns whose upper bound reaches the best lower
    bound, and equals the maximum of the full weighted vector bit for bit."""

    @pytest.mark.parametrize("bundle", NORM_BUNDLES)
    @pytest.mark.parametrize("make", STACK_SPACES.values(), ids=STACK_SPACES.keys())
    def test_norm_is_the_vector_maximum(self, make, bundle):
        sp, gp = make(), NORM_BUNDLES[bundle]()
        fs = norm_stack(sp.n, 60)
        ev = GrandNormEvaluator(make(), gp)  # another space: its vectors give no norm of sp
        want = (ev.phi_pow * ev.morrey_vector(fs)).max(axis=1)
        got = GrandNormEvaluator(sp, gp)(fs)
        assert got.shape == (len(fs),) and np.array_equal(got, want)
        one = GrandNormEvaluator(make(), gp)
        for f, value in zip(fs, want):
            norm = one(f)
            assert type(norm) is float and norm == value == grand_morrey_norm(sp, f, gp)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["cloud", "circle"]), st.integers(min_value=2, max_value=40),
           st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from(list(NORM_BUNDLES)))
    def test_bounds_hold_every_column(self, kind, n, seed, bundle):
        sp = random_cloud(n, seed % 997) if kind == "cloud" else build_uniform_grid(n, 1, kind)
        ev = GrandNormEvaluator(sp, NORM_BUNDLES[bundle]())
        fs = norm_stack(n, seed)
        upper, lower = funcnorm._column_range(sp, fs, ev.pe, ev.phi_pow, *ev._bounds)
        values = ev.weighted_vector(fs)
        assert np.all(lower <= values) and np.all(values <= upper)

    def test_norm_sweeps_few_columns(self, monkeypatch):
        sp = build_uniform_grid(64, 1, "circle")
        ev = GrandNormEvaluator(sp, NORM_BUNDLES["varying"]())
        fs = make_corpus(sp, "mixed", 64, 7).samples
        columns = counting_sweeps(monkeypatch)
        norms = ev(fs)
        swept = len(columns)
        assert swept <= 3 * len(fs), swept
        vectors = ev.weighted_vector(fs)
        assert len(columns) - swept == ev.pe.size * len(fs) == 16 * len(fs)
        assert np.array_equal(norms, vectors.max(axis=1))

    def test_memo_in_both_orders(self, monkeypatch):
        fs = np.random.default_rng(61).normal(size=(5, 48))
        gp = NORM_BUNDLES["varying"]()
        columns = counting_sweeps(monkeypatch)
        # a vector first: the norm is read from it, with no sweep
        ev = GrandNormEvaluator(build_uniform_grid(48, 1, "circle"), gp)
        vectors = ev.weighted_vector(fs)
        del columns[:]
        assert np.array_equal(ev(fs), vectors.max(axis=1)) and columns == []
        # a norm first: it sweeps a few columns, and the vector swept after it agrees
        sp = build_uniform_grid(48, 1, "circle")
        ev = GrandNormEvaluator(sp, gp)
        norms = ev(fs)
        assert 0 < len(columns) < ev.pe.size * len(fs)
        assert np.array_equal((ev.phi_pow * ev.morrey_vector(fs)).max(axis=1), norms)
        del columns[:]
        assert np.array_equal(ev(fs), norms) and columns == []
        # other phi weights on the same exponents share the vectors, not the norms
        other = GrandNormEvaluator(sp, GrandParams.power(
            2.0, 0.25, 2.0, A=TabulatedFunction.linear(0.5, np.linspace(0.0, 1.0, 33)[1:]),
            max_points=16, ratio=0.7))
        assert other._memo is ev._memo and other._norms is not ev._norms
        assert np.array_equal(other(fs), other.weighted_vector(fs).max(axis=1))
        assert columns == []

    @pytest.mark.parametrize("size", [1e-160, 1e160])
    def test_norms_near_the_ends_of_the_float_range(self, size):
        # terms |f|^(p - eps) w near 1e-320 round by subnormal steps, no small relative
        # error, and near 1e320 a sorted sum overflows where a sweep's may not: every
        # column of such an input is swept
        sp, gp = STACK_SPACES["cloud40"](), NORM_BUNDLES["varying"]()
        fs = norm_stack(sp.n, 63) * size
        ev = GrandNormEvaluator(STACK_SPACES["cloud40"](), gp)
        with np.errstate(over="ignore"):
            lower = funcnorm._column_range(sp, fs, ev.pe, ev.phi_pow, *ev._bounds)[1]
            want = (ev.phi_pow * ev.morrey_vector(fs)).max(axis=1)
            assert np.array_equal(GrandNormEvaluator(sp, gp)(fs), want)
        assert np.all(lower == -np.inf)

    def test_norm_working_set_is_bounded(self):
        # a block's powers and sums fit the budget, and so do the bounds' chunks.  The
        # stack's (M, E, N) terms alone would take 16 times the budget
        sp = build_uniform_grid(256, 1, "circle")
        ev = GrandNormEvaluator(sp, NORM_BUNDLES["varying"]())
        fs = np.random.default_rng(62).normal(size=(256, sp.n))
        sp.balls.step_table  # built once per space, not per call
        tracemalloc.start()
        try:
            ev(fs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * funcnorm._BLOCK_BYTES, peak


class TestNormAxioms:
    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=-50, max_value=50).filter(lambda c: abs(c) > 1e-6),
           st.integers(min_value=0, max_value=10**6))
    def test_absolute_homogeneity(self, c, seed):
        sp = build_uniform_grid(12, 1, "interval")
        rng = np.random.default_rng(seed)
        f = rng.normal(size=12)
        gp = GrandParams.power(2.0, 0.25, 1.0, max_points=8)
        for norm in (lambda g: lp_norm(sp, g, 2.0),
                     lambda g: morrey_norm(sp, g, 2.0, 0.25),
                     lambda g: bmo_norm(sp, g, "mean"),
                     lambda g: grand_morrey_norm(sp, g, gp)):
            assert norm(c * f) == pytest.approx(abs(c) * norm(f), rel=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_triangle_inequality(self, seed):
        sp = build_uniform_grid(12, 1, "interval")
        rng = np.random.default_rng(seed)
        f, g = rng.normal(size=12), rng.normal(size=12)
        gp = GrandParams.power(2.0, 0.25, 1.0, max_points=8)
        for norm in (lambda u: lp_norm(sp, u, 2.0),
                     lambda u: morrey_norm(sp, u, 2.0, 0.25),
                     lambda u: grand_morrey_norm(sp, u, gp)):
            assert norm(f + g) <= norm(f) + norm(g) + 1e-12


class TestGridFunction:
    def test_validates_length(self, grid3):
        with pytest.raises(ValueError):
            GridFunction(grid3, [1.0, 2.0])

    def test_rejects_nonfinite(self, grid3):
        with pytest.raises(ValueError):
            GridFunction(grid3, [1.0, np.inf, 0.0])

    def test_rejects_other_space_of_same_size(self):
        gf = GridFunction(build_uniform_grid(8, 1, "circle"), np.arange(8.0))
        with pytest.raises(ValueError, match="different space"):
            morrey_norm(build_uniform_grid(8, 1, "interval"), gf, 2.0, 0.25)

    def test_accepted_by_norms(self, grid3):
        gf = GridFunction(grid3, [1.0, 0.0, 0.0])
        assert morrey_norm(grid3, gf, 1.0, 0.5) == pytest.approx(3.0 ** -0.5)
