import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morreylab import funcnorm
from morreylab.funcnorm import (EmptyGrid, GrandNormEvaluator, GrandParams,
                                GridFunction, NormResult, TabulatedFunction,
                                _oscillation_table, bmo_norm, default_eps_grid,
                                grand_lebesgue_norm, grand_lebesgue_norm_detail,
                                grand_morrey_norm, lp_norm, morrey_norm,
                                morrey_norm_detail, phi_functional, s_max)
from morreylab.homspace import build_from_table, build_uniform_grid

from conftest import (REFERENCE_SPACES, STACK_SPACES, block_edge_stacks, random_cloud,
                      reference_morrey_detail, relabeled, sweep_columns,
                      tie_heavy_samples)


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

    def test_step_table_built_once_per_space(self):
        sp = build_uniform_grid(40, 1, "circle")
        table = sp.balls.step_table
        morrey_norm(sp, np.ones(40), 2.0, 0.25)
        evs = [GrandNormEvaluator(sp, GrandParams.power(p, 0.25, 1.0, max_points=6))
               for p in (2.0, 3.0)]
        assert sp.balls.step_table is table
        assert all(ev.steps is table[0] and ev.widths is table[1] for ev in evs)
        assert not table[0].flags.writeable

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


class TestOscillationKernel:
    @pytest.mark.parametrize("offset", [0.0, 1e3])
    @pytest.mark.parametrize("make", REFERENCE_SPACES.values(), ids=REFERENCE_SPACES.keys())
    def test_mean_and_jn_bit_identical(self, make, offset):
        sp = make()
        rng = np.random.default_rng(23)
        for _ in range(2):
            f = rng.normal(size=sp.n) * rng.exponential(size=sp.n) + offset
            ref = reference_oscillation_table(sp, f)
            assert np.array_equal(_oscillation_table(sp, f), ref)
            assert bmo_norm(sp, f, "mean") == ref.max()
            for p in (1.5, 2, 3):
                ref = reference_oscillation_table(sp, f, p)
                assert np.array_equal(_oscillation_table(sp, f, p), ref)
                assert bmo_norm(sp, f, "jn", p=p) == ref.max()

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


def unblocked_morrey_vector(ev, f):
    """Reference: the evaluator's algorithm over all centers at once."""
    bf = ev.space.balls
    n, e = ev.space.n, ev.pe.size
    powers = np.abs(np.asarray(f, dtype=float))[:, None] ** ev.pe[None, :] \
        * ev.space.weight[:, None]
    cs = np.cumsum(np.take(powers, bf.order, axis=0), axis=1)
    flat_ends = (np.arange(n)[:, None] * n + bf.counts - 1).ravel()
    sums = np.take(cs.reshape(-1, e), flat_ends, axis=0).reshape(ev.mu_pow.shape)
    sums *= ev.mu_pow
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
        assert np.any(ev.steps == sp.n)  # some centers add the zero row
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

    def test_duplicates_and_memo_hits_in_one_stack(self, circle32):
        ev = self.evaluator(circle32)
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
        for n, columns in ((64, 16), (256, 4), (1024, 1)):
            ev = self.evaluator(build_uniform_grid(n, 1, "circle"))
            assert (ev.pe.size, ev.columns) == (16, columns), n

    def test_stack_working_set_is_one_block(self):
        sp = build_uniform_grid(256, 1, "circle")
        ev = self.evaluator(sp)
        fs = np.random.default_rng(30).normal(size=(64, sp.n))
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
