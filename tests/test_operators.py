import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morreylab import funcnorm
from morreylab.funcnorm import GridFunction, TabulatedFunction
from morreylab.homspace import build_from_table, build_uniform_grid
from morreylab.operators import (CZOperator, DiniResult, DivergenceSuspected,
                                 KernelSizeViolation, PotentialOperator,
                                 commutator, conjugate_kernel, cz_apply,
                                 dini_integral, hilbert_kernel,
                                 kernel_from_matrix, maximal, maximal_s,
                                 potential_apply, sharp_maximal, validate_kernel)

from conftest import (REFERENCE_SPACES, STACK_SPACES, block_edge_stacks,
                      oscillation_columns, random_cloud, reference_maximal, relabeled,
                      sweep_columns, tie_heavy_samples)


def reference_sharp_maximal(space, f):
    """Reference: the per-center loop that the blocked oscillation kernel
    replaced, one (ranks x N) deviation table per center."""
    bf = space.balls
    v = np.asarray(f, dtype=float)
    w = space.weight
    out = np.empty(space.n)
    for c in range(space.n):
        idx = bf.order[c]
        fv, wv = v[idx], w[idx]
        nr = int(bf.n_ranks[c])
        ends = bf.counts[c, :nr] - 1
        mu = bf.measures[c, :nr]
        means = np.cumsum(fv * wv)[ends] / mu
        dev = np.abs(fv[None, :] - means[:, None]) * wv[None, :]
        out[c] = (np.cumsum(dev, axis=1)[np.arange(nr), ends] / mu).max()
    return out


class TestMaximal:
    def test_constant(self, grid16):
        out = maximal(grid16, np.full(16, -2.5))
        assert np.allclose(out, 2.5, atol=1e-14)

    def test_three_point_hand_values(self, grid3):
        out = maximal(grid3, [1.0, 0.0, 0.0])
        assert np.allclose(out, [1.0, 1.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_dominates_function(self, cloud20):
        rng = np.random.default_rng(0)
        f = rng.normal(size=20)
        assert np.all(maximal(cloud20, f) >= np.abs(f) - 1e-14)

    def test_oracle_ball_averages(self, cloud20):
        # oracle: direct ball enumeration from the distance rows
        rng = np.random.default_rng(1)
        f = np.abs(rng.normal(size=20))
        out = maximal(cloud20, f)
        for c in range(20):
            row = cloud20.dist[c]
            best = 0.0
            for rho in np.unique(row):
                m = row <= rho
                best = max(best, (f[m] * cloud20.weight[m]).sum()
                           / cloud20.weight[m].sum())
            assert out[c] == pytest.approx(best, rel=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_sublinear_and_monotone(self, seed):
        sp = build_uniform_grid(12, 1, "circle")
        rng = np.random.default_rng(seed)
        f, g = rng.normal(size=12), rng.normal(size=12)
        assert np.all(maximal(sp, f + g) <= maximal(sp, f) + maximal(sp, g) + 1e-12)
        assert np.allclose(maximal(sp, -3.0 * f), 3.0 * maximal(sp, f), atol=1e-12)
        bigger = np.abs(f) + np.abs(g)
        assert np.all(maximal(sp, f) <= maximal(sp, bigger) + 1e-12)


class TestMaximalS:
    def test_s_one_is_maximal(self, grid16):
        rng = np.random.default_rng(2)
        f = rng.normal(size=16)
        assert np.allclose(maximal_s(grid16, f, 1.0), maximal(grid16, f))

    def test_constant(self, grid16):
        assert np.allclose(maximal_s(grid16, np.full(16, 4.0), 3.0), 4.0)

    def test_two_atom_hand_values(self, two_atom):
        out = maximal_s(two_atom, [0.0, 2.0], 2.0)
        assert np.allclose(out, [math.sqrt(2.0), 2.0], atol=1e-12)

    def test_nondecreasing_in_s(self, cloud20):
        rng = np.random.default_rng(3)
        f = rng.normal(size=20)
        prev = maximal_s(cloud20, f, 1.0)
        for s in (1.5, 2.0, 3.0, 5.0):
            cur = maximal_s(cloud20, f, s)
            assert np.all(cur >= prev - 1e-12)
            prev = cur

    def test_rejects_small_s(self, grid3):
        with pytest.raises(ValueError):
            maximal_s(grid3, np.ones(3), 0.5)


class TestMaximalKernel:
    """maximal and maximal_s on the shell sweep against the dense-table reference."""

    @pytest.mark.parametrize("make", STACK_SPACES.values(), ids=STACK_SPACES.keys())
    def test_stacks_bit_identical_at_every_block_edge(self, make):
        sp = make()
        for fs in block_edge_stacks(sp.n, sweep_columns(sp.n), 34):
            got = maximal(sp, fs)
            assert got.shape == fs.shape
            for f, row in zip(fs, got):
                assert np.array_equal(row, reference_maximal(sp, f))
            for f, row in zip(fs[:3], got):  # one input is a row of the stack
                assert np.array_equal(maximal(sp, f), row)

    @pytest.mark.parametrize("s", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("make", STACK_SPACES.values(), ids=STACK_SPACES.keys())
    def test_maximal_s_stacks_bit_identical(self, make, s):
        sp = make()
        for fs in block_edge_stacks(sp.n, sweep_columns(sp.n), 35):
            got = maximal_s(sp, fs, s)
            assert got.shape == fs.shape
            for f, row in zip(fs, got):
                assert np.array_equal(row, reference_maximal(sp, np.abs(f) ** s) ** (1.0 / s))
            for f, row in zip(fs[:3], got):
                assert np.array_equal(maximal_s(sp, f, s), row)

    def test_stack_working_set_is_one_block(self):
        sp = build_uniform_grid(256, 1, "circle")
        fs = np.random.default_rng(37).normal(size=(256, sp.n))
        maximal(sp, fs[:1])  # the family and its step table are built outside the trace
        tracemalloc.start()
        try:
            out = maximal(sp, fs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output, the rank-major scale table and one block of 64 inputs
        # take about 1.6 MB; one block of all 256 inputs would take about 3.4 MB
        assert peak <= 2 * out.nbytes + 2 * funcnorm._BLOCK_BYTES, peak

    @pytest.mark.parametrize("bad", [
        np.zeros((3, 31)), np.zeros((2, 2, 32)),
        np.where(np.arange(64).reshape(2, 32) == 40, np.nan, 0.0),
        GridFunction(build_uniform_grid(32, 1, "interval"), np.ones(32)),
    ], ids=["width", "3-d", "nan", "other-space"])
    def test_bad_inputs_raise(self, circle32, bad):
        ops = [lambda f: maximal(circle32, f), lambda f: maximal_s(circle32, f, 2.0),
               CZOperator(circle32, conjugate_kernel(circle32)),
               PotentialOperator(circle32, 0.5)]
        for op in ops:
            with pytest.raises(ValueError):
                op(bad)


class TestOperatorStacks:
    """Linear operators on a stack apply one matrix-vector product per row."""

    @pytest.mark.parametrize("make", [
        STACK_SPACES["grid2d-weighted"], lambda: build_uniform_grid(97, 1, "circle"),
    ], ids=["grid2d-weighted", "circle97"])
    def test_stack_equals_rows(self, make):
        sp = make()
        rng = np.random.default_rng(38)
        table = rng.normal(size=(sp.n, sp.n))
        ops = [CZOperator(sp, kernel_from_matrix(sp, table - table.T)),
               PotentialOperator(sp, 0.3)]
        if sp.labels is not None and sp.labels.shape[1] == 1:
            ops.append(CZOperator(sp, conjugate_kernel(sp)))
        fs = rng.normal(size=(7, sp.n))
        bs = rng.normal(size=(7, sp.n))
        for op in ops:
            for stack, rows in ((fs, fs), (bs * fs, [b * f for b, f in zip(bs, fs)])):
                got = op(stack)
                assert got.shape == stack.shape
                for row, f in zip(got, rows):
                    assert np.array_equal(row, op(f))
            assert op(fs[:0]).shape == (0, sp.n)


class TestSharpMaximal:
    def test_constant_vanishes(self, grid16):
        assert np.allclose(sharp_maximal(grid16, np.full(16, 9.0)), 0.0, atol=1e-13)

    def test_two_atom_hand_values(self, two_atom):
        assert np.allclose(sharp_maximal(two_atom, [0.0, 1.0]), [0.5, 0.5], atol=1e-12)

    def test_dominated_by_twice_maximal(self, cloud20, circle32):
        rng = np.random.default_rng(4)
        for sp in (cloud20, circle32):
            f = rng.normal(size=sp.n)
            assert np.all(sharp_maximal(sp, f) <= 2.0 * maximal(sp, f) + 1e-12)

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    @pytest.mark.parametrize("make", REFERENCE_SPACES.values(), ids=REFERENCE_SPACES.keys())
    def test_bit_identical_to_reference(self, make, offset):
        sp = make()
        rng = np.random.default_rng(17)
        for _ in range(2):
            f = rng.normal(size=sp.n) * rng.exponential(size=sp.n) + offset
            assert np.array_equal(sharp_maximal(sp, f), reference_sharp_maximal(sp, f))

    @pytest.mark.parametrize("make", STACK_SPACES.values(), ids=STACK_SPACES.keys())
    def test_stacks_bit_identical_at_every_block_edge(self, make, monkeypatch):
        sp = make()
        if sp.n == 1:
            # a one-atom column takes 48 bytes, so the production budget makes a
            # block of 43,690 inputs (pinned in TestOscillationKernel); a block
            # of 16 keeps every edge at a few dozen rows
            monkeypatch.setattr(funcnorm, "_OSC_BYTES", 16 * 48)
            assert oscillation_columns(sp) == 16
        assert sharp_maximal(sp, np.zeros((0, sp.n))).shape == (0, sp.n)
        for fs in block_edge_stacks(sp.n, oscillation_columns(sp), 36):
            got = sharp_maximal(sp, fs)
            assert got.shape == fs.shape
            for f, row in zip(fs, got):
                assert np.array_equal(row, sharp_maximal(sp, f))
                assert np.array_equal(row, reference_sharp_maximal(sp, f))

    def test_stack_working_set_is_one_block(self):
        sp = build_uniform_grid(256, 1, "circle")
        fs = np.random.default_rng(39).normal(size=(256, sp.n))
        sharp_maximal(sp, fs[:1])  # the ball family is built outside the trace
        tracemalloc.start()
        try:
            out = sharp_maximal(sp, fs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output and one block of (center, input) columns, sized by the
        # kernel's own budget; a per-rank (M, N, R) table of this stack would
        # take 68 MB
        assert peak <= 2 * funcnorm._OSC_BYTES + 2 * out.nbytes, peak

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
            want = sharp_maximal(sp, f)[perm]
            assert np.allclose(sharp_maximal(moved, f[perm]), want, rtol=1e-12,
                               atol=1e-14 * np.abs(f).max())


class TestCZ:
    def test_odd_kernel_kills_constants(self, circle32):
        k = conjugate_kernel(circle32)
        out = cz_apply(circle32, k, np.full(32, 5.0))
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_single_atom_support(self, circle32):
        k = conjugate_kernel(circle32)
        f = np.zeros(32)
        f[7] = 2.0
        out = cz_apply(circle32, k, f)
        expect = k.matrix[:, 7] * 2.0 * circle32.weight[7]
        expect[7] = 0.0
        assert np.allclose(out, expect, atol=1e-14)

    def test_linearity(self, circle32):
        op = CZOperator(circle32, conjugate_kernel(circle32))
        rng = np.random.default_rng(5)
        f, g = rng.normal(size=32), rng.normal(size=32)
        lhs = op(2.0 * f - 3.0 * g)
        rhs = 2.0 * op(f) - 3.0 * op(g)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_conjugate_of_cos_is_sin(self):
        sp = build_uniform_grid(128, 1, "circle")
        theta = sp.labels.ravel()
        out = cz_apply(sp, conjugate_kernel(sp), np.cos(theta))
        # exact discrete identity: T cos = (1 - 2/N) sin
        assert np.allclose(out, (1 - 2 / 128) * np.sin(theta), atol=1e-12)

    @pytest.mark.parametrize("geometry, kernel", [("circle", conjugate_kernel),
                                                  ("interval", hilbert_kernel)],
                             ids=["conjugate", "hilbert"])
    def test_kernel_build_holds_few_tables(self, geometry, kernel):
        sp = build_uniform_grid(1024, 1, geometry)
        x = sp.labels[:, 0]
        diff = x[:, None] - x[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            want = 1.0 / np.tan(diff / 2.0) if kernel is conjugate_kernel \
                else 1.0 / (math.pi * diff)
        np.fill_diagonal(want, 0.0)
        del diff
        sp.balls.open_measure  # built once per space, outside the trace
        tracemalloc.start()
        try:
            spec = kernel(sp)
            op = CZOperator(sp, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the kernel formed in place: 25.0 MiB when its formula made two temporaries
        assert peak <= 2.5 * 8 * sp.n ** 2, peak
        assert np.array_equal(spec.matrix, want)  # the formula's bits
        assert np.array_equal(op._mat, want * sp.weight[None, :])

    def test_size_condition_violation(self, grid3):
        m = np.array([[0.0, 100.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        kern = kernel_from_matrix(grid3, m, size_constant=0.1)
        with pytest.raises(KernelSizeViolation):
            validate_kernel(grid3, kern)

    def test_hilbert_kernel_antisymmetric(self, grid16):
        k = hilbert_kernel(grid16)
        assert np.allclose(k.matrix, -k.matrix.T, atol=1e-12)

    def test_size_constant_matches_off_diagonal_mask(self, grid16):
        def masked(space, m):
            # reference: the maximum over an N x N off-diagonal mask
            off = ~np.eye(space.n, dtype=bool)
            return float((np.abs(m) * space.balls.open_measure)[off].max()) if space.n > 1 else 0.0

        circle = build_uniform_grid(1024, 1, "circle")
        grid64 = build_uniform_grid(64, 1, "interval")
        rough = np.random.default_rng(3).normal(size=(16, 16))
        nan_diag, inf_diag = rough.copy(), rough.copy()
        np.fill_diagonal(nan_diag, np.nan)
        np.fill_diagonal(inf_diag, np.inf)
        cases = [(circle, conjugate_kernel(circle).matrix),
                 (grid64, hilbert_kernel(grid64).matrix),
                 (grid16, nan_diag), (grid16, inf_diag),
                 (build_from_table([[0.0]], [1.0]), np.array([[7.0]]))]
        for space, m in cases:
            got = kernel_from_matrix(space, m).size_constant
            assert np.array_equal(got, masked(space, m), equal_nan=True), (space.n, got)


class TestPotential:
    def test_zero(self, grid16):
        assert np.allclose(potential_apply(grid16, np.zeros(16), 0.5), 0.0)

    def test_two_atom_hand_value(self, two_atom):
        out = potential_apply(two_atom, [0.0, 1.0], 0.5)
        assert out[0] == pytest.approx(2.0 ** -0.5, abs=1e-12)
        assert out[1] == pytest.approx(2.0 ** -0.5, abs=1e-12)

    def test_monotone_in_alpha_for_small_measures(self, two_atom):
        f = np.array([0.0, 1.0])
        vals = [potential_apply(two_atom, f, a)[0] for a in (0.2, 0.5, 0.8, 0.99)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        # limit toward alpha = 1 is f integrated against mu: here 1/2
        assert vals[-1] == pytest.approx(0.5, abs=0.01)

    def test_rejects_alpha_out_of_range(self, grid3):
        for a in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                potential_apply(grid3, np.ones(3), a)

    def test_linearity(self, cloud20):
        op = PotentialOperator(cloud20, 0.4)
        rng = np.random.default_rng(7)
        f, g = rng.normal(size=20), rng.normal(size=20)
        assert np.allclose(op(1.5 * f + 0.5 * g), 1.5 * op(f) + 0.5 * op(g),
                           atol=1e-12)

    def test_positivity(self, cloud20):
        rng = np.random.default_rng(8)
        f = np.abs(rng.normal(size=20))
        assert np.all(potential_apply(cloud20, f, 0.3) >= 0.0)


class TestCommutator:
    def test_constant_b_vanishes(self, circle32):
        op = CZOperator(circle32, conjugate_kernel(circle32))
        rng = np.random.default_rng(9)
        f = rng.normal(size=32)
        out = commutator(np.full(32, 4.2), op, f)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_two_atom_hand_values(self, two_atom):
        op = PotentialOperator(two_atom, 0.5)
        out = commutator(np.array([0.0, 1.0]), op, np.array([1.0, 1.0]))
        # I f = (sqrt(2), sqrt(2)); I(bf) = (2^-1/2, 2^-1/2)
        # [b,I]f = b*If - I(bf) = (-2^-1/2, sqrt(2) - 2^-1/2 = 2^-1/2)
        assert out[0] == pytest.approx(-(2.0 ** -0.5), abs=1e-12)
        assert out[1] == pytest.approx(2.0 ** -0.5, abs=1e-12)

    def test_bilinearity(self, cloud20):
        op = PotentialOperator(cloud20, 0.5)
        rng = np.random.default_rng(10)
        b = rng.normal(size=20)
        f, g = rng.normal(size=20), rng.normal(size=20)
        lhs = commutator(b, op, f + g)
        rhs = commutator(b, op, f) + commutator(b, op, g)
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestCommutatorStacks:
    """[b, op] of (M, N) stacks of b and f against the per-pair loop."""

    @pytest.mark.parametrize("n", [49, 97])
    def test_stack_matches_per_pair_loop(self, n):
        sp = build_uniform_grid(n, 1, "circle")
        rng = np.random.default_rng(n)
        bs, fs = rng.normal(size=(2, 9, n))
        bs[3] = 4.2  # a constant b
        fs[5] = 0.0  # an all-zero f
        for op in (CZOperator(sp, conjugate_kernel(sp)), PotentialOperator(sp, 0.4)):
            got = commutator(bs, op, fs)
            assert np.array_equal(got, [commutator(b, op, f) for b, f in zip(bs, fs)])
            assert np.allclose(got[3], 0.0, atol=1e-12) and not got[5].any()

    def test_weighted_grid_potential(self):
        sp = STACK_SPACES["grid2d-weighted"]()
        rng = np.random.default_rng(49)
        bs, fs = rng.normal(size=(2, 6, sp.n))
        op = PotentialOperator(sp, 0.3)
        assert np.array_equal(commutator(bs, op, fs),
                              [commutator(b, op, f) for b, f in zip(bs, fs)])


class TestDini:
    def test_linear_modulus_exact(self):
        w = TabulatedFunction.power(1.0, np.geomspace(1e-6, 1.0, 40))
        res = dini_integral(w)
        assert res.integral == pytest.approx(1.0, abs=1e-12)
        # partial dyadic series of 2^-k
        assert res.series == pytest.approx(1.0 - 2.0 ** -res.n_terms, abs=1e-12)

    def test_sqrt_modulus(self):
        knots = np.unique(np.concatenate([0.5 ** np.arange(1, 28),
                                          np.geomspace(2.0 ** -27, 1.0, 400)]))
        w = TabulatedFunction.power(0.5, knots)
        res = dini_integral(w)
        assert res.integral == pytest.approx(2.0, abs=5e-3)
        expect = (2 ** -0.5 - 2 ** (-(res.n_terms + 1) / 2)) / (1 - 2 ** -0.5)
        assert res.series == pytest.approx(expect, abs=1e-12)

    def test_slow_divergence_flagged(self):
        knots = np.geomspace(1e-12, 1.0, 600)
        w = TabulatedFunction(knots, 1.0 / np.log(np.e / knots))
        with pytest.raises(DivergenceSuspected):
            dini_integral(w)

    def test_result_type(self):
        w = TabulatedFunction.power(1.0, np.geomspace(1e-8, 1.0, 30))
        assert isinstance(dini_integral(w), DiniResult)


class TestKernelSpec:
    def test_builtin_size_constants_finite(self, circle32, grid16):
        for kern, sp in ((conjugate_kernel(circle32), circle32),
                         (hilbert_kernel(grid16), grid16)):
            assert 0 < kern.size_constant < 10.0
            validate_kernel(sp, kern)  # passes by construction

    def test_dini_value_for_default_modulus(self, circle32):
        kern = conjugate_kernel(circle32)
        assert kern.dini_value == pytest.approx(1.0, abs=1e-9)
        assert kern.delta2_constant == pytest.approx(2.0, rel=1e-6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, grid3, bad):
        m = np.ones((3, 3))
        m[1, 2] = bad
        for size_constant in (None, 10.0):
            with pytest.raises(ValueError, match=r"K\(1,2\) = .* is not finite"):
                kernel_from_matrix(grid3, m, size_constant=size_constant)

    @pytest.mark.parametrize("field", ["matrix", "size_constant"])
    def test_nan_product_is_a_size_violation(self, grid3, field):
        kern = kernel_from_matrix(grid3, np.ones((3, 3)))
        m = np.ones((3, 3))
        m[1, 2] = np.nan
        bad = dataclasses.replace(kern, **{field: m if field == "matrix" else np.nan})
        with pytest.raises(KernelSizeViolation) as info:
            validate_kernel(grid3, bad)
        assert info.value.witness == ((1, 2) if field == "matrix" else (0, 1))

    def test_shape_mismatch(self, grid3):
        with pytest.raises(ValueError):
            kernel_from_matrix(grid3, np.zeros((2, 2)))
