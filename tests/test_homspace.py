import gc
import json
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morreylab.homspace import (DegenerateFit, DiscreteHomSpace, NonPositiveWeight,
                                QuasiTriangleViolation, SpaceValidationError,
                                SymmetryViolation,
                                ZeroDistanceOffDiagonal, build_from_table,
                                build_uniform_grid, check_annulus,
                                doubling_constant, dump_space_json,
                                load_space_csv, load_space_json,
                                reverse_doubling_exponent, space_from_points)

from conftest import (REFERENCE_SPACES, STACK_SPACES, random_cloud,
                      reference_annulus_witnesses, reference_ball_family,
                      reference_open_measure, reference_reverse_doubling,
                      reference_step_table, reference_uniform_grid, reference_validate,
                      validation_outcome)

# the stack spaces, two atoms, and a table accepted only with cs > 1 whose
# rows rank the atoms differently (row 0 ties two atoms at its diameter)
FAMILY_SPACES = {
    **STACK_SPACES,
    "two-atom": lambda: build_from_table([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5]),
    "asymmetric-cs2": lambda: build_from_table(
        [[0, 1, 2, 2], [1.5, 0, 1, 3], [2, 1.5, 0, 1], [3, 2, 1.5, 0]],
        [0.1, 0.2, 0.3, 0.4], ct=2.0, cs=2.0),
}


class TestBuilders:
    def test_two_point_interval(self):
        sp = build_uniform_grid(2, 1, "interval")
        assert sp.dist[0, 1] == 1.0
        assert np.allclose(sp.weight, [0.5, 0.5])
        assert sp.diameter == 1.0

    def test_three_point_interval(self, grid3):
        assert np.allclose(grid3.labels.ravel(), [0.0, 0.5, 1.0])
        assert np.allclose(grid3.weight, 1.0 / 3.0)

    def test_circle_arc_distances(self):
        sp = build_uniform_grid(8, 1, "circle")
        # arc distance never exceeds half the circumference; diameter is pi
        assert sp.dist.max() <= np.pi + 1e-15
        assert sp.diameter == pytest.approx(np.pi, abs=1e-15)
        # oracle: direct wrapped arc-length computation
        theta = sp.labels.ravel()
        gap = np.abs(theta[:, None] - theta[None, :])
        oracle = np.minimum(gap, 2 * np.pi - gap)
        assert np.allclose(sp.dist, oracle, atol=1e-12)

    def test_2d_grid(self):
        sp = build_uniform_grid(4, 2, "interval")
        assert sp.n == 16
        assert sp.total_measure == pytest.approx(1.0)
        assert sp.diameter == pytest.approx(np.sqrt(2.0))

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            build_uniform_grid(1, 1, "interval")

    def test_rejects_2d_circle(self):
        with pytest.raises(ValueError):
            build_uniform_grid(8, 2, "circle")

    @pytest.mark.parametrize("n, dim, geometry", [
        (2, 1, "circle"), (3, 1, "circle"), (8, 1, "circle"), (257, 1, "circle"),
        (1024, 1, "circle"), (2, 1, "interval"), (3, 1, "interval"), (256, 1, "interval"),
        (2, 2, "interval"), (6, 2, "interval"), (7, 2, "interval"),
    ])
    def test_matches_reference_builder(self, n, dim, geometry):
        got, want = build_uniform_grid(n, dim, geometry), reference_uniform_grid(n, dim, geometry)
        for g, w in ((got.dist, want.dist), (got.weight, want.weight), (got.labels, want.labels)):
            assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)
            assert g.flags.c_contiguous and not g.flags.writeable
        assert (got.ct, got.cs) == (want.ct, want.cs)

    def test_grid_copies_one_table(self):
        # the N x N index offsets, their minimum and the float product took three tables
        tracemalloc.start()
        try:
            sp = build_uniform_grid(1024, 1, "circle")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * sp.n**2, peak


class TestIngestion:
    def test_round_trip(self, grid3):
        sp = build_from_table(grid3.dist, grid3.weight, 1.0, 1.0)
        assert np.array_equal(sp.dist, grid3.dist)
        assert np.array_equal(sp.weight, grid3.weight)

    def test_zero_distance_off_diagonal(self):
        with pytest.raises(ZeroDistanceOffDiagonal) as err:
            build_from_table([[0, 0], [0, 0]], [1, 1])
        assert err.value.witness == (0, 1)

    def test_quasi_triangle_witness(self):
        d = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
        with pytest.raises(QuasiTriangleViolation) as err:
            build_from_table(d, [1, 1, 1], ct=1.0)
        assert err.value.witness == (0, 2, 1)

    def test_symmetry_witness(self):
        d = [[0, 1], [3, 0]]
        with pytest.raises(SymmetryViolation):
            build_from_table(d, [1, 1], ct=2.0, cs=1.0)

    def test_nonpositive_weight(self):
        with pytest.raises(NonPositiveWeight) as err:
            build_from_table([[0, 1], [1, 0]], [1, 0])
        assert err.value.witness == (1,)

    @pytest.mark.parametrize("dist, weight, witness", [
        ([[0, np.nan, 1], [np.nan, 0, 1], [1, 1, 0]], [1, 1, 1], (0, 1)),
        ([[0, 1, 1], [1, 0, np.inf], [1, np.inf, 0]], [1, 1, 1], (1, 2)),
        ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], [1, np.nan, 1], (1,)),
    ], ids=["nan-distance", "inf-distance", "nan-weight"])
    def test_nonfinite_rejected(self, tmp_path, dist, weight, witness):
        with pytest.raises(SpaceValidationError, match="not finite") as err:
            build_from_table(dist, weight)
        assert err.value.witness == witness
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"n": 3, "dist": dist, "weight": weight,
                                    "ct": 1.0, "cs": 1.0}))
        with pytest.raises(SpaceValidationError, match="not finite") as err:
            load_space_json(path)
        assert err.value.witness == witness

    @pytest.mark.parametrize("dist, weight, ct, cs", [
        ([[0, 1, 5], [1, 0, 1], [5, 1, 0]], [1, 1, 1], 1.0, 1.0),
        # only d(1, 3) = 2.5 > d(1, 2) + d(2, 3) = 2 fails, so the witness's k is 2
        ([[0, 1, 2, 3, 4], [1, 0, 1, 2.5, 3], [2, 1, 0, 1, 2], [3, 2.5, 1, 0, 1],
          [4, 3, 2, 1, 0]], [1, 1, 1, 1, 1], 1.0, 1.0),
        ([[0, 1, 5], [1, 0, 1], [5, 1, 0]], [1, 1, 1], 2.5, 1.0),
        ([[0, 1], [3, 0]], [1, 1], 2.0, 1.0),
        ([[0, 0], [0, 0]], [1, 1], 1.0, 1.0),
    ], ids=["triangle", "triangle-late-k", "triangle-within-ct", "symmetry",
            "zero-off-diagonal"])
    def test_verdict_matches_reference(self, dist, weight, ct, cs):
        # the running minimum over k decides; the scan over k names the witness
        sp = DiscreteHomSpace(dist, weight, ct, cs)
        got = validation_outcome(DiscreteHomSpace.validate, sp)
        assert got == validation_outcome(reference_validate, sp)
        assert (got is None) == (ct == 2.5)

    def test_quasi_triangle_accepts_with_larger_ct(self):
        d = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
        sp = build_from_table(d, [1, 1, 1], ct=2.5)
        assert sp.ct == 2.5

    def test_json_round_trip(self, tmp_path, grid3):
        path = tmp_path / "space.json"
        dump_space_json(grid3, path)
        back = load_space_json(path)
        assert np.array_equal(back.dist, grid3.dist)
        assert np.array_equal(back.weight, grid3.weight)

    def test_csv_point_cloud(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("x,y,w\n0,0,0.5\n1,0,0.25\n0,1,0.25\n")
        sp = load_space_csv(path)
        assert sp.n == 3
        assert sp.dist[1, 2] == pytest.approx(np.sqrt(2.0))
        assert sp.total_measure == pytest.approx(1.0)

    def test_csv_rejects_non_numeric_data_row(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("# cloud\nx,y,w\n0,0,0.5\n1,zero,0.25\n0,1,0.25\n")
        with pytest.raises(ValueError, match="line 4"):
            load_space_csv(path)

    def test_csv_header_only_has_no_data_rows(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("x,y,w\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_space_csv(path)


class TestBallFamily:
    def test_two_atom_balls(self, two_atom):
        bf = two_atom.balls
        for c in range(2):
            assert list(bf.radii_of(c)) == [0.0, 1.0]
            assert bf.measure(c, 0) == 0.5
            assert bf.measure(c, 1) == 1.0

    def test_tie_collapse_center_of_grid3(self, grid3):
        bf = grid3.balls
        # both neighbors of the middle point sit at distance 1/2: one rank
        assert bf.n_ranks[1] == 2
        assert set(bf.members(1, 1).tolist()) == {0, 1, 2}

    def test_last_ball_is_whole_space(self, grid16, circle32, cloud20):
        for sp in (grid16, circle32, cloud20):
            bf = sp.balls
            for c in range(sp.n):
                k = int(bf.n_ranks[c]) - 1
                assert bf.counts[c, k] == sp.n
                assert bf.measure(c, k) == pytest.approx(sp.total_measure)

    def test_measures_nondecreasing(self, grid16, cloud20):
        for sp in (grid16, cloud20):
            bf = sp.balls
            for c in range(sp.n):
                mus = bf.measures[c, : bf.n_ranks[c]]
                assert np.all(np.diff(mus) > 0)

    def test_smallest_ball_contains_center(self, cloud20):
        bf = cloud20.balls
        for c in range(cloud20.n):
            assert c in bf.members(c, 0)
            assert bf.measure(c, 0) >= cloud20.weight[c]

    def test_deterministic_enumeration(self, cloud20):
        a = cloud20.balls
        b = build_from_table(cloud20.dist, cloud20.weight).balls
        assert np.array_equal(a.order, b.order)
        assert np.array_equal(a.counts, b.counts)

    def test_space_with_cached_balls_freed_without_collection(self):
        sp = build_uniform_grid(16, 1, "circle")
        sp.balls.open_measure
        ref = weakref.ref(sp)
        gc.disable()
        try:
            del sp
            assert ref() is None
        finally:
            gc.enable()

    def test_family_outlives_its_space(self, circle32):
        bf = build_from_table(circle32.dist, circle32.weight).balls
        assert np.array_equal(bf.open_measure, circle32.balls.open_measure)

    def test_members_match_direct_enumeration(self, cloud20):
        # oracle: recompute membership from the raw distance rows
        bf = cloud20.balls
        for c in range(cloud20.n):
            for k in range(int(bf.n_ranks[c])):
                rho = bf.radii_of(c)[k]
                oracle = set(np.flatnonzero(cloud20.dist[c] <= rho).tolist())
                assert set(bf.members(c, k).tolist()) == oracle

    @pytest.mark.parametrize("name", list(FAMILY_SPACES))
    def test_tables_match_reference_loops(self, name):
        sp = FAMILY_SPACES[name]()
        bf = sp.balls
        want = (*reference_ball_family(sp), reference_open_measure(sp))
        got = (bf.order, bf.radii, bf.counts, bf.measures, bf.n_ranks, bf.open_measure)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
            assert not g.flags.writeable
        assert check_annulus(sp).witnesses == reference_annulus_witnesses(sp) == []
        steps, widths, runs = bf.step_table
        want_steps, want_widths, want_runs = reference_step_table(bf)
        assert steps.dtype == want_steps.dtype and np.array_equal(steps, want_steps)
        assert steps.flags.c_contiguous and not steps.flags.writeable
        assert widths == want_widths and all(type(x) is int for x in widths)
        assert runs == want_runs

    def test_step_table_working_set(self):
        # the (N, N) step positions, the (N, S) table and its transposed copy,
        # held together, peaked at 24.5 MiB here
        bf = build_uniform_grid(1024, 1, "circle").balls
        tracemalloc.start()
        try:
            bf.step_table
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20, peak

    def test_open_measure_holds_at_most_two_tables(self):
        sp = build_uniform_grid(512, 1, "circle")
        bf = sp.balls
        tracemalloc.start()
        try:
            bf.open_measure
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output and the values in distance order, plus half a table of slack
        assert peak <= 2.5 * 8 * sp.n**2, peak

    def test_open_measure_matrix(self, two_atom, grid3):
        om = two_atom.balls.open_measure
        assert np.allclose(np.diag(om), two_atom.weight)
        assert om[0, 1] == 0.5  # open ball of radius 1 is the singleton
        om3 = grid3.balls.open_measure
        # from the middle point both neighbors sit at the smallest positive
        # distance, so the open ball there is the singleton
        assert om3[1, 0] == pytest.approx(1.0 / 3.0)
        assert om3[0, 2] == pytest.approx(2.0 / 3.0)


class TestDoubling:
    def test_single_atom_degenerate(self):
        sp = build_from_table([[0.0]], [1.0])
        assert doubling_constant(sp) == 1.0

    def test_two_atom_value(self, two_atom):
        assert doubling_constant(two_atom) == pytest.approx(2.0)

    def test_uniform_grid_brute_force(self):
        # oracle: dense scan over radii straight from the distance table
        sp = build_uniform_grid(8, 1, "interval")
        best = 1.0
        for x in range(sp.n):
            row = sp.dist[x]
            cands = np.unique(np.concatenate([row[row > 0], row[row > 0] / 2]))
            for r in cands:
                lo = sp.weight[row <= r].sum()
                hi = sp.weight[row <= 2 * r].sum()
                best = max(best, hi / lo)
        assert doubling_constant(sp) == pytest.approx(best)
        assert best <= 3.0 + 1e-12

    def test_grid_values_stay_at_three(self):
        for n in (8, 16, 33):
            assert doubling_constant(build_uniform_grid(n, 1, "interval")) \
                == pytest.approx(3.0)

    def test_at_least_one(self, cloud20):
        assert doubling_constant(cloud20) >= 1.0


class TestReverseDoubling:
    def test_1d_exponent(self):
        _, gamma = reverse_doubling_exponent(build_uniform_grid(64, 1, "interval"))
        assert abs(gamma - 1.0) <= 0.2

    def test_2d_exponent(self):
        _, gamma = reverse_doubling_exponent(build_uniform_grid(32, 2, "interval"))
        assert abs(gamma - 2.0) <= 0.3

    def test_envelope_at_least_one(self, grid16, circle32, cloud20):
        for sp in (grid16, circle32, cloud20):
            c, _ = reverse_doubling_exponent(sp)
            assert c >= 1.0

    def test_envelope_bounds_every_pair(self, grid16):
        c, gamma = reverse_doubling_exponent(grid16)
        bf = grid16.balls
        for x in range(grid16.n):
            radii = bf.radii_of(x)
            mus = bf.measures[x, : len(radii)]
            for i in range(1, len(radii)):
                for j in range(i + 1, len(radii)):
                    lhs = mus[i] / mus[j]
                    rhs = c * (radii[i] / radii[j]) ** gamma
                    assert lhs <= rhs * (1 + 1e-9)

    def test_degenerate_two_atoms(self, two_atom):
        with pytest.raises(DegenerateFit):
            reverse_doubling_exponent(two_atom)

    @pytest.mark.parametrize("make", [
        lambda: build_uniform_grid(64, 1, "circle"),
        lambda: build_uniform_grid(64, 1, "interval"),
        REFERENCE_SPACES["cloud40"], REFERENCE_SPACES["grid2d-ties"],
    ], ids=["circle64", "interval64", "cloud40", "grid2d-ties"])
    def test_matches_all_pairs_reference_bit_for_bit(self, make):
        sp = make()
        assert reverse_doubling_exponent(sp) == reference_reverse_doubling(sp)

    def test_single_atom_degenerate_in_both(self):
        sp = REFERENCE_SPACES["single-atom"]()
        for fit in (reverse_doubling_exponent, reference_reverse_doubling):
            with pytest.raises(DegenerateFit):
                fit(sp)

    def test_holds_one_center_of_pairs_at_a_time(self):
        # holding every center's nested pairs at once peaks at about 14 MiB here
        sp = build_uniform_grid(192, 1, "circle")
        sp.balls
        tracemalloc.start()
        try:
            reverse_doubling_exponent(sp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, peak


class TestAnnulus:
    def test_uniform_grid_passes(self, grid16):
        assert check_annulus(grid16).passed

    def test_all_equal_distances_vacuous(self):
        d = np.ones((3, 3)) - np.eye(3)
        sp = build_from_table(d, [1, 1, 1])
        rep = check_annulus(sp)
        assert rep.passed and not rep.witnesses

    def test_closed_convention_note(self, grid3):
        rep = check_annulus(grid3)
        assert rep.passed
        assert "closed-ball" in rep.note

    def test_witnesses_match_reference_loop(self):
        # zero weight at atoms 2 and 3 empties some annuli; validate() would
        # reject the space, and a valid space has no witnesses
        x = np.arange(6.0)
        sp = DiscreteHomSpace(np.abs(x[:, None] - x[None, :]), [1, 1, 0, 0, 1, 1])
        rep = check_annulus(sp)
        assert not rep.passed
        assert rep.witnesses[:2] == [(0, 1.0, 2.0), (0, 2.0, 3.0)]
        assert rep.witnesses == reference_annulus_witnesses(sp)
        assert all(type(c) is int for c, _, _ in rep.witnesses)

    def test_empty_open_annulus_passes_closed_convention(self):
        # colinear points at 0, 1, 3: the open annulus between radii 2 and 3
        # around the first point is empty, but the realized closed pairs
        # (1, 3) always contain the atom at the outer radius
        sp = space_from_points(np.array([[0.0], [1.0], [3.0]]))
        rep = check_annulus(sp)
        assert rep.passed and not rep.witnesses


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=3, max_value=12), st.integers(min_value=0, max_value=10**6))
def test_random_clouds_always_validate(n, seed):
    sp = random_cloud(n, seed)
    assert sp.n == n
    assert doubling_constant(sp) >= 1.0


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=3, max_value=8), st.integers(min_value=0, max_value=10**6))
def test_triangle_violations_are_caught(n, seed):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    np.fill_diagonal(d, 0.0)
    i, j = 0, 1
    d[i, j] = d[j, i] = 10.0 * d.max() + 1.0  # break the triangle through any k
    with pytest.raises(QuasiTriangleViolation):
        build_from_table(d, np.full(n, 1.0 / n))
    sp = DiscreteHomSpace(d, np.full(n, 1.0 / n))
    want = validation_outcome(reference_validate, sp)
    assert want[0] is QuasiTriangleViolation
    assert validation_outcome(DiscreteHomSpace.validate, sp) == want


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=24), st.integers(min_value=0, max_value=10**6),
       st.booleans())
def test_cloud_tables_match_references(n, seed, lattice):
    # lattice points tie many distances, uniform points none
    rng = np.random.default_rng(seed)
    pts = (np.stack(np.divmod(rng.choice(64, n, replace=False), 8), axis=1).astype(float)
           if lattice else rng.random((n, 2)))
    sp = DiscreteHomSpace(np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1)),
                          rng.uniform(0.5, 1.5, n) / n)
    assert validation_outcome(DiscreteHomSpace.validate, sp) is None
    assert validation_outcome(reference_validate, sp) is None
    bf = sp.balls
    for g, w in zip((bf.order, bf.radii, bf.counts, bf.measures, bf.n_ranks),
                    reference_ball_family(sp)):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    steps, widths, runs = bf.step_table
    want_steps, want_widths, want_runs = reference_step_table(bf)
    assert steps.dtype == want_steps.dtype and np.array_equal(steps, want_steps)
    assert widths == want_widths and runs == want_runs
