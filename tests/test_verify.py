import csv
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from morreylab import verify
from morreylab.auxfun import AuxExponents, eta_identity_residual, psi_table
from morreylab.corpus import Corpus, make_corpus
from morreylab.funcnorm import (GrandNormEvaluator, GrandParams, TabulatedFunction,
                                bmo_norm, default_eps_grid, grand_lebesgue_norm,
                                grand_morrey_norm, lp_norm, morrey_norm)
from morreylab.homspace import (build_from_table, build_uniform_grid, dump_space_json,
                                space_from_points)
from morreylab.operators import (CZOperator, PotentialOperator, commutator,
                                 conjugate_kernel, maximal, maximal_s, sharp_maximal)
from morreylab.verify import (AllSamplesDegenerate, HypothesisFailed,
                              DEFAULT_CONFIG, build_calibrated_checks, calibrate,
                              calibrated_regression, commutator_suite,
                              dominance_check, embedding_chain_check,
                              eta_identity_report, aux_function_report,
                              fefferman_stein_check, merge_config,
                              reduction_transfer_check, reports_to_csv,
                              reports_to_json, run_suite)

CIRC32 = build_uniform_grid(32, 1, "circle")


def small_corpus(space, size=24, seed=0, family="mixed"):
    return make_corpus(space, family, size, seed)


class TestStabilityRule:
    def test_maxima_per_name_and_the_largest_drift(self):
        full, half, drift = verify._stability(np.nan, a=[1.0, 2.0, np.nan, 4.0],
                                              b=[np.nan, np.nan, 3.0, 3.0])
        assert list(full.items()) == [("a", 4.0), ("b", 3.0)]
        assert list(half.items())[0] == ("a_half", 2.0) and np.isnan(half["b_half"])
        assert drift == 0.5  # b's NaN half-corpus maximum drifts 0

    @pytest.mark.parametrize("vals", [[np.inf, 1.0], [1.0, np.inf], [0.0, 0.0], [np.nan] * 2])
    def test_non_finite_or_zero_maxima_drift_zero(self, vals):
        assert verify._stability(0.0, C=vals)[2] == 0.0


class TestDominance:
    def test_single_constant_sample(self):
        gp = GrandParams.power(2.0, 0.25, 1.0, max_points=10, ratio=0.7)
        sig = gp.eps_grid[2:8]
        rep = dominance_check(CIRC32, gp, sig, np.ones((1, 32)))
        assert rep.passed
        # oracle: recompute the constant from the norm tables directly
        from morreylab.funcnorm import phi_functional
        f = np.ones(32)
        best = 0.0
        for i, s1 in enumerate(sig):
            for s2 in sig[i + 1:]:
                best = max(best, phi_functional(CIRC32, f, gp, s2)
                           * gp.phi(s1) ** (1 / (2.0 - s1))
                           / phi_functional(CIRC32, f, gp, s1))
        assert rep.empirical["C_emp"] == pytest.approx(best, rel=1e-12)

    def test_homogeneity_invariance(self):
        gp = GrandParams.power(2.0, 0.25, 1.0, max_points=10, ratio=0.7)
        sig = gp.eps_grid[2:8]
        corp = small_corpus(CIRC32, size=8)
        r1 = dominance_check(CIRC32, gp, sig, corp.samples)
        r2 = dominance_check(CIRC32, gp, sig, 3.0 * corp.samples)
        assert r1.empirical["C_emp"] == pytest.approx(r2.empirical["C_emp"],
                                                      rel=1e-12)

    def test_sigma_pairs_strictly_ordered(self):
        gp = GrandParams.power(2.0, 0.25, 1.0, max_points=10, ratio=0.7)
        with pytest.raises(ValueError):
            dominance_check(CIRC32, gp, gp.eps_grid[:1], np.ones((1, 32)))

    def test_sigma_grid_must_ascend(self):
        # a descending grid would measure Phi(f,s)/Phi(f,sigma) for sigma > s
        gp = GrandParams.power(2.0, 0.25, 1.0, max_points=10, ratio=0.7)
        rows = make_corpus(CIRC32, "mixed", 12, 0).samples
        sig = gp.eps_grid[1:7]
        assert dominance_check(CIRC32, gp, sig, rows).empirical["C_emp"] \
            == pytest.approx(0.4453, abs=5e-5)
        for bad in (sig[::-1], np.r_[sig[:3], sig[2:]]):
            with pytest.raises(ValueError, match="strictly increasing"):
                dominance_check(CIRC32, gp, bad, rows)

    def test_stability_on_corpus(self):
        gp = GrandParams.power(2.0, 0.25, 1.0, max_points=10, ratio=0.7)
        sig = gp.eps_grid[2:8]
        rep = dominance_check(CIRC32, gp, sig, small_corpus(CIRC32, 40).samples)
        assert rep.passed, rep.empirical


class TestEmbeddingChain:
    def test_constant_function_ordered(self):
        rep = embedding_chain_check(CIRC32, 2.0, 1.0, 2.0, 0.5, np.ones((1, 32)))
        assert rep.passed
        assert rep.empirical["C_grand_vs_lp"] <= 1.0 + 1e-12

    def test_zero_function_trivial(self):
        rep = embedding_chain_check(CIRC32, 2.0, 1.0, 2.0, 0.5, np.zeros((1, 32)))
        assert rep.passed

    def test_theta_equal_reduces_to_equality(self):
        grid = default_eps_grid(0.999, ratio=0.8)
        corp = small_corpus(CIRC32, 10)
        from morreylab.funcnorm import grand_lebesgue_norm
        for f in corp.samples:
            a = grand_lebesgue_norm(CIRC32, f, 2.0, 1.3, grid)
            b = grand_lebesgue_norm(CIRC32, f, 2.0, 1.3, grid)
            assert a == b

    def test_corpus_ordering_p2(self):
        rep = embedding_chain_check(CIRC32, 2.0, 1.0, 2.0, 0.5,
                                    small_corpus(CIRC32, 60).samples)
        assert rep.passed and rep.empirical["violations"] == 0

    def test_p3_reports_without_asserting(self):
        rep = embedding_chain_check(CIRC32, 3.0, 1.0, 2.0, 0.5,
                                    small_corpus(CIRC32, 10).samples)
        assert not rep.details["exact_ordering_asserted"]
        assert rep.passed


class TestReductionTransfer:
    def test_identity_case(self):
        gp = GrandParams.power(2.0, 0.25, 1.0, max_points=10, ratio=0.7)
        sigma = float(gp.eps_grid[-2])
        ident = lambda f: np.asarray(f, dtype=float)
        rep = reduction_transfer_check(CIRC32, ident, ident, gp, gp, sigma,
                                       small_corpus(CIRC32, 12).samples,
                                       u_name="Id", lam_name="Id")
        assert rep.passed
        assert rep.empirical["sup_C_eps"] == pytest.approx(1.0, rel=1e-12)
        assert rep.empirical["grand_ratio"] == pytest.approx(1.0, rel=1e-12)

    def test_maximal_transfer(self):
        gp = GrandParams.power(2.0, 0.25, 1.0, max_points=10, ratio=0.7)
        sigma = float(gp.eps_grid[-2])
        rep = reduction_transfer_check(
            CIRC32, lambda f: maximal(CIRC32, f), lambda f: np.asarray(f, float),
            gp, gp, sigma, small_corpus(CIRC32, 16).samples, u_name="M",
            lam_name="Id")
        assert rep.passed
        assert rep.empirical["grand_ratio"] <= rep.empirical["bound"] * (1 + 1e-9)

    def test_cz_transfer(self):
        gp = GrandParams.power(2.0, 0.25, 1.0, max_points=10, ratio=0.7)
        sigma = float(gp.eps_grid[-2])
        op = CZOperator(CIRC32, conjugate_kernel(CIRC32))
        rep = reduction_transfer_check(
            CIRC32, op, lambda f: np.asarray(f, float), gp, gp, sigma,
            small_corpus(CIRC32, 16).samples, u_name="T", lam_name="Id")
        assert rep.passed

    def test_hypothesis_failure_zero_denominator(self):
        gp = GrandParams.power(2.0, 0.25, 1.0, max_points=10, ratio=0.7)
        sigma = float(gp.eps_grid[-2])
        zero = lambda f: np.zeros_like(np.asarray(f, dtype=float))
        with pytest.raises(HypothesisFailed):
            reduction_transfer_check(CIRC32, lambda f: np.asarray(f, float),
                                     zero, gp, gp, sigma,
                                     small_corpus(CIRC32, 6).samples)

    def test_per_eps_bound_witness_is_first_failing_sample(self):
        gp = GrandParams.power(2.0, 0.25, 1.0, max_points=10, ratio=0.7)
        sigma = float(gp.eps_grid[-2])
        ident = lambda f: np.asarray(f, dtype=float)
        # Lambda f vanishes from sample 4 on, where Uf = f does not: every eps
        # below sigma fails there, so the witness is sample 4 at the first eps
        vanish = lambda fs: np.where(np.arange(len(fs))[:, None] >= 4, 0.0, fs)
        samples = small_corpus(CIRC32, 8).samples
        for check in (reduction_transfer_check, reference_reduction_empirical):
            with pytest.raises(HypothesisFailed) as info:
                check(CIRC32, ident, vanish, gp, gp, sigma, samples)
            assert info.value.which == "per-eps-bound"
            assert info.value.witness == (float(GrandNormEvaluator(CIRC32, gp).grid[0]), 4)


class TestCommutatorSuite:
    def test_two_atom_closed_forms(self):
        sp = build_from_table([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])
        alpha = 0.4  # q = 1/(1/2 - 0.4) = 10
        exps = AuxExponents.derive(2.0, alpha, 0.0, theta1=1.0, delta=0.25)
        grid = np.geomspace(1e-3, 0.24, 6)
        gp_in = GrandParams.tabulated(2.0, 0.0,
                                      TabulatedFunction.power(1.0, grid),
                                      exps.a1, grid)
        gp_out = GrandParams.tabulated(exps.q, 0.0, psi_table(exps, grid),
                                       exps.a2, grid)
        rep = commutator_suite(sp, "potential", np.array([[1.0, 1.0]]),
                               np.array([[0.0, 1.0]]), params_in=gp_in,
                               params_out=gp_out, exps=exps, s=1.5)
        # [b, I^a]f = (-(1/2)^(1-a), +(1/2)^(1-a)); M of it is constant
        # (1/2)^(1-a); with ||b|| = 1/2 and ||f||_{2,0} = 1 the Morrey ratio
        # is 2^(1-a) = 2^0.6
        assert rep.empirical["morrey_C"] == pytest.approx(2.0 ** 0.6, abs=1e-12)
        assert rep.empirical["pointwise_domination"]
        assert rep.passed

    def test_constant_b_degenerates(self):
        sp = CIRC32
        gp = GrandParams.power(2.0, 0.25, 1.0, max_points=8, ratio=0.7)
        with pytest.raises(AllSamplesDegenerate):
            commutator_suite(sp, "cz", small_corpus(sp, 4).samples,
                             np.ones((2, 32)), params_in=gp,
                             operator=CZOperator(sp, conjugate_kernel(sp)))

    def test_cz_suite_runs_and_stabilizes(self):
        gp = GrandParams.power(2.0, 0.25, 1.0, max_points=8, ratio=0.7)
        bs = make_corpus(CIRC32, "bmo", 8, 3)
        rep = commutator_suite(CIRC32, "cz", small_corpus(CIRC32, 48).samples,
                               bs.samples, params_in=gp,
                               operator=CZOperator(CIRC32, conjugate_kernel(CIRC32)), s=1.5)
        assert rep.passed, rep.empirical
        assert math.isfinite(rep.empirical["pointwise_C"])
        assert rep.empirical["pointwise_C"] > 0

    def test_bmo_norms_computed_once_per_space(self, monkeypatch):
        sp = build_uniform_grid(32, 1, "circle")
        calls, real = [], verify.bmo_norm
        monkeypatch.setattr(verify, "bmo_norm",
                            lambda space, b, *a: calls.append(b.tobytes()) or real(space, b, *a))
        fc, bc = small_corpus(sp, 8, 5), make_corpus(sp, "bmo", 4, 6)
        checks = build_calibrated_checks(sp, n_eps=6)
        checks["cz_commutator_grand"].ratios(fc, bc)
        checks["potential_commutator_morrey"].ratios(small_corpus(sp, 6, 7), bc)
        exps, gp_in, gp_out = verify._potential_bundles(2.0, 0.25, 0.25, 1.0, 0.5, 0.05, 6)
        commutator_suite(sp, "cz", fc.samples, bc.samples, params_in=gp_in,
                         operator=CZOperator(sp, conjugate_kernel(sp)))
        commutator_suite(sp, "potential", fc.samples, bc.samples, params_in=gp_in,
                         params_out=gp_out, exps=exps)
        assert sorted(calls) == sorted(b.tobytes() for b in bc)
        other = build_uniform_grid(32, 1, "circle")  # an equal but separate space
        commutator_suite(other, "cz", fc.samples, bc.samples, params_in=gp_in,
                         operator=CZOperator(other, conjugate_kernel(other)))
        assert len(calls) == 2 * len(bc)


class TestFeffermanStein:
    def test_mean_zero_corpus_stable(self):
        corp = make_corpus(CIRC32, "mean_zero_mixed", 60, 5)
        rep = fefferman_stein_check(CIRC32, 2.0, 0.25, corp.samples)
        assert rep.passed, rep.empirical
        assert rep.empirical["C_emp"] > 0
        assert "constants excluded" in rep.details["note"]


class TestHalfCorpusConstants:
    """Each *_half field equals the full-corpus constant of the same check
    run on the first half of the corpus."""

    def test_dominance(self):
        gp = GrandParams.power(2.0, 0.25, 1.0, max_points=10, ratio=0.7)
        rows = small_corpus(CIRC32, 25).samples
        rep = dominance_check(CIRC32, gp, gp.eps_grid[2:8], rows)
        half = dominance_check(CIRC32, gp, gp.eps_grid[2:8], rows[:12])
        assert rep.empirical["C_half_corpus"] == half.empirical["C_emp"]

    def test_fefferman_stein(self):
        rows = make_corpus(CIRC32, "mean_zero_mixed", 21, 5).samples
        rep = fefferman_stein_check(CIRC32, 2.0, 0.25, rows)
        half = fefferman_stein_check(CIRC32, 2.0, 0.25, rows[:10])
        assert rep.empirical["C_half_corpus"] == half.empirical["C_emp"]

    def test_commutator_cz(self):
        gp = GrandParams.power(2.0, 0.25, 1.0, max_points=8, ratio=0.7)
        bs = make_corpus(CIRC32, "bmo", 5, 3).samples
        rows = small_corpus(CIRC32, 17).samples
        kw = dict(params_in=gp, operator=CZOperator(CIRC32, conjugate_kernel(CIRC32)), s=1.5)
        rep = commutator_suite(CIRC32, "cz", rows, bs, **kw)
        half = commutator_suite(CIRC32, "cz", rows[:8], bs, **kw)
        for key in ("pointwise_C", "grand_C"):
            assert rep.empirical[key + "_half"] == half.empirical[key]

    def test_commutator_potential(self):
        exps = AuxExponents.derive(2.0, 0.25, 0.25, theta1=1.0, delta=0.5)
        grid = default_eps_grid(0.4, ratio=0.7, max_points=6)
        gp_in = GrandParams.tabulated(2.0, 0.25, TabulatedFunction.power(1.0, grid),
                                      exps.a1, grid)
        gp_out = GrandParams.tabulated(exps.q, 0.25, psi_table(exps, grid), exps.a2, grid)
        bs = make_corpus(CIRC32, "bmo", 5, 3).samples
        rows = small_corpus(CIRC32, 15).samples
        kw = dict(params_in=gp_in, params_out=gp_out, exps=exps, s=1.5)
        rep = commutator_suite(CIRC32, "potential", rows, bs, **kw)
        half = commutator_suite(CIRC32, "potential", rows[:7], bs, **kw)
        for key in ("morrey_C", "grand_C"):
            assert rep.empirical[key + "_half"] == half.empirical[key]


class TestStructuredReports:
    def test_eta_identity_report(self):
        rep = eta_identity_report(200, 0)
        assert rep.passed and rep.empirical["max_residual"] <= 1e-12

    def test_aux_function_report(self):
        rep = aux_function_report()
        assert rep.passed
        assert rep.empirical["psi_loglog_slope"] == pytest.approx(
            rep.empirical["slope_target"], abs=0.05)


@pytest.fixture(scope="module")
def setup():
    checks = build_calibrated_checks(CIRC32, n_eps=8)
    frozen = make_corpus(CIRC32, "mixed", 80, 11)
    fresh = make_corpus(CIRC32, "mixed", 40, 12)
    bs = make_corpus(CIRC32, "bmo", 8, 13)
    return checks, frozen, fresh, bs


class TestCalibration:

    def test_evaluators_built_on_first_use(self, monkeypatch):
        built = []
        init = GrandNormEvaluator.__init__

        def counting_init(ev, space, params):
            built.append(params)
            init(ev, space, params)

        monkeypatch.setattr(GrandNormEvaluator, "__init__", counting_init)
        checks = build_calibrated_checks(CIRC32, n_eps=8)
        assert built == []
        fc, bs = small_corpus(CIRC32, 4), make_corpus(CIRC32, "bmo", 2, 1)
        for name, total in (("maximal_grand", 1), ("cz_grand", 1),
                            ("cz_commutator_grand", 1), ("potential_commutator_grand", 3)):
            checks[name].ratios(fc, bs)
            checks[name].ratios(fc, bs)
            assert len(built) == total, name
        # the reductions compare a bundle with itself: one evaluator each
        table = verify._check_table(merge_config({"space": {"kind": "circle", "n": 32},
                                                  "corpus": {"size": 8}}))
        for name in ("reduction_maximal", "reduction_cz"):
            del built[:]
            table[name]()
            assert len(built) == 1, name

    def test_potential_and_doubling_built_on_first_use(self, monkeypatch):
        built = {"potential": 0, "doubling": 0}
        init, doubling = PotentialOperator.__init__, verify.doubling_constant

        def counting_init(op, space, alpha):
            built["potential"] += 1
            init(op, space, alpha)

        def counting_doubling(space):
            built["doubling"] += 1
            return doubling(space)

        monkeypatch.setattr(PotentialOperator, "__init__", counting_init)
        monkeypatch.setattr(verify, "doubling_constant", counting_doubling)
        checks = build_calibrated_checks(CIRC32, n_eps=8)
        assert built == {"potential": 0, "doubling": 0}
        fc, bs = small_corpus(CIRC32, 4), make_corpus(CIRC32, "bmo", 2, 1)
        for name in ("maximal_grand", "cz_grand"):
            checks[name].ratios(fc, bs)
        assert built == {"potential": 0, "doubling": 0}
        # only three formulas read the doubling constant, and only two checks
        # apply the potential operator
        for name in ("maximal_morrey", "maximal_s_morrey"):
            calibrate(checks[name], fc, bs)
            assert built == {"potential": 0, "doubling": 1}, name
        for name in ("potential_commutator_grand", "potential_commutator_morrey"):
            calibrate(checks[name], fc, bs)
            assert built == {"potential": 1, "doubling": 1}, name

    def test_setup_builds_no_square_table(self):
        sp = build_uniform_grid(256, 1, "circle")
        sp.balls  # the ball family is built outside the trace
        tracemalloc.start()
        try:
            build_calibrated_checks(sp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the open measure and the potential matrix are one N x N table each
        assert peak < sp.n * sp.n * 8, peak

    def test_all_samples_degenerate(self, setup):
        checks = setup[0]
        zeros = Corpus(np.zeros((4, 32)), "zeros", 0)
        with pytest.raises(AllSamplesDegenerate):
            calibrate(checks["maximal_morrey"], zeros, None)

    def test_all_checks_calibrate_and_pass(self, setup):
        checks, frozen, fresh, bs = setup
        for name, chk in checks.items():
            cal = calibrate(chk, frozen, bs)
            rep = calibrated_regression(chk, cal, fresh, bs, headroom=1.5)
            assert rep.passed, (name, rep.empirical)

    def test_formula_value_matches_frozen_ratio(self, setup):
        checks, frozen, fresh, bs = setup
        chk = checks["maximal_morrey"]
        cal = calibrate(chk, frozen, bs)
        # affine formulas calibrate so the bound equals the frozen maximum
        assert chk.formula(cal["absolute_constant"]) == pytest.approx(
            max(cal["frozen_ratio"], chk.formula(0.0)), rel=1e-12)

    def test_scaling_invariance_of_ratios(self, setup):
        checks, frozen, fresh, bs = setup
        chk = checks["cz_grand"]
        r1 = chk.ratios(fresh, bs)
        scaled = make_corpus(CIRC32, "mixed", 40, 12)
        r2 = chk.ratios(type(scaled)(5.0 * scaled.samples, scaled.descriptor,
                                     scaled.seed), bs)
        assert np.allclose(r1, r2, rtol=1e-11, equal_nan=True)


class TestSuiteRunner:
    CFG = {
        "space": {"kind": "circle", "n": 24},
        "corpus": {"family": "mixed", "size": 20, "seed": 3},
        "calibration": {"family": "mixed", "size": 30, "seed": 4, "headroom": 1.5},
        "bmo_corpus": {"family": "bmo", "size": 6, "seed": 5},
        "params": {"n_eps": 8},
        "eta_draws": 50,
        "checks": ["eta_identity", "aux_functions", "dominance",
                   "embedding_chain", "maximal_morrey", "cz_grand",
                   "fefferman_stein"],
    }

    def test_small_suite_passes(self):
        reports = run_suite(self.CFG)
        assert len(reports) == len(self.CFG["checks"])
        assert all(r.passed for r in reports), [
            (r.check, r.empirical) for r in reports if not r.passed]

    def test_empty_checks_rejected(self):
        cfg = dict(self.CFG, checks=[])
        with pytest.raises(ValueError):
            run_suite(cfg)

    def test_unknown_check_rejected(self):
        cfg = dict(self.CFG, checks=["nonsense"])
        with pytest.raises(ValueError):
            run_suite(cfg)

    def test_deterministic_json(self):
        a = reports_to_json(run_suite(self.CFG))
        b = reports_to_json(run_suite(self.CFG))
        assert a == b

    def test_booleans_stay_booleans_in_json(self):
        cfg = dict(self.CFG, checks=["embedding_chain", "commutator_potential"])
        text = reports_to_json(run_suite(cfg))
        assert '"exact_ordering_asserted": true' in text
        assert '"pointwise_domination": true' in text
        empirical = {r["check"]: r["empirical"] for r in json.loads(text)}
        assert empirical["commutator_potential"]["pointwise_domination"] is True
        assert empirical["embedding_chain"]["violations"] == 0

    def test_jsonable_keeps_bools_ints_and_floats_apart(self):
        out = verify._jsonable({"a": True, "b": np.bool_(False), "c": np.int64(3),
                                "d": [1, np.float64(0.5)], "e": np.array([True, False])})
        assert json.dumps(out) == \
            '{"a": true, "b": false, "c": 3, "d": [1, 0.5], "e": [true, false]}'

    def test_csv_summary_shape(self):
        reports = run_suite(self.CFG)
        csv_text = reports_to_csv(reports)
        lines = csv_text.strip().splitlines()
        assert len(lines) == len(reports) + 1
        assert lines[0].startswith("check,passed")

    def test_csv_primary_column_is_each_checks_headline_constant(self):
        # reports_to_csv takes the first numeric empirical value, so the key
        # order of each report decides the column; JSON sorts its keys
        primary = {"dominance": "C_emp", "fefferman_stein": "C_emp",
                   "commutator_cz": "pointwise_C", "commutator_potential": "morrey_C",
                   "reduction_transfer[M]": "sup_C_eps", "reduction_transfer[T]": "sup_C_eps"}
        reports = run_suite({**self.CFG, "checks": [
            "dominance", "fefferman_stein", "commutator_cz", "commutator_potential",
            "reduction_maximal", "reduction_cz"]})
        rows = list(csv.DictReader(io.StringIO(reports_to_csv(reports))))
        assert [row["check"] for row in rows] == list(primary)
        for rep, row in zip(reports, rows):
            key = primary[rep.check]
            assert next(iter(rep.empirical)) == key, rep.check
            assert row["primary_constant"] == repr(float(rep.empirical[key])), rep.check

    def test_csv_cloud_and_its_json_table_give_equal_reports(self, tmp_path):
        rng = np.random.default_rng(24)
        points, weight = rng.random((24, 2)), rng.uniform(0.5, 1.5, 24) / 24
        csv_path, json_path = tmp_path / "cloud.csv", tmp_path / "cloud.json"
        csv_path.write_text("x,y,weight\n" + "".join(
            f"{x!r},{y!r},{w!r}\n" for (x, y), w in zip(points.tolist(), weight.tolist())))
        dump_space_json(space_from_points(points, weight), json_path)
        cfg = dict(self.CFG, checks=["dominance", "maximal_morrey", "fefferman_stein"])
        texts = [reports_to_json(run_suite(dict(cfg, space={"kind": "file", "path": str(p)})))
                 for p in (csv_path, json_path)]
        assert texts[0] == texts[1]

    def test_runs_on_space_without_circle_angles(self):
        reports = run_suite({"space": {"kind": "grid2d", "n": 4},
                             "checks": ["fefferman_stein"], "corpus": {"size": 8}})
        assert [r.check for r in reports] == ["fefferman_stein"]

    @pytest.mark.parametrize("user, key", [
        ({"parms": {}}, "parms"),
        ({"params": {"lamda": 0.3}}, "lamda"),
        ({"space": {"kind": "circle", "size": 8}}, "size"),
        ({"bmo_corpus": {"sede": 1}}, "sede"),
    ])
    def test_merge_config_rejects_unknown_keys(self, user, key):
        with pytest.raises(ValueError, match=key):
            merge_config(user)

    def test_merge_config_accepts_every_known_key(self):
        user = {
            "space": {"kind": "file", "n": 8, "path": "space.json"},
            "corpus": {"family": "mixed", "size": 5, "seed": 1},
            "calibration": {"family": "mixed", "size": 5, "seed": 2, "headroom": 1.5},
            "bmo_corpus": {"family": "bmo", "size": 4, "seed": 3},
            "params": {"lambda": 0.3}, "tolerances": {"fs_stability": 0.2},
            "eta_draws": 10, "seed": 4, "checks": ["eta_identity"],
        }
        cfg = merge_config(user)
        assert cfg["space"]["path"] == "space.json" and cfg["params"]["lambda"] == 0.3

    def test_merge_config_nested(self):
        cfg = merge_config({"params": {"p": 3.0}})
        assert cfg["params"]["p"] == 3.0
        assert cfg["params"]["theta"] == 1.0

    @pytest.mark.parametrize("section, merged, n", [
        ({"kind": "grid"}, {"kind": "grid"}, 64),
        ({"kind": "grid2d"}, {"kind": "grid2d"}, 16 * 16),
        ({"kind": "circle"}, {"kind": "circle"}, 256),
        ({"n": 128}, {"kind": "circle", "n": 128}, 128),
        ({"kind": "grid", "n": 12}, {"kind": "grid", "n": 12}, 12),
    ])
    def test_space_kind_gets_its_own_default_size(self, section, merged, n):
        space = merge_config({"space": section})["space"]
        # checked before building: merged over the default circle's n = 256, a
        # grid2d section would ask for 256 x 256 atoms
        assert space == merged
        assert verify.build_space(space).n == n


class TestCheckTable:
    SMALL = {"space": {"kind": "circle", "n": 32}, "corpus": {"size": 16},
             "calibration": {"size": 16}, "bmo_corpus": {"size": 4}}

    def test_unknown_name_rejected_before_any_check_runs(self, monkeypatch):
        calls = []
        real = verify.eta_identity_report
        monkeypatch.setattr(verify, "eta_identity_report",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        cfg = dict(self.SMALL, checks=["eta_identity", "cz_morrey_p2_5"])
        with pytest.raises(ValueError, match="cz_morrey_p2_5"):
            run_suite(cfg)
        assert calls == []

    def test_default_checks_name_each_entry_once(self):
        table = verify._check_table(merge_config({"space": {"kind": "circle", "n": 16}}))
        checks = DEFAULT_CONFIG["checks"]
        assert len(set(checks)) == len(checks)
        assert sorted(checks) == sorted(table)

    def test_cz_morrey_names_follow_cz_ps(self):
        table = verify._check_table(merge_config({"space": {"kind": "circle", "n": 16},
                                                  "params": {"cz_ps": [2.5]}}))
        assert [n for n in table if n.startswith("cz_morrey")] == ["cz_morrey_p2_5"]

    @pytest.mark.parametrize("n_eps", [3, 6])
    def test_small_eps_grids_give_reports(self, n_eps):
        cfg = dict(self.SMALL, params={"n_eps": n_eps},
                   checks=["dominance", "reduction_maximal"])
        reports = run_suite(cfg)
        assert [r.check for r in reports] == ["dominance", "reduction_transfer[M]"]
        assert len(reports[0].details["sigma_grid"]) == min(n_eps - 1, 6)

    def test_default_dominance_sigmas_unchanged(self):
        # at 16 eps points the smallest one is never among the six sigmas
        gp = GrandParams.power(2.0, 0.25, 1.0, max_points=16, ratio=0.7)
        table = verify._check_table(merge_config({"space": {"kind": "circle", "n": 16},
                                                  "corpus": {"size": 4}}))
        rep = table["dominance"]()
        expected = gp.eps_grid[gp.eps_grid < gp.smax * 0.95][-6:]
        assert rep.details["sigma_grid"] == expected.tolist()

    def test_one_cz_operator_serves_both_cz_checks(self, monkeypatch):
        built, init = [], CZOperator.__init__
        monkeypatch.setattr(CZOperator, "__init__",
                            lambda op, space, kernel: built.append(space) or init(op, space, kernel))
        table = verify._check_table(merge_config(self.SMALL))
        assert built == []
        for name in ("reduction_cz", "commutator_cz"):
            table[name]()
        assert len(built) == 1

    def test_zero_slopes_match_zero_tables(self):
        exps, gp_in, gp_out = verify._potential_bundles(2.0, 0.25, 0.25, 1.0, 0.5, 0.0, 16)
        ref = AuxExponents.derive(2.0, 0.25, 0.25, theta1=1.0, delta=0.5)
        assert np.array_equal(exps.a1.xs, ref.a1.xs)
        assert np.array_equal(exps.a1.ys, ref.a1.ys)
        grid_in = default_eps_grid(min(1.0, float(ref.a1.xs[-1])) * 0.999,
                                   ratio=0.7, max_points=16)
        assert np.array_equal(gp_in.eps_grid, grid_in)
        assert np.array_equal(gp_out.phi.ys, psi_table(ref, gp_out.eps_grid).ys)
        assert (gp_in.smax, gp_out.smax) == (1.0, exps.q - 1.0)
        linear = GrandParams.power(2.0, 0.25, 1.0, max_points=16, ratio=0.7,
                                   A=TabulatedFunction.linear(0.0, np.linspace(0, 1, 33)[1:]))
        zero = GrandParams.power(2.0, 0.25, 1.0, max_points=16, ratio=0.7)
        assert np.array_equal(linear.eps_grid, zero.eps_grid) and linear.smax == zero.smax


def reference_plain_ratios(op, norm_num, norm_den):
    """Per-sample loop of the calibrated ratios, with scalar norms."""
    def run(fc, bc):
        out = np.full(len(fc), np.nan)
        for i, f in enumerate(fc):
            den = norm_den(f)
            if den > 0:
                out[i] = norm_num(op(f)) / den
        return out
    return run


def reference_commutator_ratios(op, norm_num, norm_den, post=None):
    """Per-sample loop of the calibrated commutator ratios, with scalar norms."""
    def run(fc, bc):
        bmo_vals = [bmo_norm(CIRC32, b, "mean") for b in bc]
        out = np.full(len(fc), np.nan)
        for i, f in enumerate(fc):
            b = bc.samples[i % len(bc)]
            den = bmo_vals[i % len(bc)] * norm_den(f)
            if den <= 0:
                continue
            g = commutator(b, op, f)
            if post is not None:
                g = post(g)
            out[i] = norm_num(g) / den
        return out
    return run


def reference_commutator_values(kind, fs, bs, params_in, params_out=None, exps=None, s=1.5):
    """Per-pair loop of commutator_suite on CIRC32: the pointwise (cz) or
    Morrey (potential) ratio and the grand ratio of each pair, NaN if excluded.
    A norm ratio is excluded where ||b||_BMO norm(f) is 0, and a pointwise
    ratio above 1e14 counts as 0/0."""
    ev_in = GrandNormEvaluator(CIRC32, params_in)
    ev_out = ev_in if params_out is None else GrandNormEvaluator(CIRC32, params_out)
    op = (CZOperator(CIRC32, conjugate_kernel(CIRC32)) if kind == "cz"
          else PotentialOperator(CIRC32, exps.alpha))
    first, grand = [], []
    for i, f in enumerate(fs):
        b = bs[i % len(bs)]
        nb = bmo_norm(CIRC32, b, "mean")
        if nb <= 0:
            first.append(0.0 if kind == "cz" else np.nan)
            grand.append(np.nan)
            continue
        g = commutator(b, op, f)
        if kind == "cz":
            den = nb * (maximal_s(CIRC32, op(f), s) + maximal_s(CIRC32, f, s))
            num = sharp_maximal(CIRC32, g)
            ok = den > 1e-14 * np.abs(num)
            first.append(float((num[ok] / den[ok]).max()) if ok.any() else 0.0)
            den_g = nb * ev_in(f)
            grand.append(ev_out(g) / den_g if den_g > 0 else np.nan)
        else:
            mg = maximal(CIRC32, g)
            den_m = nb * morrey_norm(CIRC32, f, exps.p, exps.lam)
            first.append(morrey_norm(CIRC32, mg, exps.q, exps.lam) / den_m
                         if den_m > 0 else np.nan)
            den_g = nb * ev_in(f)
            grand.append(ev_out(mg) / den_g if den_g > 0 else np.nan)
    return first, grand


def with_zero_f_and_constant_b(size=12):
    fs = small_corpus(CIRC32, size, 41).samples.copy()
    fs[2] = 0.0
    bs = make_corpus(CIRC32, "bmo", 4, 42).samples.copy()
    bs[1] = 2.5  # BMO norm 0: every fourth pair is excluded
    return Corpus(fs, "mixed+zero", 41), Corpus(bs, "bmo+constant", 42)


def one_row_at_a_time(monkeypatch):
    """Make every evaluator sweep a stack one input per call, for vectors and for norms:
    a norm call sweeps its own columns, not through morrey_vector."""
    vector, norm = GrandNormEvaluator.morrey_vector, GrandNormEvaluator.__call__

    def vectors(ev, f):
        if np.ndim(f) == 1:
            return vector(ev, f)
        return np.array([vector(ev, r) for r in f]).reshape(len(f), ev.pe.size)

    def norms(ev, f):
        return norm(ev, f) if np.ndim(f) == 1 else np.array([norm(ev, r) for r in f])

    monkeypatch.setattr(GrandNormEvaluator, "morrey_vector", vectors)
    monkeypatch.setattr(GrandNormEvaluator, "__call__", norms)


class TestBatchedRatios:
    """Norms evaluated once per corpus give the per-sample results exactly."""

    def test_calibrated_ratios_match_per_sample_loops(self):
        p, lam, theta, alpha, s, n_eps = 2.0, 0.25, 1.0, 0.25, 1.5, 8
        checks = build_calibrated_checks(CIRC32, n_eps=n_eps)
        gp = GrandParams.power(p, lam, theta, max_points=n_eps, ratio=0.7,
                               A=TabulatedFunction.linear(0.5, np.linspace(0.0, p - 1.0, 33)[1:]))
        exps, gp_in, gp_out = verify._potential_bundles(p, alpha, lam, theta, 0.5, 0.05, n_eps)
        ev, ev_in, ev_out = (GrandNormEvaluator(CIRC32, g) for g in (gp, gp_in, gp_out))
        cz = CZOperator(CIRC32, conjugate_kernel(CIRC32))
        pot = PotentialOperator(CIRC32, alpha)
        m = lambda f: maximal(CIRC32, f)
        morrey = lambda r: lambda g: morrey_norm(CIRC32, g, r, lam)
        plain, comm = reference_plain_ratios, reference_commutator_ratios
        reference = {
            "maximal_morrey": plain(m, morrey(p), morrey(p)),
            "maximal_s_morrey": plain(lambda f: maximal_s(CIRC32, f, s), morrey(p), morrey(p)),
            "cz_morrey_p1_5": plain(cz, morrey(1.5), morrey(1.5)),
            "cz_morrey_p3_0": plain(cz, morrey(3.0), morrey(3.0)),
            "potential_commutator_morrey": comm(pot, morrey(exps.q), morrey(p), post=m),
            "maximal_grand": plain(m, ev, ev),
            "cz_grand": plain(cz, ev, ev),
            "cz_commutator_grand": comm(cz, ev, ev),
            "potential_commutator_grand": comm(pot, ev_out, ev_in, post=m),
        }
        assert sorted(reference) == sorted(checks)
        fc, bc = with_zero_f_and_constant_b()
        for name, chk in checks.items():
            got = chk.ratios(fc, bc if chk.needs_b else None)
            want = reference[name](fc, bc)
            assert np.isnan(want[2]) and np.array_equal(got, want, equal_nan=True), name
            assert not chk.needs_b or np.isnan(want[1::4]).all(), name

    def test_commutator_suites_match_per_pair_loops(self):
        gp = GrandParams.power(2.0, 0.25, 1.0, max_points=8, ratio=0.7)
        exps, gp_in, gp_out = verify._potential_bundles(2.0, 0.25, 0.25, 1.0, 0.5, 0.05, 8)
        fc, bc = with_zero_f_and_constant_b(16)
        for kind, kw, keys, empty in (
                ("cz", dict(params_in=gp), ("pointwise_C", "grand_C"), 0.0),
                ("potential", dict(params_in=gp_in, params_out=gp_out, exps=exps),
                 ("morrey_C", "grand_C"), np.nan)):
            rep = commutator_suite(CIRC32, kind, fc.samples, bc.samples, s=1.5,
                                   operator=CZOperator(CIRC32, conjugate_kernel(CIRC32)), **kw)
            first, grand = reference_commutator_values(kind, fc.samples, bc.samples, **kw)
            for key, values, none in zip(keys, (first, grand), (empty, np.nan)):
                half, full = verify._half_and_full(values, none)
                assert (rep.empirical[key], rep.empirical[key + "_half"]) == (full, half), key

    def test_structural_reports_match_row_at_a_time_sweeps(self, monkeypatch):
        gp = GrandParams.power(2.0, 0.25, 1.0, max_points=8, ratio=0.7)
        exps, gp_in, gp_out = verify._potential_bundles(2.0, 0.25, 0.25, 1.0, 0.5, 0.05, 8)
        fc, bc = with_zero_f_and_constant_b(16)
        sigma = float(gp.eps_grid[-2])
        ident = lambda f: np.asarray(f, dtype=float)

        def reports():
            return reports_to_json([
                dominance_check(CIRC32, gp, gp.eps_grid[1:7], fc.samples),
                reduction_transfer_check(CIRC32, lambda f: maximal(CIRC32, f), ident, gp, gp,
                                         sigma, fc.samples, u_name="M", lam_name="Id"),
                reduction_transfer_check(CIRC32, CZOperator(CIRC32, conjugate_kernel(CIRC32)),
                                         ident, gp, gp, sigma, fc.samples, u_name="T",
                                         lam_name="Id"),
                commutator_suite(CIRC32, "cz", fc.samples, bc.samples, params_in=gp,
                                 operator=CZOperator(CIRC32, conjugate_kernel(CIRC32)), s=1.5),
                commutator_suite(CIRC32, "potential", fc.samples, bc.samples,
                                 params_in=gp_in, params_out=gp_out, exps=exps, s=1.5),
            ]).encode()

        batched = reports()
        CIRC32.balls.memo.clear()  # so that the row-wise run sweeps every input again
        one_row_at_a_time(monkeypatch)
        assert reports() == batched


def reference_fefferman_stein_ratios(space, p, lam, samples):
    """Per-sample loop of fefferman_stein_check, with one-input norms."""
    w, mu = space.weight, space.total_measure
    out = []
    for f in samples:
        f0 = f - float(f @ w) / mu
        den = morrey_norm(space, sharp_maximal(space, f0), p, lam)
        out.append(morrey_norm(space, maximal(space, f0), p, lam) / den if den > 0 else np.nan)
    return np.array(out)


def one_row_at_a_time_op(op):
    """The operator applied to each row of a stack by its own call."""
    return lambda fs: np.array([np.asarray(op(f)) for f in fs]).reshape(np.shape(fs))


class TestStackedCallSites:
    """Checks that pass whole corpora to the Morrey norms and operators
    report what per-sample loops report."""

    def test_fefferman_stein_matches_per_sample_loop(self):
        fc, _ = with_zero_f_and_constant_b(17)
        rep = fefferman_stein_check(CIRC32, 2.0, 0.25, fc.samples)
        ratios = reference_fefferman_stein_ratios(CIRC32, 2.0, 0.25, fc.samples)
        assert np.isnan(ratios[2])  # the zero sample is excluded
        half, full = verify._half_and_full(ratios, 0.0)
        assert (rep.empirical["C_emp"], rep.empirical["C_half_corpus"]) == (full, half)
        assert rep.worst_sample == int(np.flatnonzero(ratios == full)[0])

    def test_sharp_maximal_once_per_corpus(self, monkeypatch):
        calls = []

        def counting(space, f):
            calls.append(np.shape(f))
            return sharp_maximal(space, f)

        monkeypatch.setattr(verify, "sharp_maximal", counting)
        gp = GrandParams.power(2.0, 0.25, 1.0, max_points=8, ratio=0.7)
        for fc, bc in (with_zero_f_and_constant_b(16),
                       (small_corpus(CIRC32, 24, 7), make_corpus(CIRC32, "bmo", 5, 8))):
            rep = commutator_suite(CIRC32, "cz", fc.samples, bc.samples, params_in=gp,
                                   operator=CZOperator(CIRC32, conjugate_kernel(CIRC32)), s=1.5)
            first, _ = reference_commutator_values("cz", fc.samples, bc.samples, gp)
            half, full = verify._half_and_full(first, 0.0)
            assert (rep.empirical["pointwise_C"], rep.empirical["pointwise_C_half"]) == (full, half)
            fefferman_stein_check(CIRC32, 2.0, 0.25, fc.samples)
        # one stack per check and corpus: the CZ suite's holds the pairs whose b
        # is not constant, 12 of 16 and 19 of 24 (the bmo corpus's first b is)
        assert calls == [(12, 32), (16, 32), (19, 32), (24, 32)]

    def test_reduction_reports_match_per_row_operators(self):
        gp = GrandParams.power(2.0, 0.25, 1.0, max_points=8, ratio=0.7)
        fc, _ = with_zero_f_and_constant_b(16)
        sigma = float(gp.eps_grid[-2])
        ident = lambda f: np.asarray(f, dtype=float)
        cz = CZOperator(CIRC32, conjugate_kernel(CIRC32))
        for label, op in (("M", lambda f: maximal(CIRC32, f)), ("T", cz)):
            stacked, per_row = (reports_to_json([reduction_transfer_check(
                CIRC32, u, lam, gp, gp, sigma, fc.samples, u_name=label, lam_name="Id")]).encode()
                for u, lam in ((op, ident),
                               (one_row_at_a_time_op(op), one_row_at_a_time_op(ident))))
            assert stacked == per_row, label


def reference_dominance_constants(space, params, sigma_grid, samples):
    """Per-sample loop of dominance_check: each sample's largest
    Phi(f,s) phi(sigma)^(1/(p-sigma)) / Phi(f,sigma) over its sigma pairs."""
    sig = np.asarray(sigma_grid, dtype=float)
    sig = sig[(sig > 0) & (sig < params.smax)]
    ev = GrandNormEvaluator(space, params)
    cut = np.searchsorted(ev.grid, sig, side="left")
    sig_w = params.phi(sig) ** (1.0 / (params.p - sig))
    out = []
    for f in samples:
        best = 0.0
        phis = np.maximum.accumulate(ev.weighted_vector(f))[cut - 1]
        if phis[-1] > 0:
            for i in range(sig.size - 1):
                if phis[i] > 0:
                    best = max(best, float((phis[i + 1:] * sig_w[i] / phis[i]).max()))
        out.append(best)
    return out


def reference_reduction_empirical(space, U, Lam, params_in, params_out, sigma, samples):
    """Per-sample loop of reduction_transfer_check with one-input sweeps: its
    empirical dict and worst sample, or its HypothesisFailed."""
    p, q = params_in.p, params_out.p
    ev_in, ev_out = GrandNormEvaluator(space, params_in), GrandNormEvaluator(space, params_out)
    eps_used = ev_in.grid[ev_in.grid < sigma]
    cut = eps_used.size
    c_eps, grand_ratio, c0, worst = np.zeros(cut), 0.0, 0.0, None
    psig = params_out.phi(sigma) ** (1.0 / (q - sigma))
    rows = np.asarray(samples, dtype=float).reshape(len(samples), space.n)
    for i, (lf, uf) in enumerate(zip(Lam(rows), U(rows))):
        mv_in, mv_out = ev_in.morrey_vector(lf), ev_out.morrey_vector(uf)
        num, den = mv_out[:cut], mv_in[:cut]
        dead = den <= 0
        if np.any(dead & (num > 0)):
            k = int(np.flatnonzero(dead & (num > 0))[0])
            raise HypothesisFailed("per-eps-bound", (float(eps_used[k]), i))
        c_eps[~dead] = np.maximum(c_eps[~dead], num[~dead] / den[~dead])
        w_in = np.maximum.accumulate(ev_in.phi_pow * mv_in)
        w_out = np.maximum.accumulate(ev_out.phi_pow * mv_out)
        den_g, num_g = w_in[-1], w_out[-1]
        if den_g > 0 and num_g / den_g > grand_ratio:
            grand_ratio, worst = num_g / den_g, i
        if w_out[cut - 1] > 0:
            c0 = max(c0, num_g * psig / w_out[cut - 1])
    wr = params_out.phi(eps_used) ** (1.0 / (q - eps_used)) / \
        params_in.phi(eps_used) ** (1.0 / (p - eps_used))
    bound = float(c_eps.max()) * params_in.phi(sigma) ** (-1.0 / (p - sigma)) * c0
    return {"sup_C_eps": float(c_eps.max()), "weight_ratio_sup": float(wr.max()),
            "grand_ratio": grand_ratio, "C0_emp": c0, "bound": bound}, worst


def per_sample_corpora():
    """Corpora with a zero sample, an all-zero and an empty stack, and the
    spike and step families."""
    fc, bc = with_zero_f_and_constant_b(16)
    return {"zero_f": fc.samples, "constant_b": bc.samples,
            "all_zero": np.zeros((4, 32)), "empty": np.zeros((0, 32)),
            "spikes": make_corpus(CIRC32, "spikes", 24, 51).samples,
            "steps": make_corpus(CIRC32, "steps", 24, 52).samples}


class TestPerSampleReferences:
    """dominance_check and reduction_transfer_check reduce per-sample arrays;
    their reports equal those of the per-sample loops they replaced."""

    @pytest.mark.parametrize("name", sorted(per_sample_corpora()))
    def test_dominance_matches_per_sample_loop(self, name):
        samples = per_sample_corpora()[name]
        gp = GrandParams.power(2.0, 0.25, 1.0, max_points=10, ratio=0.7)
        sig = gp.eps_grid[1:7]
        rep = dominance_check(CIRC32, gp, sig, samples)
        consts = reference_dominance_constants(CIRC32, gp, sig, samples)
        full, half, drift = verify._stability(0.0, C=consts)
        assert rep.empirical == {"C_emp": full["C"], "C_half_corpus": half["C_half"],
                                 "drift": drift}
        assert rep.passed == (drift <= 0.05)

    @pytest.mark.parametrize("name", sorted(per_sample_corpora()))
    def test_reduction_matches_per_sample_loop(self, name):
        samples = per_sample_corpora()[name]
        gp = GrandParams.power(2.0, 0.25, 1.0, max_points=8, ratio=0.7)
        sigma = float(gp.eps_grid[-2])
        ident = lambda f: np.asarray(f, dtype=float)
        for op in (lambda f: maximal(CIRC32, f), CZOperator(CIRC32, conjugate_kernel(CIRC32))):
            rep = reduction_transfer_check(CIRC32, op, ident, gp, gp, sigma, samples)
            empirical, worst = reference_reduction_empirical(CIRC32, op, ident, gp, gp,
                                                             sigma, samples)
            assert (rep.empirical, rep.worst_sample) == (empirical, worst)
            assert rep.passed == (empirical["grand_ratio"] <= empirical["bound"] * (1 + 1e-9))


def reference_eta_residuals(n_draws, seed):
    """Per-draw loop of eta_identity_report: one rng.uniform call per
    number, one AuxExponents bundle and one scalar residual per draw."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_draws):
        p = float(rng.uniform(1.05, 5.0))
        lam = float(rng.uniform(0.0, 0.9))
        alpha = float(rng.uniform(0.05, 0.95)) * (1 - lam) / p
        theta1 = float(rng.uniform(0.5, 2.0))
        q = 1.0 / (1.0 / p - alpha / (1.0 - lam))
        cap = (1 - lam) ** 2 / (alpha * q**2)
        slope = float(rng.uniform(0.0, 0.9)) * cap
        a2 = TabulatedFunction.linear(slope, np.geomspace(1e-6, 4.0, 17))
        delta = float(rng.uniform(0.05, 0.5)) * min(q - 1.0, 1.0)
        exps = AuxExponents.derive(p, alpha, lam, theta1, a2=a2, delta=delta)
        eps = float(rng.uniform(0.05, 1.0)) * delta
        out.append(eta_identity_residual(eps, exps))
    return np.array(out)


def recorded_eta_residuals(monkeypatch, n_draws, seed):
    """eta_identity_report and the residuals its batches computed, in draw order."""
    batches = []

    def recording(eps, exps):
        r = eta_identity_residual(eps, exps)
        batches.append(np.ravel(r))
        return r

    monkeypatch.setattr(verify, "eta_identity_residual", recording)
    rep = eta_identity_report(n_draws, seed)
    return rep, np.concatenate(batches) if batches else np.zeros(0)


class TestEtaIdentityBatches:
    """The blocked eta draws against the per-draw loop."""

    @pytest.mark.parametrize("seed", range(5))
    def test_residuals_match_per_draw_loop(self, monkeypatch, seed):
        rep, got = recorded_eta_residuals(monkeypatch, 1000, seed)
        want = reference_eta_residuals(1000, seed)
        assert np.array_equal(got, want)
        assert rep.empirical["max_residual"] == want.max()
        assert rep.worst_sample == int(np.argmax(want))

    @pytest.mark.parametrize("n_draws", [1, 127, 128, 129])
    def test_block_edges(self, monkeypatch, n_draws):
        rep, got = recorded_eta_residuals(monkeypatch, n_draws, 3)
        assert np.array_equal(got, reference_eta_residuals(n_draws, 3))
        assert len(got) == n_draws

    @staticmethod
    def blockwise(values):
        """A stand-in residual that hands each block of draws its slice of `values`."""
        blocks = iter(np.split(values, range(verify._ETA_BLOCK, len(values), verify._ETA_BLOCK)))
        return lambda eps, exps: next(blocks).reshape(-1, 1)

    def test_worst_sample_is_first_maximum_or_none(self, monkeypatch):
        ties = np.zeros(300)
        ties[[40, 140, 299]] = 1e-16  # equal maxima in three blocks
        for values, worst, arg in ((ties, 1e-16, 40), (np.zeros(300), 0.0, None)):
            monkeypatch.setattr(verify, "eta_identity_residual", self.blockwise(values))
            rep = eta_identity_report(300, 0)
            assert (rep.empirical["max_residual"], rep.worst_sample) == (worst, arg)

    @pytest.mark.parametrize("nans", [[0], [41], [140], [299], [41, 140, 200]])
    def test_nan_residual_fails(self, monkeypatch, nans):
        values = np.full(300, 1e-16)
        values[[10, 200, 250]] = 2e-12  # finite residuals above the tolerance
        values[nans] = np.nan
        monkeypatch.setattr(verify, "eta_identity_residual", self.blockwise(values))
        rep = eta_identity_report(300, 0)
        assert math.isnan(rep.empirical["max_residual"])
        assert rep.worst_sample == nans[0] and not rep.passed

    def test_peak_memory_is_one_block(self):
        eta_identity_report(1, 0)  # first-use imports are not the working set
        tracemalloc.start()
        try:
            eta_identity_report(1000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak


def reference_embedding_chain(space, p, theta1, theta2, eps, samples, *, rel_tol=1e-12):
    """Per-sample loop of embedding_chain_check with one-input norms."""
    grid = default_eps_grid(min(p - 1, 1.0) * 0.999999, ratio=0.8, max_points=40)
    mu_cap = max(1.0, space.total_measure)
    exact = p <= 2
    c_head = c_mid = c_tail = 0.0
    violations, worst_idx = 0, None
    for i, f in enumerate(samples):
        npn = lp_norm(space, f, p)
        if npn <= 0:
            continue
        g1 = grand_lebesgue_norm(space, f, p, theta1, grid)
        g2 = grand_lebesgue_norm(space, f, p, theta2, grid)
        npe = lp_norm(space, f, p - eps)
        c_head = max(c_head, g1 / npn)
        if g1 > 0:
            c_mid = max(c_mid, g2 / g1)
        if g2 > 0:
            c_tail = max(c_tail, npe / g2)
        if exact and not (g2 <= g1 * (1 + rel_tol) and g1 <= mu_cap * npn * (1 + rel_tol)):
            violations += 1
            worst_idx = i
    return {"C_grand_vs_lp": c_head, "C_theta2_vs_theta1": c_mid,
            "C_small_vs_grand": c_tail, "violations": violations}, worst_idx


class TestEmbeddingChainStacks:
    """embedding_chain_check on whole corpora against the per-sample loop."""

    @pytest.mark.parametrize("rel_tol", [1e-12, -0.5])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_report_matches_per_sample_loop(self, p, rel_tol):
        fs = small_corpus(CIRC32, 30, 17).samples.copy()
        fs[[0, 11, 29]] = 0.0
        rep = embedding_chain_check(CIRC32, p, 1.0, 2.0, 0.5, fs, rel_tol=rel_tol)
        empirical, worst = reference_embedding_chain(CIRC32, p, 1.0, 2.0, 0.5, fs,
                                                     rel_tol=rel_tol)
        assert rep.empirical == empirical and rep.worst_sample == worst
        if p == 2.0 and rel_tol < 0:  # a negative tolerance makes every live sample violate
            assert (empirical["violations"], worst) == (27, 28)

    def test_all_zero_corpus(self):
        rep = embedding_chain_check(CIRC32, 2.0, 1.0, 2.0, 0.5, np.zeros((4, 32)),
                                    rel_tol=-0.5)
        assert rep.passed and rep.worst_sample is None
        assert rep.empirical == reference_embedding_chain(CIRC32, 2.0, 1.0, 2.0, 0.5,
                                                          np.zeros((4, 32)))[0]


# c in +-[2^-4, 2^4]: dyadic ends and non-dyadic values of both signs
SCALES = (-16.0, -0.37, 0.0625, 5.3)


def assert_scale_invariant(got, want, key):
    """Constants agree to 1e-12 relative; a drift (itself relative) to 1e-12."""
    if key == "drift":
        assert abs(got - want) <= 1e-12, key
    elif isinstance(want, (bool, int)):
        assert got == want, key
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), key


@pytest.fixture(scope="module")
def scale_setup():
    checks = build_calibrated_checks(CIRC32, n_eps=8)
    fc, bc = small_corpus(CIRC32, 16, 21), make_corpus(CIRC32, "bmo", 4, 22)
    base = {name: chk.ratios(fc, bc if chk.needs_b else None) for name, chk in checks.items()}
    return checks, fc, bc, base


def structural_reports(samples):
    gp = GrandParams.power(2.0, 0.25, 1.0, max_points=8, ratio=0.7)
    sigma = float(gp.eps_grid[-2])
    ident = lambda f: np.asarray(f, dtype=float)
    return [
        fefferman_stein_check(CIRC32, 2.0, 0.25, samples),
        dominance_check(CIRC32, gp, gp.eps_grid[1:7], samples),
        embedding_chain_check(CIRC32, 2.0, 1.0, 2.0, 0.5, samples),
        reduction_transfer_check(CIRC32, lambda f: maximal(CIRC32, f), ident, gp, gp,
                                 sigma, samples, u_name="M", lam_name="Id"),
        reduction_transfer_check(CIRC32, CZOperator(CIRC32, conjugate_kernel(CIRC32)),
                                 ident, gp, gp, sigma, samples, u_name="T", lam_name="Id"),
    ]


def commutator_reports(fs, bs):
    gp = GrandParams.power(2.0, 0.25, 1.0, max_points=8, ratio=0.7)
    exps, gp_in, gp_out = verify._potential_bundles(2.0, 0.25, 0.25, 1.0, 0.5, 0.05, 8)
    return [
        commutator_suite(CIRC32, "cz", fs, bs, params_in=gp,
                         operator=CZOperator(CIRC32, conjugate_kernel(CIRC32)), s=1.5),
        commutator_suite(CIRC32, "potential", fs, bs, params_in=gp_in, params_out=gp_out,
                         exps=exps, s=1.5),
    ]


class TestScaleInvariance:
    """Every checked ratio is homogeneous of degree 0 in f and in b."""

    @pytest.mark.parametrize("c", SCALES)
    def test_calibrated_ratios(self, scale_setup, c):
        checks, fc, bc, base = scale_setup
        scaled_f = Corpus(c * fc.samples, fc.descriptor, fc.seed)
        scaled_b = Corpus(c * bc.samples, bc.descriptor, bc.seed)
        for name, chk in checks.items():
            pairs = [(scaled_f, bc)] + ([(fc, scaled_b)] if chk.needs_b else [])
            for f_corpus, b_corpus in pairs:
                got = chk.ratios(f_corpus, b_corpus if chk.needs_b else None)
                assert np.array_equal(np.isnan(got), np.isnan(base[name])), name
                assert np.allclose(got, base[name], rtol=1e-12, atol=0.0, equal_nan=True), name

    @pytest.mark.parametrize("c", SCALES)
    def test_structural_constants(self, c):
        samples = small_corpus(CIRC32, 16, 23).samples
        for rep, want in zip(structural_reports(c * samples), structural_reports(samples)):
            assert rep.empirical.keys() == want.empirical.keys()
            for key, value in want.empirical.items():
                assert_scale_invariant(rep.empirical[key], value, f"{rep.check}.{key}")

    # times 3e-15 the BMO norms of the b corpus are 0 (a constant b) and about
    # 1.4e-15; scaled by 16 they pass 1e-14, an absolute cut-off, and by 5.3 stay below
    @pytest.mark.parametrize("b_size", [1.0, 3e-15])
    @pytest.mark.parametrize("c", SCALES)
    def test_commutator_suites(self, c, b_size):
        fs = small_corpus(CIRC32, 16, 24).samples
        bs = b_size * make_corpus(CIRC32, "bmo", 4, 25).samples
        base = commutator_reports(fs, bs)
        for reports in (commutator_reports(c * fs, bs), commutator_reports(fs, c * bs)):
            for rep, want in zip(reports, base):
                assert rep.empirical.keys() == want.empirical.keys()
                for key, value in want.empirical.items():
                    assert_scale_invariant(rep.empirical[key], value, f"{rep.check}.{key}")
