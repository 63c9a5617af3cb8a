import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morreylab.auxfun import (AuxExponents, SingularDenominator, aux_values,
                              constant_formula, eta_identity_residual,
                              eval_aux, psi_table)
from morreylab.funcnorm import TabulatedFunction


@pytest.fixture(scope="module")
def flat_exps():
    # p = 2, alpha = 1/4, lambda = 0 gives q = 4; A2 == 0
    return AuxExponents.derive(2.0, 0.25, 0.0, theta1=1.0, delta=1.0)


class TestEvalAux:
    def test_phibar_closed_form(self, flat_exps):
        v = eval_aux(1.0, flat_exps)
        assert v.phibar == pytest.approx(2.0 / 7.0, abs=1e-12)

    def test_abar_closed_form(self, flat_exps):
        v = eval_aux(1.0, flat_exps)
        assert v.abar == pytest.approx(7.0 / 4.0, abs=1e-12)

    def test_phi_value(self, flat_exps):
        v = eval_aux(1.0, flat_exps)
        assert v.phi == pytest.approx((2.0 / 7.0) ** (7.0 / 4.0), abs=1e-12)

    def test_phibar_vanishes_at_zero(self, flat_exps):
        vals = [eval_aux(x, flat_exps).phibar for x in (1e-2, 1e-4, 1e-6)]
        assert vals[0] > vals[1] > vals[2] > 0
        assert vals[2] < 1e-5

    def test_phibar_like_x_at_zero(self, flat_exps):
        # phibar(x)/x tends to a positive limit when the slope bound holds
        xs = np.geomspace(1e-8, 1e-4, 12)
        r = np.array([eval_aux(float(x), flat_exps).phibar / x for x in xs])
        assert np.all(r > 0)
        assert np.abs(r / r[-1] - 1.0).max() < 1e-3

    def test_strictly_increasing_probe(self, flat_exps):
        xs = np.geomspace(1e-6, 1.0, 50)
        vals = [eval_aux(float(x), flat_exps).phibar for x in xs]
        assert np.all(np.diff(vals) > 0)

    def test_psi_slope_matches_exponent(self, flat_exps):
        xs = np.geomspace(1e-4, 1e-2, 31)
        psis = np.array([eval_aux(float(x), flat_exps).psi for x in xs])
        slope = np.polyfit(np.log(xs), np.log(psis), 1)[0]
        target = flat_exps.theta1 * (1 + flat_exps.alpha * flat_exps.q
                                     / (1 - flat_exps.lam))
        assert abs(slope - target) <= 0.05

    def test_domain_guard(self, flat_exps):
        with pytest.raises(ValueError):
            eval_aux(1.5, flat_exps)
        with pytest.raises(ValueError):
            eval_aux(0.0, flat_exps)

    def test_all_eight_fields_finite(self, flat_exps):
        v = eval_aux(0.3, flat_exps)
        for name in ("phibar", "phitilde", "abar", "atilde", "phi", "bigphi",
                     "psi", "bigpsi"):
            assert math.isfinite(getattr(v, name)), name

    def test_singular_denominator_guard(self):
        # alpha = 1 makes the phitilde denominator vanish exactly at x = 1
        zero = TabulatedFunction.zero()
        with pytest.raises(SingularDenominator):
            aux_values(1.0, 2.0, 4.0, 1.0, 0.0, zero, zero, 1.0)


class TestEtaIdentity:
    def test_exact_rational_point(self, flat_exps):
        # eta = 2/7: |7/12 - 1/3 - 1/4| = 0
        assert eta_identity_residual(1.0, flat_exps) <= 1e-15

    def test_continuous_toward_zero(self, flat_exps):
        for eps in (0.5, 0.1, 1e-3, 1e-6):
            assert eta_identity_residual(eps, flat_exps) <= 1e-13

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_randomized_parameters(self, seed):
        rng = np.random.default_rng(seed)
        p = float(rng.uniform(1.05, 5.0))
        lam = float(rng.uniform(0.0, 0.9))
        alpha = float(rng.uniform(0.05, 0.95)) * (1 - lam) / p
        q = 1.0 / (1.0 / p - alpha / (1.0 - lam))
        cap = (1 - lam) ** 2 / (alpha * q * q)
        slope = float(rng.uniform(0.0, 0.9)) * cap
        a2 = (TabulatedFunction.linear(slope, np.geomspace(1e-6, 4.0, 9))
              if slope > 0 else TabulatedFunction.zero())
        delta = float(rng.uniform(0.05, 0.5)) * min(q - 1.0, 1.0)
        exps = AuxExponents.derive(p, alpha, lam, theta1=1.0, a2=a2, delta=delta)
        eps = float(rng.uniform(0.05, 1.0)) * delta
        assert eta_identity_residual(eps, exps) <= 1e-12


class TestEtaIdentityTableCalls:
    """eta_identity_residual evaluates A2 once at eps (and once at eps^theta1
    for the psi guards), and its residuals are those of the formula."""

    @pytest.mark.parametrize("theta1", [1.0, 1.7])
    def test_a2_evaluated_once_at_eps(self, monkeypatch, theta1):
        exps = AuxExponents.derive(2.0, 0.25, 0.25, theta1=theta1,
                                   a2=TabulatedFunction.linear(0.05, A2_KNOTS), delta=0.5)
        seen, real = [], TabulatedFunction.__call__

        def recording(table, x):
            if table is exps.a2:
                seen.append(x)
            return real(table, x)

        monkeypatch.setattr(TabulatedFunction, "__call__", recording)
        eps = 0.3
        r = eta_identity_residual(eps, exps)
        assert seen == [eps, eps ** theta1]
        eta = eval_aux(eps, exps).phibar
        assert r == abs(1.0 / (2.0 - eta) - 1.0 / (exps.q - eps)
                        - 0.25 / (0.75 + real(exps.a2, eps)))


class TestAuxExponents:
    def test_derive_solves_exponent_identity(self):
        exps = AuxExponents.derive(2.0, 0.25, 0.25, theta1=1.0)
        assert 1 / exps.p - 1 / exps.q == pytest.approx(
            exps.alpha / (1 - exps.lam), abs=1e-14)

    def test_theta2_default_is_lower_bound(self):
        exps = AuxExponents.derive(2.0, 0.25, 0.0, theta1=1.5)
        assert exps.theta2 == pytest.approx(1.5 * (1 + 0.25 * 4.0))

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            AuxExponents.derive(2.0, 0.6, 0.0, theta1=1.0)

    def test_rejects_steep_a2(self):
        # slope cap is (1-lam)^2/(alpha q^2) = 1/4 at these exponents
        a2 = TabulatedFunction.linear(0.5, np.geomspace(1e-6, 2.0, 9))
        with pytest.raises(ValueError):
            AuxExponents.derive(2.0, 0.25, 0.0, theta1=1.0, a2=a2)

    def test_rejects_nan_theta1(self):
        # theta2 defaults to its lower bound, which is NaN too
        with pytest.raises(ValueError, match="need theta2"):
            AuxExponents.derive(2.0, 0.25, 0.25, math.nan)

    def test_a1_matches_inverse_relation(self):
        a2 = TabulatedFunction.linear(0.02, np.geomspace(1e-6, 4.0, 17))
        exps = AuxExponents.derive(2.0, 0.25, 0.0, theta1=1.0, a2=a2, delta=0.5)
        # A1(phibar(x)) == A2(x): exact at the table knots, piecewise-linear
        # interpolation error in between
        for x in exps.a2.xs[exps.a2.xs <= 0.5][::3]:
            eta = eval_aux(float(x), exps).phibar
            assert float(exps.a1(eta)) == pytest.approx(float(a2(x)), abs=1e-6)
        for x in (1e-4, 1e-2, 0.2, 0.5):
            eta = eval_aux(x, exps).phibar
            assert float(exps.a1(eta)) == pytest.approx(float(a2(x)), abs=2e-5)

    def test_psi_table_positive(self):
        exps = AuxExponents.derive(2.0, 0.25, 0.0, theta1=1.0, delta=0.5)
        grid = np.geomspace(1e-4, 0.49, 12)
        tab = psi_table(exps, grid)
        assert np.all(tab.ys > 0)

    def test_psi_table_domain_guard(self):
        exps = AuxExponents.derive(2.0, 0.25, 0.0, theta1=1.0, delta=0.25)
        with pytest.raises(ValueError):
            psi_table(exps, [0.1, 0.5])


A2_KNOTS = np.geomspace(1e-6, 4.0, 17)
# p = 2, alpha = 1/4, lambda = 1/4 give q = 6, theta2 >= 3 and an A2 slope cap of 1/16
VALID_DRAW = {"p": 2.0, "alpha": 0.25, "lam": 0.25, "theta1": 1.0, "theta2": 3.5,
              "slope": 0.05, "delta": 0.5}


def derive_one(d):
    return AuxExponents.derive(d["p"], d["alpha"], d["lam"], d["theta1"],
                               a2=TabulatedFunction.linear(d["slope"], A2_KNOTS),
                               delta=d["delta"], theta2=d["theta2"])


def derive_batch(draws):
    """One bundle of D draws: (D, 1) columns and stacks of D A2 tables."""
    col = {key: np.array([d[key] for d in draws])[:, None] for key in VALID_DRAW}
    a2 = TabulatedFunction.linear(col["slope"], np.broadcast_to(A2_KNOTS, (len(draws), 17)))
    return AuxExponents.derive(col["p"], col["alpha"], col["lam"], col["theta1"], a2=a2,
                               delta=col["delta"], theta2=col["theta2"])


def random_draws(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        p, lam = rng.uniform(1.05, 5.0), rng.uniform(0.0, 0.9)
        alpha = rng.uniform(0.05, 0.95) * (1 - lam) / p
        q = 1.0 / (1.0 / p - alpha / (1.0 - lam))
        theta1 = rng.uniform(0.5, 2.0)
        out.append({"p": p, "alpha": alpha, "lam": lam, "theta1": theta1,
                    "theta2": theta1 * (1 + alpha * q / (1 - lam)) * rng.uniform(1.0, 1.5),
                    "slope": rng.uniform(0.0, 0.9) * (1 - lam) ** 2 / (alpha * q**2),
                    "delta": rng.uniform(0.05, 0.5) * min(q - 1.0, 1.0)})
    return out


class TestBatchedBundles:
    """A batch of draws gives each draw its one-draw values and verdicts."""

    def test_values_match_one_draw_calls(self):
        draws = random_draws(40, 5)
        batch = derive_batch(draws)
        x = np.array([d["delta"] for d in draws])[:, None] * np.linspace(0.05, 1.0, 40)[:, None]
        values = eval_aux(x, batch)
        residuals = eta_identity_residual(x, batch)
        for i, d in enumerate(draws):
            one = derive_one(d)
            assert np.array_equal(batch.a1.ys[i], one.a1.ys)
            assert np.array_equal(batch.a1.xs[i], one.a1.xs)
            assert (batch.q[i, 0], batch.theta2[i, 0]) == (one.q, one.theta2)
            want = eval_aux(float(x[i, 0]), one)
            for name in ("phibar", "phitilde", "abar", "atilde", "phi", "bigphi",
                         "psi", "bigpsi"):
                assert getattr(values, name)[i, 0] == getattr(want, name), (i, name)
            assert residuals[i, 0] == eta_identity_residual(float(x[i, 0]), one)

    @pytest.mark.parametrize("bad", [
        {"lam": 1.2}, {"alpha": 0.6}, {"p": 0.9}, {"theta2": 0.5}, {"slope": 0.07},
        {"delta": -0.1}, {"delta": math.nan}, {"theta1": math.nan}, {"theta2": math.nan},
        {"p": math.nan}])
    def test_first_failing_draw_is_named(self, bad):
        with pytest.raises(ValueError) as one:
            derive_one({**VALID_DRAW, **bad})
        draws = [VALID_DRAW] * 5
        draws[2] = draws[4] = {**VALID_DRAW, **bad}
        with pytest.raises(ValueError) as batch:
            derive_batch(draws)
        assert type(batch.value) is type(one.value)
        assert str(batch.value).startswith(str(one.value).split(" = ")[0])
        assert str(batch.value).endswith("(draw 2)")

    def test_slope_guard_names_the_draw(self):
        slopes = np.array([0.05, 0.05, 0.07, 0.05])[:, None]  # the cap is 1/16
        steep = TabulatedFunction.linear(slopes, np.broadcast_to(A2_KNOTS, (4, 17)))
        with pytest.raises(ValueError, match=r"^A2 slope at 0 is 0.07, .* \(draw 2\)$"):
            dataclasses.replace(derive_batch([VALID_DRAW] * 4), a2=steep)
        with pytest.raises(ValueError, match=r"^A2 slope at 0 is 0.07, .*\)$"):
            dataclasses.replace(derive_one(VALID_DRAW),
                                a2=TabulatedFunction.linear(0.07, A2_KNOTS))

    def test_domain_guard_names_the_draw(self):
        batch = derive_batch([VALID_DRAW] * 3)
        with pytest.raises(ValueError, match=r"x = 0.6 outside .* \(draw 1\)"):
            eval_aux(np.array([[0.1], [0.6], [0.7]]), batch)

    def test_singular_denominator_names_the_draw(self):
        zero = TabulatedFunction.zero()
        col = lambda *v: np.array(v)[:, None]
        with pytest.raises(SingularDenominator) as err:
            aux_values(col(0.5, 1.0, 1.0), 2.0, 4.0, col(0.25, 1.0, 1.0), 0.0, zero, zero, 1.0)
        assert (err.value.x, err.value.draw) == (1.0, 1)


class TestConstantFormula:
    def test_cz_branch_p3(self):
        assert constant_formula("cz_morrey", p=3.0, lam=0.5, c=1.0) \
            == pytest.approx(13.0, abs=1e-12)

    def test_cz_branch_small_p(self):
        # p/(p-1) + p/(2-p) + (p-lam+1)/(1-lam) at p=1.5, lam=0
        expect = 3.0 + 3.0 + 2.5
        assert constant_formula("cz_morrey", p=1.5, lam=0.0, c=1.0) \
            == pytest.approx(expect, abs=1e-12)

    def test_cz_rejects_p2(self):
        with pytest.raises(ValueError):
            constant_formula("cz_morrey", p=2.0, lam=0.25, c=1.0)

    def test_maximal_lambda_zero(self):
        for p in (1.5, 2.0, 4.0):
            expect = (p / (p - 1)) ** (1 / p) + 1.0
            assert constant_formula("maximal_morrey", p=p, lam=0.0, b=17.0, c=1.0) \
                == pytest.approx(expect, abs=1e-12)

    def test_maximal_scales_linearly_in_c(self):
        v1 = constant_formula("maximal_morrey", p=2.0, lam=0.5, b=3.0, c=1.0)
        v2 = constant_formula("maximal_morrey", p=2.0, lam=0.5, b=3.0, c=2.0)
        assert v2 - 1.0 == pytest.approx(2.0 * (v1 - 1.0), rel=1e-12)

    def test_potential_commutator_finite_and_collapses(self):
        v = constant_formula("potential_commutator_morrey", p=2.0, q=6.0,
                             alpha=0.25, lam=0.25, s=1.5, b=3.0, c=1.0)
        assert math.isfinite(v) and v > 0
        # as alpha -> 0 with q -> p the factor structure approaches the
        # s-power maximal constant raised to 2 times the tail factor
        v0 = constant_formula("potential_commutator_morrey", p=2.0, q=2.0001,
                              alpha=1e-5, lam=0.0, s=1.5, b=3.0, c=1.0)
        inner = constant_formula("maximal_s_morrey", p=2.0, s=1.5, lam=0.0,
                                 b=3.0, c=1.0)
        tail = (1 + 2.0 / (1 - 0.0 - 1e-5 * 2.0)) * (2.0 ** (1 / 2.0001) + 1)
        assert v0 == pytest.approx(inner ** (1 + 2.0 / 2.0001) * tail, rel=1e-3)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            constant_formula("no_such_formula", p=2.0)

    def test_maximal_s_range_guard(self):
        with pytest.raises(ValueError):
            constant_formula("maximal_s_morrey", p=2.0, s=2.5, lam=0.0, b=2.0)
