"""Empirical verification harness.

Every check measures the constants of one inequality over a seeded corpus
and returns a VerificationReport.  The boundedness statements under test
come with existential constants only, so the harness turns them into
regressions: a calibration pass computes the smallest absolute constant on
a frozen corpus, and acceptance re-checks fresh corpora against a headroom
multiple of it.  Reports carry no timestamps; identical (config, seed)
pairs serialize byte-identically.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
# unused here: bench/spans.py patches it, and the run trace of ROADMAP item 4 drops both
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import auxfun, homspace
from .auxfun import AuxExponents, constant_formula, eta_identity_residual, eval_aux
from .corpus import Corpus, make_corpus
from .funcnorm import (GrandNormEvaluator, GrandParams, TabulatedFunction, _as_rows,
                       _grand_lebesgue_values, bmo_norm, default_eps_grid, lp_norm,
                       morrey_norm)
from .homspace import DiscreteHomSpace, build_uniform_grid, doubling_constant
from .operators import (CZOperator, PotentialOperator, commutator,
                        conjugate_kernel, maximal, maximal_s, sharp_maximal)

__all__ = [
    "AllSamplesDegenerate",
    "HypothesisFailed",
    "VerificationReport",
    "dominance_check",
    "embedding_chain_check",
    "reduction_transfer_check",
    "norm_ratios",
    "commutator_suite",
    "fefferman_stein_check",
    "eta_identity_report",
    "aux_function_report",
    "CheckDef",
    "build_calibrated_checks",
    "calibrate",
    "calibrated_regression",
    "DEFAULT_CONFIG",
    "merge_config",
    "build_space",
    "run_suite",
    "reports_to_json",
    "reports_to_csv",
]


class AllSamplesDegenerate(RuntimeError):
    """Every corpus sample was excluded as 0/0."""


class HypothesisFailed(RuntimeError):
    """A hypothesis of the grand-norm transfer failed numerically."""

    def __init__(self, which, witness, message=""):
        super().__init__(f"hypothesis {which} failed: {message}")
        self.which = which
        self.witness = witness


@dataclass
class VerificationReport:
    """Outcome of one inequality check over one corpus."""

    check: str
    claim: str
    corpus: str
    empirical: dict
    theoretical: float | None = None
    worst_sample: int | None = None
    passed: bool = True
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "claim": self.claim,
            "corpus": self.corpus,
            "empirical": _jsonable(self.empirical),
            "theoretical": self.theoretical,
            "worst_sample": self.worst_sample,
            "passed": bool(self.passed),
            "details": _jsonable(self.details),
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):  # before int: bool subclasses int
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _nanmax_with_arg(values: np.ndarray) -> tuple[float, int]:
    if np.all(np.isnan(values)):
        raise AllSamplesDegenerate("all corpus samples were excluded as 0/0")
    idx = int(np.nanargmax(values))
    return float(values[idx]), idx


def _samples(space: DiscreteHomSpace, samples) -> np.ndarray:
    """A structural check's corpus as `_as_rows` rows; no sample raises AllSamplesDegenerate."""
    if hasattr(samples, "__len__") and len(samples) == 0:  # a GridFunction has no len
        raise AllSamplesDegenerate("empty corpus")
    return _as_rows(space, samples)[0]


def dominance_check(space: DiscreteHomSpace, params: GrandParams, sigma_grid,
                    samples: Sequence[np.ndarray], *, corpus_desc: str = "",
                    stability_tol: float = 0.05) -> VerificationReport:
    """C_emp = max over corpus and sigma < s of Phi(f,s) phi(sigma)^(1/(p-sigma)) / Phi(f,sigma).

    The constant must stay stable (default 5 percent) when the corpus doubles:
    the first half of the corpus must already realize most of the maximum.
    Phi is read at each sigma's cut, the grid points below it, by `GrandNormEvaluator.phi_at`,
    which sweeps only the eps columns that can attain it.  Finite sigmas outside (0, s_max)
    are dropped; a non-finite one raises ValueError.
    """
    sig = np.asarray(sigma_grid, dtype=float)
    if not np.all(np.isfinite(sig)):
        raise ValueError(f"sigma grid must be finite, got {sig[~np.isfinite(sig)][0]}")
    sig = sig[(sig > 0) & (sig < params.smax)]
    if sig.size < 2:
        raise ValueError("need at least two sigma grid points below s_max")
    if np.any(np.diff(sig) <= 0):
        raise ValueError("sigma grid must be strictly increasing")
    ev = GrandNormEvaluator(space, params)
    cut = np.searchsorted(ev.grid, sig, side="left")
    if np.any(cut == 0):
        raise ValueError("no grid point below the smallest sigma")
    sig_w = params.phi(sig) ** (1.0 / (params.p - sig))
    phis = ev.phi_at(_samples(space, samples), cut)  # (M, S): per sample and sigma
    i, j = np.triu_indices(sig.size, k=1)  # pairs i < j: sigma_i < sigma_j
    live = phis[:, i] > 0  # a zero sample has no live pair and counts 0
    pair = np.divide(phis[:, j] * sig_w[i], phis[:, i], out=np.zeros(live.shape), where=live)
    full, half, drift = _stability(0.0, C=np.max(pair, axis=1, initial=0.0))
    passed = math.isfinite(full["C"]) and drift <= stability_tol
    return VerificationReport(
        check="dominance", corpus=corpus_desc,
        claim="Phi(f,s) <= C phi(sigma)^(-1/(p-sigma)) Phi(f,sigma) for sigma < s",
        empirical={"C_emp": full["C"], "C_half_corpus": half["C_half"], "drift": drift},
        passed=passed,
        details={"sigma_grid": sig.tolist(), "stability_tol": stability_tol})


def embedding_chain_check(space: DiscreteHomSpace, p: float, theta1: float,
                          theta2: float, eps: float, samples, *,
                          eps_grid=None, corpus_desc: str = "",
                          rel_tol: float = 1e-12) -> VerificationReport:
    """Norm chain L^p -> grand(theta1) -> grand(theta2) -> L^(p-eps).

    For p <= 2 the first two inequalities hold exactly per sample (grid
    inside (0,1) orders the eps weights pointwise and finite measure gives
    the Lebesgue comparison); for p > 2 the constants are only reported.
    The last embedding constant is always empirical.
    """
    if not (theta1 < theta2):
        raise ValueError("need theta1 < theta2")
    if not (0 < eps < p - 1):
        raise ValueError("need 0 < eps < p - 1")
    if eps_grid is None:
        eps_grid = default_eps_grid(min(p - 1, 1.0) * 0.999999, ratio=0.8,
                                    max_points=40)
    mu_cap = max(1.0, space.total_measure)
    exact = p <= 2
    rows = _samples(space, samples)
    npn = lp_norm(space, rows, p)
    live = np.flatnonzero(npn > 0)
    g1, g2 = _grand_lebesgue_values(space, rows[live], p, (theta1, theta2),
                                    eps_grid)[0].max(axis=2)
    npn, npe = npn[live], lp_norm(space, rows[live], p - eps)
    c_head = float(np.max(g1 / npn, initial=0.0))
    c_mid = float(np.max(g2[g1 > 0] / g1[g1 > 0], initial=0.0))
    c_tail = float(np.max(npe[g2 > 0] / g2[g2 > 0], initial=0.0))
    violations, worst_idx = 0, None
    if exact:
        bad = live[~((g2 <= g1 * (1 + rel_tol)) & (g1 <= mu_cap * npn * (1 + rel_tol)))]
        violations, worst_idx = len(bad), (int(bad[-1]) if len(bad) else None)
    passed = violations == 0
    return VerificationReport(
        check="embedding_chain", corpus=corpus_desc,
        claim="||f||_{p),theta2} <= ||f||_{p),theta1} <= max(1, mu X) ||f||_p "
              "and ||f||_{p-eps} <= C ||f||_{p),theta2}",
        empirical={"C_grand_vs_lp": c_head, "C_theta2_vs_theta1": c_mid,
                   "C_small_vs_grand": c_tail, "violations": violations},
        worst_sample=worst_idx, passed=passed,
        details={"p": p, "theta1": theta1, "theta2": theta2, "eps": eps,
                 "exact_ordering_asserted": exact})


def reduction_transfer_check(space: DiscreteHomSpace, U: Callable, Lam: Callable,
                             params_in: GrandParams, params_out: GrandParams,
                             sigma: float, samples, *, corpus_desc: str = "",
                             u_name: str = "U", lam_name: str = "Lambda") -> VerificationReport:
    """Transfer of uniform per-eps Morrey bounds into a grand-norm bound;
    U and Lam map the (M, N) stack of samples to an (M, N) stack.

    Hypotheses measured on the shared eps grid below sigma: the per-eps
    operator constants C_eps (finite sup) and the weight-ratio sup
    psi(eps)^(1/(q-eps)) / phi(eps)^(1/(p-eps)).  The conclusion asserts
    grand ratio <= sup C_eps * phi(sigma)^(-1/(p-sigma)) * C0_emp with
    C0_emp the measured norm-dominance constant of the output side.
    """
    if not (0 < sigma < params_in.smax):
        raise ValueError("need 0 < sigma < s_max of the input bundle")

    rows = _samples(space, samples)
    uf, lf = _as_rows(space, U(rows))[0], _as_rows(space, Lam(rows))[0]

    p, q = params_in.p, params_out.p
    ev_in = GrandNormEvaluator(space, params_in)
    ev_out = ev_in if params_out is params_in else GrandNormEvaluator(space, params_out)
    if not np.array_equal(ev_in.grid, ev_out.grid):
        raise ValueError("transfer check needs a shared evaluable eps grid")
    below = ev_in.grid < sigma
    eps_used = ev_in.grid[below]
    if eps_used.size == 0:
        raise ValueError("no evaluable grid point below sigma")
    cut = int(below.sum())

    mv_in, mv_out = ev_in.morrey_vector(lf), ev_out.morrey_vector(uf)
    num, den = mv_out[:, :cut], mv_in[:, :cut]  # (M, cut): per sample and eps below sigma
    dead = den <= 0
    bad = np.argwhere(dead & (num > 0))  # row-major: the first sample, then its first eps
    if bad.size:
        raise HypothesisFailed("per-eps-bound", (float(eps_used[bad[0, 1]]), int(bad[0, 0])),
                               f"{u_name}f has positive norm while {lam_name}f vanishes")
    c_eps = np.divide(num, den, out=np.zeros(num.shape), where=~dead).max(axis=0, initial=0.0)
    den_g = (ev_in.phi_pow * mv_in).max(axis=1)
    w_out = np.maximum.accumulate(ev_out.phi_pow * mv_out, axis=1)
    num_g, phi_sig = w_out[:, -1], w_out[:, cut - 1]  # phi_sig: Phi_psi(Uf, sigma)
    ratio = np.divide(num_g, den_g, out=np.zeros(len(rows)), where=den_g > 0)
    grand_ratio = float(np.fmax.reduce(ratio, initial=0.0))  # a NaN ratio counts as none
    worst = int(np.argmax(ratio == grand_ratio)) if grand_ratio > 0 else None
    psig = params_out.phi(sigma) ** (1.0 / (q - sigma))
    c0 = float(np.fmax.reduce(np.divide(num_g * psig, phi_sig, out=np.zeros(len(rows)),
                                        where=phi_sig > 0), initial=0.0))
    sup_c = float(c_eps.max())
    if not math.isfinite(sup_c):
        raise HypothesisFailed("finite-sup", None, "per-eps constants unbounded")
    wr = params_out.phi(eps_used) ** (1.0 / (q - eps_used)) / \
        params_in.phi(eps_used) ** (1.0 / (p - eps_used))
    if not np.all(np.isfinite(wr)):
        raise HypothesisFailed("weight-ratio", None,
                               "psi/phi weight ratio is not finite on the grid")
    ratio_sup = float(wr.max())
    bound = sup_c * params_in.phi(sigma) ** (-1.0 / (p - sigma)) * c0
    passed = grand_ratio <= bound * (1 + 1e-9)
    return VerificationReport(
        check=f"reduction_transfer[{u_name}]", corpus=corpus_desc,
        claim=f"||{u_name} f||_grand-out <= C0 phi(sigma)^(-1/(p-sigma)) "
              f"sup_eps C_eps ||{lam_name} f||_grand-in",
        empirical={"sup_C_eps": sup_c, "weight_ratio_sup": ratio_sup,
                   "grand_ratio": grand_ratio, "C0_emp": c0, "bound": bound},
        worst_sample=worst, passed=passed,
        details={"sigma": sigma, "eps_grid_below_sigma": eps_used.tolist()})


def _bmo_means(space: DiscreteHomSpace, bs: np.ndarray) -> np.ndarray:
    """The "mean" BMO norm of each row of bs, memoised by content in the space's
    ball family: every check of one space computes each b's norm once."""
    memo = space.balls.memo.setdefault("bmo_mean", {})
    keys = [b.tobytes() for b in bs]
    for key, b in zip(keys, bs):
        if key not in memo:
            memo[key] = bmo_norm(space, b, "mean")
    return np.array([memo[key] for key in keys])


def norm_ratios(norm_num: Callable, norm_den: Callable, fs: np.ndarray,
                gs: np.ndarray, nbs) -> np.ndarray:
    """Per pair, norm_num(g) / (nbs norm_den(f)): gs is the pairs' output stack,
    one row per row of fs and already through any post-operator, and nbs each
    pair's ||b||_BMO (1.0 for an operator without b).

    A pair is excluded (NaN) only where its denominator is 0, so the ratios
    are invariant under f -> c f and b -> c b.  Only live rows of gs are normed.
    """
    out = np.full(len(fs), np.nan)
    den = nbs * norm_den(fs)
    live = np.flatnonzero(den > 0)
    out[live] = norm_num(gs[live]) / den[live]
    return out


def commutator_suite(space: DiscreteHomSpace, kind: str, f_samples, b_samples,
                     *, params_in: GrandParams, params_out: GrandParams | None = None,
                     exps: AuxExponents | None = None, operator: CZOperator | None = None,
                     s: float = 1.5, corpus_desc: str = "",
                     stability_tol: float = 0.10) -> VerificationReport:
    """Commutator boundedness measurements for one operator family.

    kind "cz":        [b,T] for `operator` T: the sharp-function pointwise
                      bound and the grand-norm ratio in one space both sides.
    kind "potential": M([b,I^alpha]) with the Morrey-norm ratio (p -> q), the
                      grand-norm ratio into the (psi, A2) bundle, and the exact
                      pointwise domination |[b,I^alpha]f| <= M([b,I^alpha]f).

    Norm ratios come from `norm_ratios`.  Empirical constants are also
    taken over the first half of the corpus; the report fails if any constant
    moves more than `stability_tol` or the exact pointwise facts fail.
    """
    fs, bs = _samples(space, f_samples), _samples(space, b_samples)
    bs = bs[np.arange(len(fs)) % len(bs)]  # each pair's b: any beyond the f corpus is unused
    nbs = _bmo_means(space, bs)
    live = np.flatnonzero(nbs > 0)  # pairs with a constant b have no pointwise bound

    if kind == "cz":
        if operator is None:
            raise ValueError("kind 'cz' needs an operator")
        ev = GrandNormEvaluator(space, params_in)
        ev_out = GrandNormEvaluator(space, params_out) if params_out is not None else ev
        point = np.zeros(len(fs))
        gs = commutator(bs, operator, fs)
        dens = nbs[live, None] * (maximal_s(space, operator(fs[live]), s)
                                  + maximal_s(space, fs[live], s))
        nums = sharp_maximal(space, gs[live])
        ok = dens > 1e-14 * np.abs(nums)  # a ratio above 1e14 counts as 0/0
        point[live] = np.divide(nums, dens, out=np.zeros_like(nums), where=ok).max(axis=1)
        # point is never NaN, so its maxima do not depend on the empty value
        full, half, drift = _stability(np.nan, pointwise_C=point,
                                       grand_C=norm_ratios(ev_out, ev, fs, gs, nbs))
        if np.isnan(full["grand_C"]):
            raise AllSamplesDegenerate("no nonzero (b, f) pair")
        passed = math.isfinite(full["grand_C"]) and drift <= stability_tol
        return VerificationReport(
            check="commutator_cz", corpus=corpus_desc,
            claim="([b,T]f)# <= C ||b||_BMO (M_s(Tf) + M_s f) pointwise and "
                  "||[b,T]f||_grand <= C ||b||_BMO ||f||_grand",
            empirical={**full, "drift": drift, **half},
            passed=passed, details={"s": s, "stability_tol": stability_tol})

    if kind != "potential":
        raise ValueError(f"unknown commutator kind {kind!r}")
    if exps is None or params_out is None:
        raise ValueError("kind 'potential' needs exps and params_out")
    pot = PotentialOperator(space, exps.alpha)
    ev_in = GrandNormEvaluator(space, params_in)
    ev_out = GrandNormEvaluator(space, params_out)
    cd = doubling_constant(space)
    theo = constant_formula("potential_commutator_morrey", p=exps.p, q=exps.q,
                            alpha=exps.alpha, lam=exps.lam, s=s, b=cd, c=1.0)

    def morrey_at(r):
        return lambda g: morrey_norm(space, g, r, exps.lam)

    gs = commutator(bs, pot, fs)
    mgs = maximal(space, gs)
    dom_ok = bool(np.all(np.abs(gs[live]) <= mgs[live] * (1 + 1e-12) + 1e-300))
    full, half, drift = _stability(
        np.nan, morrey_C=norm_ratios(morrey_at(exps.q), morrey_at(exps.p), fs, mgs, nbs),
        grand_C=norm_ratios(ev_out, ev_in, fs, mgs, nbs))
    if np.isnan(full["morrey_C"]) and np.isnan(full["grand_C"]):
        raise AllSamplesDegenerate("no nonzero (b, f) pair")
    passed = dom_ok and math.isfinite(full["grand_C"]) and drift <= stability_tol
    return VerificationReport(
        check="commutator_potential", corpus=corpus_desc,
        claim="||M([b,I^a]f)||_{q,lam} <= C ||b||_BMO ||f||_{p,lam}, the grand "
              "version into the (psi, A2) bundle, and |[b,I^a]f| <= M([b,I^a]f)",
        empirical={**full, "pointwise_domination": dom_ok, "drift": drift, **half},
        theoretical=theo, passed=passed,
        details={"s": s, "doubling_b": cd, "stability_tol": stability_tol})


def _half_and_full(values, empty: float) -> tuple[float, float]:
    """Maxima of per-sample values over the first half of the corpus (at
    least one sample) and over all of it; NaN marks an excluded sample, and
    a maximum over no sample is `empty`."""
    vals = np.asarray(values, dtype=float)
    half = vals[: max(len(vals) // 2, 1)]
    return (float(np.fmax.reduce(half, initial=empty)),
            float(np.fmax.reduce(vals, initial=empty)))


def _stability(empty: float, **values) -> tuple[dict, dict, float]:
    """The half-corpus stability rule shared by dominance, the commutator
    suites and Fefferman-Stein: per named vector of per-sample values, its
    full-corpus maximum (keyed by the name) and half-corpus maximum (keyed
    name + "_half"), as `_half_and_full` takes them, and the largest relative
    drift between the two.  A vector whose maxima are not both finite, or
    whose full maximum is not positive, drifts 0."""
    full, half = {}, {}
    for name, vals in values.items():
        half[f"{name}_half"], full[name] = _half_and_full(vals, empty)
    drift = max((abs(f - h) / f for f, h in zip(full.values(), half.values())
                 if math.isfinite(h) and math.isfinite(f) and f > 0), default=0.0)
    return full, half, drift


def fefferman_stein_check(space: DiscreteHomSpace, p: float, lam: float,
                          samples, *, corpus_desc: str = "",
                          stability_tol: float = 0.10) -> VerificationReport:
    """||Mf||_{p,lam} <= C ||f#||_{p,lam} on a mean-zero corpus.

    On a finite-measure space the inequality is false for nonzero constants
    (Mf > 0 while f# = 0), so constants are projected out: every sample is
    recentred to weighted mean zero and the exclusion is recorded.
    """
    w, mu = space.weight, space.total_measure
    f0s = np.array([f - float(f @ w) / mu for f in _samples(space, samples)])
    den = morrey_norm(space, sharp_maximal(space, f0s), p, lam)
    num = morrey_norm(space, maximal(space, f0s), p, lam)
    ratios = np.divide(num, den, out=np.full(len(f0s), np.nan), where=den > 0)
    full, half, drift = _stability(0.0, C=ratios)
    c = full["C"]
    arg = int(np.flatnonzero(ratios == c)[0]) if c > 0 else None
    passed = math.isfinite(c) and c > 0 and drift <= stability_tol
    return VerificationReport(
        check="fefferman_stein", corpus=corpus_desc,
        claim="||Mf||_{p,lam} <= C ||f#||_{p,lam} for mean-zero f",
        empirical={"C_emp": c, "C_half_corpus": half["C_half"], "drift": drift},
        worst_sample=arg, passed=passed,
        details={"p": p, "lam": lam,
                 "note": "constants excluded: on finite measure Mc > 0 while c# = 0",
                 "stability_tol": stability_tol})


# Draws per block of eta_identity_report: its (block, 96) knot and table
# arrays stay near 1 MB of peak memory for any number of draws.
_ETA_BLOCK = 128
# (low, high) of the seven uniform numbers of one draw, in stream order:
# p, lambda, alpha / ((1-lambda)/p), theta1, slope / cap, delta / min(q-1, 1),
# eps / delta.
_ETA_RANGES = np.array([(1.05, 5.0), (0.0, 0.9), (0.05, 0.95), (0.5, 2.0),
                        (0.0, 0.9), (0.05, 0.5), (0.05, 1.0)])


def eta_identity_report(n_draws: int = 1000, seed: int = 0,
                        tol: float = 1e-12) -> VerificationReport:
    """Randomized exactness check of the eta identity over valid parameters.

    The draws are evaluated in blocks, each as one batch of (D, 1) columns;
    every draw gets the residual a one-draw evaluation gives it.  A NaN
    residual is the worst one and fails the check."""
    lo, hi = _ETA_RANGES.T
    # one block of the stream equals seven rng.uniform calls per draw
    u = lo + (hi - lo) * np.random.default_rng(seed).random((max(n_draws, 0), 7))
    knots = np.geomspace(1e-6, 4.0, 17)
    worst, arg = 0.0, None
    for d0 in range(0, n_draws, _ETA_BLOCK):
        # seven (D, 1) columns, one per uniform number of a draw
        p, lam, a_frac, theta1, s_frac, d_frac, e_frac = np.moveaxis(
            u[d0:d0 + _ETA_BLOCK, :, None], 1, 0)
        alpha = a_frac * (1 - lam) / p
        q = 1.0 / (1.0 / p - alpha / (1.0 - lam))
        cap = auxfun._pow(1 - lam, 2) / (alpha * auxfun._pow(q, 2))
        a2 = TabulatedFunction.linear(s_frac * cap, np.broadcast_to(knots, (len(p), knots.size)))
        delta = d_frac * np.minimum(q - 1.0, 1.0)
        exps = AuxExponents.derive(p, alpha, lam, theta1, a2=a2, delta=delta)
        r = eta_identity_residual(e_frac * delta, exps).ravel()
        i = int(np.argmax(r))  # the first NaN, else the first maximum
        # NaN compares false: the first NaN draw becomes the worst and stays it
        if not (r[i] <= worst or math.isnan(worst)):
            worst, arg = float(r[i]), d0 + i
    return VerificationReport(
        check="eta_identity", corpus=f"random:draws={n_draws}:seed={seed}",
        claim="1/(p - phibar(eps)) - 1/(q - eps) = alpha/(1 - lambda + A2(eps))",
        empirical={"max_residual": worst}, theoretical=tol, worst_sample=arg,
        passed=worst <= tol)


def aux_function_report(*, slope_tol: float = 0.05) -> VerificationReport:
    """Closed-form spot values and the small-scale power law of psi.

    At (p, q, alpha, lambda, A2) = (2, 4, 1/4, 0, 0): phibar(1) = 2/7 and
    abar(1) = 7/4 exactly.  With A2 = 0 the slope of log psi against log x on
    [1e-4, 1e-2] must match theta1 (1 + alpha q / (1 - lambda)).
    """
    exps = AuxExponents.derive(2.0, 0.25, 0.0, theta1=1.0, delta=1.0)
    v1 = eval_aux(1.0, exps)
    spot_err = max(abs(v1.phibar - 2.0 / 7.0), abs(v1.abar - 7.0 / 4.0))
    xs = np.geomspace(1e-4, 1e-2, 41)
    psis = np.array([eval_aux(float(x), exps).psi for x in xs])
    slope = float(np.polyfit(np.log(xs), np.log(psis), 1)[0])
    target = exps.theta1 * (1 + exps.alpha * exps.q / (1 - exps.lam))
    # phibar(x)/x must settle to a positive limit at small x
    tail = np.geomspace(1e-6, 1e-3, 16)
    ratios = np.array([eval_aux(float(x), exps).phibar / x for x in tail])
    ratio_drift = float(np.abs(ratios / ratios[-1] - 1.0).max())
    passed = spot_err <= 1e-12 and abs(slope - target) <= slope_tol \
        and ratio_drift <= 0.01
    return VerificationReport(
        check="aux_functions", corpus="closed-form",
        claim="phibar(1) = 2/7, abar(1) = 7/4 at (2,4,1/4,0,0); "
              "psi ~ x^(theta1 (1 + alpha q/(1-lambda))) at 0+",
        empirical={"spot_error": spot_err, "psi_loglog_slope": slope,
                   "slope_target": target, "phibar_over_x_drift": ratio_drift},
        theoretical=None, passed=passed, details={"slope_tol": slope_tol})


# ---------------------------------------------------------------------------
# Calibrated-constant regression
# ---------------------------------------------------------------------------

@dataclass
class CheckDef:
    """One calibratable inequality: per-corpus ratios plus an optional
    constant formula, affine in the absolute constant."""

    name: str
    claim: str
    ratios: Callable[[Corpus, Corpus | None], np.ndarray]
    formula: Callable[[float], float] | None = None
    needs_b: bool = False


def build_calibrated_checks(space: DiscreteHomSpace, *, p: float = 2.0,
                            lam: float = 0.25, theta: float = 1.0,
                            alpha: float = 0.25, s: float = 1.5,
                            a_slope: float = 0.5, a2_slope: float = 0.05,
                            delta: float = 0.5, cz_ps=(1.5, 3.0),
                            n_eps: int = 16) -> dict[str, CheckDef]:
    """The calibratable inequality set on one space.

    Morrey-level: maximal operator, its s-power variant, the singular
    integral at two exponents, and the potential commutator through the
    maximal operator.  Grand-level: the same operators in the generalized
    grand bundles, including the (psi, A2) target bundle of the potential
    commutator.

    The operators, the grand evaluators and the doubling constant (read only
    by the formulas of maximal_morrey, maximal_s_morrey and
    potential_commutator_morrey) are built on first use, so a suite builds
    only what its selected checks read.
    """
    @functools.cache
    def cd() -> float:
        return doubling_constant(space)

    @functools.cache
    def cz_operator() -> CZOperator:
        # spaces without circle angles have no conjugate kernel
        return CZOperator(space, conjugate_kernel(space))

    def cz(f):
        return cz_operator()(f)

    @functools.cache
    def potential() -> PotentialOperator:
        return PotentialOperator(space, alpha)

    def pot(f):
        return potential()(f)

    a_table = TabulatedFunction.linear(a_slope, np.linspace(0.0, p - 1.0, 33)[1:])
    gp = GrandParams.power(p, lam, theta, A=a_table, max_points=n_eps, ratio=0.7)
    exps, gp_in, gp_out = _potential_bundles(p, alpha, lam, theta, delta, a2_slope, n_eps)
    q = exps.q
    bundles = {"phi": gp, "in": gp_in, "out": gp_out}

    @functools.cache
    def evaluator(bundle: str) -> GrandNormEvaluator:
        # each holds an N x R x E table
        return GrandNormEvaluator(space, bundles[bundle])

    ev, ev_in, ev_out = (lambda f, b=b: evaluator(b)(f) for b in bundles)

    # norms and operators take an (M, N) stack; operators still apply one
    # row at a time inside, so their summation order is unchanged
    def plain_ratios(op, norm_num, norm_den):
        def run(fc: Corpus, bc: Corpus | None) -> np.ndarray:
            return norm_ratios(norm_num, norm_den, fc.samples, op(fc.samples), 1.0)
        return run

    def pair_ratios(op, norm_num, norm_den, post=lambda g: g):
        def run(fc: Corpus, bc: Corpus | None) -> np.ndarray:
            pairs = np.arange(len(fc)) % len(bc)
            nbs = _bmo_means(space, bc.samples)[pairs]
            gs = post(commutator(bc.samples[pairs], op, fc.samples))
            return norm_ratios(norm_num, norm_den, fc.samples, gs, nbs)
        return run

    def morrey(r: float):
        return lambda gs: morrey_norm(space, gs, r, lam)

    morrey_p, morrey_q = morrey(p), morrey(q)

    checks = {
        "maximal_morrey": CheckDef(
            "maximal_morrey",
            "||Mf||_{p,lam} <= (C b^(lam/p) (p')^(1/p) + 1) ||f||_{p,lam}",
            plain_ratios(lambda f: maximal(space, f), morrey_p, morrey_p),
            formula=lambda c: constant_formula("maximal_morrey", p=p, lam=lam,
                                               b=cd(), c=c)),
        "maximal_s_morrey": CheckDef(
            "maximal_s_morrey",
            "||M_s f||_{p,lam} <= (C b^(lam s/p) ((p/s)')^(s/p) + 1) ||f||_{p,lam}",
            plain_ratios(lambda f: maximal_s(space, f, s), morrey_p, morrey_p),
            formula=lambda c: constant_formula("maximal_s_morrey", p=p, s=s,
                                               lam=lam, b=cd(), c=c)),
        "potential_commutator_morrey": CheckDef(
            "potential_commutator_morrey",
            "||M([b,I^a]f)||_{q,lam} <= C_{p,q,a,lam} ||b||_BMO ||f||_{p,lam}",
            pair_ratios(pot, morrey_q, morrey_p,
                        post=lambda g: maximal(space, g)),
            formula=lambda c: constant_formula(
                "potential_commutator_morrey", p=p, q=q, alpha=alpha, lam=lam,
                s=s, b=cd(), c=c),
            needs_b=True),
        "maximal_grand": CheckDef(
            "maximal_grand",
            "||Mf||_grand <= C ||f||_grand (same (phi, A) bundle)",
            plain_ratios(lambda f: maximal(space, f), ev, ev)),
        "cz_grand": CheckDef(
            "cz_grand",
            "||Tf||_grand <= C ||f||_grand (same (phi, A) bundle)",
            plain_ratios(cz, ev, ev)),
        "cz_commutator_grand": CheckDef(
            "cz_commutator_grand",
            "||[b,T]f||_grand <= C ||b||_BMO ||f||_grand",
            pair_ratios(cz, ev, ev), needs_b=True),
        "potential_commutator_grand": CheckDef(
            "potential_commutator_grand",
            "||M([b,I^a]f)||_grand(psi,A2) <= C ||b||_BMO ||f||_grand(theta1,A1)",
            pair_ratios(pot, ev_out, ev_in,
                        post=lambda g: maximal(space, g)),
            needs_b=True),
    }
    for cp in cz_ps:
        key = f"cz_morrey_p{str(cp).replace('.', '_')}"
        checks[key] = CheckDef(
            key,
            "||Tf||_{p,lam} <= C_{p,lam} ||f||_{p,lam} (two-branch constant)",
            plain_ratios(cz, morrey(cp), morrey(cp)),
            formula=(lambda c, cp=cp: constant_formula("cz_morrey", p=cp,
                                                       lam=lam, c=c))
            if cp != 2 else None)
    return checks


def _potential_bundles(p: float, alpha: float, lam: float, theta: float,
                       delta: float, a2_slope: float, n_eps: int):
    """exps, input (theta1, A1) and output (psi, A2) bundles of the potential commutator."""
    exps = AuxExponents.derive(
        p, alpha, lam, theta1=theta, delta=delta,
        a2=TabulatedFunction.linear(a2_slope, np.geomspace(1e-6, 4.0, 33)))
    # A1 = A2 o phibar^{-1} is tabulated up to its last knot only
    grid_in = default_eps_grid(min(p - 1.0, float(exps.a1.xs[-1])) * 0.999,
                               ratio=0.7, max_points=n_eps)
    gp_in = GrandParams.tabulated(p, lam, TabulatedFunction.power(theta, grid_in),
                                  exps.a1, grid_in)
    grid_out = default_eps_grid(min(exps.q - 1.0, delta ** (1.0 / theta)) * 0.999,
                                ratio=0.7, max_points=n_eps)
    gp_out = GrandParams.tabulated(exps.q, lam, auxfun.psi_table(exps, grid_out),
                                   exps.a2, grid_out)
    return exps, gp_in, gp_out


def calibrate(check: CheckDef, frozen_f: Corpus, frozen_b: Corpus | None) -> dict:
    """Smallest absolute constant making the inequality hold on the frozen corpus."""
    ratios = check.ratios(frozen_f, frozen_b if check.needs_b else None)
    frozen_max, idx = _nanmax_with_arg(ratios)
    out = {"frozen_ratio": frozen_max, "worst_sample": idx,
           "corpus": frozen_f.descriptor}
    if check.formula is not None:
        f0, f1 = check.formula(0.0), check.formula(1.0)
        out["absolute_constant"] = max((frozen_max - f0) / (f1 - f0), 0.0)
    return out


def calibrated_regression(check: CheckDef, calibration: dict, fresh_f: Corpus,
                          fresh_b: Corpus | None, headroom: float = 1.5) -> VerificationReport:
    """Fresh-corpus ratios must stay within `headroom` of the frozen constant."""
    ratios = check.ratios(fresh_f, fresh_b if check.needs_b else None)
    fresh_max, idx = _nanmax_with_arg(ratios)
    bound = headroom * calibration["frozen_ratio"]
    theoretical = None
    if check.formula is not None and "absolute_constant" in calibration:
        theoretical = check.formula(calibration["absolute_constant"])
    return VerificationReport(
        check=check.name, claim=check.claim, corpus=fresh_f.descriptor,
        empirical={"fresh_ratio": fresh_max, "frozen_ratio": calibration["frozen_ratio"],
                   "headroom": headroom,
                   "absolute_constant": calibration.get("absolute_constant"),
                   "excluded": int(np.isnan(ratios).sum())},
        theoretical=theoretical, worst_sample=idx,
        passed=fresh_max <= bound * (1 + 1e-12),
        details={"calibration_corpus": calibration["corpus"]})


# ---------------------------------------------------------------------------
# Suite orchestration
# ---------------------------------------------------------------------------

DEFAULT_CONFIG = {
    "space": {"kind": "circle", "n": 256},
    "corpus": {"family": "mixed", "size": 500, "seed": 916},
    "calibration": {"family": "mixed", "size": 1000, "seed": 20260809,
                    "headroom": 1.5},
    "bmo_corpus": {"family": "bmo", "size": 16, "seed": 7},
    "params": {"p": 2.0, "lambda": 0.25, "theta": 1.0, "alpha": 0.25, "s": 1.5,
               "a_slope": 0.5, "a2_slope": 0.05, "delta": 0.5, "n_eps": 16,
               "cz_ps": [1.5, 3.0]},
    "tolerances": {"eta_tol": 1e-12, "slope_tol": 0.05,
                   "dominance_stability": 0.05, "fs_stability": 0.10,
                   "commutator_stability": 0.10, "embedding_rel_tol": 1e-12},
    "checks": ["eta_identity", "aux_functions", "dominance", "embedding_chain",
               "reduction_maximal", "reduction_cz",
               "maximal_morrey", "maximal_s_morrey", "cz_morrey_p1_5",
               "cz_morrey_p3_0", "potential_commutator_morrey",
               "maximal_grand", "cz_grand", "cz_commutator_grand",
               "potential_commutator_grand",
               "commutator_cz", "commutator_potential", "fefferman_stein"],
    "eta_draws": 1000,
    "seed": 0,
}


def _check_config_type(key: str, default, val) -> None:
    """ValueError naming `key` unless `val` has the JSON type of `default`: an
    integer for an int, a number for a float, and a list of such for a list."""
    if isinstance(default, float):
        ok, want = isinstance(val, (int, float)) and not isinstance(val, bool), "a number"
    elif isinstance(default, int):
        ok, want = isinstance(val, int) and not isinstance(val, bool), "an integer"
    else:
        ok, want = isinstance(val, type(default)), {
            str: "a string", list: "a list", dict: "an object"}[type(default)]
    if not ok:
        raise ValueError(f"config key {key!r} must be {want}, got {type(val).__name__}")
    if isinstance(default, list):
        for item in val:
            _check_config_type(key, default[0], item)


def merge_config(user: dict | None) -> dict:
    """DEFAULT_CONFIG updated by `user`; an unknown key, a value whose JSON
    type is not its default's, or a corpus size or `eta_draws` below 1 raises
    ValueError naming the key.  A `space` section naming a kind replaces the
    default's: build_space sizes the kind."""
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    for key, val in (user or {}).items():
        if key not in cfg:
            raise ValueError(f"unknown config key {key!r}")
        _check_config_type(key, cfg[key], val)
        if isinstance(val, dict):
            allowed = {"kind", "n", "path"} if key == "space" else set(cfg[key])
            if val.keys() - allowed:
                raise ValueError(f"unknown config keys in {key!r}: {sorted(val.keys() - allowed)}")
            for sub, v in val.items():
                _check_config_type(f"{key}.{sub}", cfg[key].get(sub, ""), v)  # path: a string
            if key == "space" and "kind" in val:  # the kind's own defaults, not the circle's
                cfg[key] = {}
            cfg[key].update(val)
        else:
            cfg[key] = val
    sizes = {f"{sec}.size": cfg[sec]["size"] for sec in ("corpus", "calibration", "bmo_corpus")}
    for key, val in {**sizes, "eta_draws": cfg["eta_draws"]}.items():
        if val < 1:
            raise ValueError(f"config key {key!r} must be at least 1, got {val}")
    return cfg


def build_space(space_cfg: dict) -> DiscreteHomSpace:
    """The space of a config's `space` section (or of the CLI's space flags).
    A "file" ending in .csv is a point cloud, any other a JSON table."""
    kind = space_cfg.get("kind", "circle")
    if kind == "circle":
        return build_uniform_grid(int(space_cfg.get("n", 256)), 1, "circle")
    if kind == "grid":
        return build_uniform_grid(int(space_cfg.get("n", 64)), 1, "interval")
    if kind == "grid2d":
        return build_uniform_grid(int(space_cfg.get("n", 16)), 2, "interval")
    if kind == "file":
        if "path" not in space_cfg:
            raise ValueError('space kind "file" needs a "path"')
        path = space_cfg["path"]
        from_csv = Path(path).suffix.lower() == ".csv"
        try:
            return (homspace.load_space_csv if from_csv else homspace.load_space_json)(path)
        except homspace.SpaceValidationError:
            raise
        except (ValueError, TypeError) as exc:
            raise ValueError(f"cannot parse space file {path}: {exc}") from exc
    raise ValueError(f"unknown space kind {kind!r}")


def _check_table(cfg: dict) -> dict[str, Callable[[], VerificationReport]]:
    """Every check a suite run knows, by name, as a call that makes its report.

    Calibrated checks come from `build_calibrated_checks`; the structural
    ones share the fresh and b corpora and a plain grand bundle (no A).
    """
    space = build_space(cfg["space"])
    par, tol = cfg["params"], cfg["tolerances"]
    p, lam, theta, s, n_eps = par["p"], par["lambda"], par["theta"], par["s"], int(par["n_eps"])
    size, seed = min(int(cfg["corpus"]["size"]), 256), int(cfg["corpus"]["seed"])
    gp = GrandParams.power(p, lam, theta, max_points=n_eps, ratio=0.7)
    calibrated = build_calibrated_checks(
        space, p=p, lam=lam, theta=theta, alpha=par["alpha"], s=s,
        a_slope=par["a_slope"], a2_slope=par["a2_slope"], delta=par["delta"],
        cz_ps=tuple(par["cz_ps"]), n_eps=n_eps)

    @functools.cache
    def corpus(key: str) -> Corpus:
        sec = cfg[key]
        return make_corpus(space, sec["family"], int(sec["size"]), int(sec["seed"]))

    @functools.cache
    def cz_operator() -> CZOperator:  # one for reduction_cz and commutator_cz
        return CZOperator(space, conjugate_kernel(space))

    fresh, bc = corpus("corpus"), corpus("bmo_corpus")
    grid = gp.eps_grid[1:]  # dominance sigmas: each needs a grid point below it
    sigmas = grid[grid < gp.smax * 0.95][-6:]

    def calibrated_report(name: str) -> VerificationReport:
        cal = calibrate(calibrated[name], corpus("calibration"), bc)
        return calibrated_regression(calibrated[name], cal, fresh, bc,
                                     headroom=float(cfg["calibration"]["headroom"]))

    def reduction(label: str, op: Callable) -> VerificationReport:
        if gp.eps_grid.size < 3:
            raise ValueError(f"reduction checks need 3 eps grid points: params.n_eps = {n_eps}")
        return reduction_transfer_check(
            space, op, lambda f: np.asarray(f, dtype=float), gp, gp,
            float(gp.eps_grid[-2]), fresh.samples, corpus_desc=fresh.descriptor,
            u_name=label, lam_name="Id")

    def commutator_cz() -> VerificationReport:
        # smooth oscillation family: its extremal pairs recur early, so
        # the max constants saturate well inside the corpus
        sub = make_corpus(space, "trig", size, seed + 2)
        return commutator_suite(
            space, "cz", sub.samples, bc.samples, params_in=gp,
            operator=cz_operator(), s=s, corpus_desc=sub.descriptor,
            stability_tol=float(tol["commutator_stability"]))

    def commutator_potential() -> VerificationReport:
        exps, gp_in, gp_out = _potential_bundles(p, par["alpha"], lam, theta,
                                                 par["delta"], par["a2_slope"], n_eps)
        return commutator_suite(
            space, "potential", fresh.samples[:256], bc.samples, params_in=gp_in,
            params_out=gp_out, exps=exps, s=s, corpus_desc=fresh.descriptor,
            stability_tol=float(tol["commutator_stability"]))

    def fefferman_stein() -> VerificationReport:
        mz = make_corpus(space, "mean_zero_mixed", size, seed + 1)
        return fefferman_stein_check(space, p, lam, mz.samples, corpus_desc=mz.descriptor,
                                     stability_tol=float(tol["fs_stability"]))

    return {
        **{name: functools.partial(calibrated_report, name) for name in calibrated},
        "eta_identity": lambda: eta_identity_report(
            int(cfg["eta_draws"]), int(cfg["seed"]), tol=float(tol["eta_tol"])),
        "aux_functions": lambda: aux_function_report(slope_tol=float(tol["slope_tol"])),
        "dominance": lambda: dominance_check(
            space, gp, sigmas, fresh.samples, corpus_desc=fresh.descriptor,
            stability_tol=float(tol["dominance_stability"])),
        "embedding_chain": lambda: embedding_chain_check(
            space, p, theta, 2.0 * theta, (p - 1) / 2.0, fresh.samples,
            corpus_desc=fresh.descriptor, rel_tol=float(tol["embedding_rel_tol"])),
        "reduction_maximal": lambda: reduction("M", lambda f: maximal(space, f)),
        "reduction_cz": lambda: reduction("T", cz_operator()),
        "commutator_cz": commutator_cz,
        "commutator_potential": commutator_potential,
        "fefferman_stein": fefferman_stein,
    }


def run_suite(config: dict | None = None) -> list[VerificationReport]:
    """Run the selected checks of a config and return their reports in order.

    Calibrated checks calibrate on the frozen corpus and re-check on the
    fresh one; structural checks (eta identity, dominance, embeddings,
    transfer, commutator suites, Fefferman-Stein) run on the fresh corpus.
    Every selected name is looked up before the first check runs.
    """
    cfg = merge_config(config)
    selected = list(cfg["checks"])
    if not selected:
        raise ValueError("no checks selected")
    table = _check_table(cfg)
    unknown = [name for name in selected if name not in table]
    if unknown:
        raise ValueError(f"unknown checks in config: {unknown}")
    return [table[name]() for name in selected]


def reports_to_json(reports: Sequence[VerificationReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True)


def reports_to_csv(reports: Sequence[VerificationReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check", "passed", "primary_constant", "theoretical", "corpus"])
    for r in reports:
        primary = next((v for v in r.empirical.values()
                        if isinstance(v, (int, float)) and not isinstance(v, bool)),
                       None)
        writer.writerow([r.check, int(r.passed),
                         "" if primary is None else repr(float(primary)),
                         "" if r.theoretical is None else repr(float(r.theoretical)),
                         r.corpus])
    return buf.getvalue()
