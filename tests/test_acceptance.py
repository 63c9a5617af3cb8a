"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The calibrated-constant regression (criterion 8) freezes constants
on a 1000-sample corpus and re-checks a fresh 500-sample corpus against a
1.5x headroom at n = 256; its end-to-end budget is ten minutes.
"""

import json
import time

import numpy as np
import pytest

from morreylab.auxfun import AuxExponents, eta_identity_residual, eval_aux
from morreylab.cli import main
from morreylab.corpus import make_corpus
from morreylab.funcnorm import (GrandParams, bmo_norm, default_eps_grid,
                                grand_lebesgue_norm, grand_morrey_norm,
                                lp_norm, morrey_norm)
from morreylab.homspace import (build_from_table, build_uniform_grid,
                                space_from_points)
from morreylab.operators import (CZOperator, PotentialOperator, commutator,
                                 conjugate_kernel, cz_apply, maximal,
                                 maximal_s, potential_apply, sharp_maximal)
from morreylab.verify import (build_calibrated_checks, calibrate,
                              calibrated_regression, eta_identity_report,
                              aux_function_report, fefferman_stein_check)


def _line(num, desc, passed, extra=""):
    tag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{tag}] {desc}" + (f" ({extra})" if extra else ""))
    assert passed, f"criterion {num}: {desc} {extra}"


@pytest.fixture(scope="module")
def circle256():
    return build_uniform_grid(256, 1, "circle")


def test_criterion_01_eta_identity():
    t0 = time.perf_counter()
    rep = eta_identity_report(n_draws=1000, seed=0, tol=1e-12)
    dt = time.perf_counter() - t0
    _line(1, "eta identity residual <= 1e-12 over 1000 draws",
          rep.passed and dt < 1.0,
          f"max residual {rep.empirical['max_residual']:.2e}, {dt:.2f}s")


def test_criterion_02_aux_values_and_slope():
    exps = AuxExponents.derive(2.0, 0.25, 0.0, theta1=1.0, delta=1.0)
    v = eval_aux(1.0, exps)
    spot = abs(v.phibar - 2.0 / 7.0) <= 1e-12 and abs(v.abar - 7.0 / 4.0) <= 1e-12
    rep = aux_function_report(slope_tol=0.05)
    _line(2, "phibar(1)=2/7, abar(1)=7/4 exact; psi log-log slope within 0.05",
          spot and rep.passed,
          f"slope {rep.empirical['psi_loglog_slope']:.4f} vs "
          f"{rep.empirical['slope_target']:.4f}")


def test_criterion_03_grand_morrey_oracle():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(4, 51))
        pts = rng.random((n, 2))
        w = rng.uniform(0.5, 1.5, n) / n
        sp = space_from_points(pts, w)
        p = float(rng.uniform(1.5, 3.0))
        lam = float(rng.uniform(0.0, 0.8))
        smax = p - 1.0
        grid = np.geomspace(0.01 * smax, 0.9 * smax, 8)
        gp = GrandParams.power(p, lam, float(rng.uniform(0.5, 2.0)),
                               eps_grid=grid)
        f = rng.normal(size=n)
        fast = grand_morrey_norm(sp, f, gp)
        # oracle: naive triple loop over (eps, center, radius), memberships
        # recomputed from raw distance rows
        best = 0.0
        av = np.abs(f)
        for eps in grid:
            pe = p - eps
            wgt = gp.phi(eps) ** (1.0 / pe)
            for c in range(n):
                row = sp.dist[c]
                for rho in np.unique(row):
                    members = row <= rho
                    mu = sp.weight[members].sum()
                    ssum = (av[members] ** pe * sp.weight[members]).sum()
                    best = max(best, wgt * (ssum / mu**lam) ** (1.0 / pe))
        worst = max(worst, abs(fast - best) / best)
    dt = time.perf_counter() - t0
    _line(3, "grand Morrey equals triple-loop oracle on 100 random spaces",
          worst <= 1e-12 and dt < 30.0, f"worst rel err {worst:.2e}, {dt:.1f}s")


def test_criterion_04_pointwise_operator_properties():
    rng = np.random.default_rng(7)
    big = build_uniform_grid(1024, 1, "circle")
    cloud = space_from_points(rng.random((257, 2)),
                              rng.uniform(0.5, 1.5, 257) / 257)
    ok = True
    notes = []
    for sp in (big, cloud):
        f = rng.normal(size=sp.n)
        g = rng.normal(size=sp.n)
        mf = maximal(sp, f)
        ok &= bool(np.all(mf >= np.abs(f) - 1e-12))
        sharp = sharp_maximal(sp, f)
        ok &= bool(np.all(sharp <= 2.0 * mf + 1e-12))
        prev = maximal_s(sp, f, 1.0)
        for s in (1.5, 2.0, 3.0):
            cur = maximal_s(sp, f, s)
            ok &= bool(np.all(cur >= prev - 1e-12))
            prev = cur
        pot = PotentialOperator(sp, 0.5)
        const_comm = commutator(np.full(sp.n, 2.5), pot, f)
        ok &= bool(np.max(np.abs(const_comm)) <= 1e-12 * max(1.0, np.max(np.abs(pot(f)))))
        lin_pot = pot(2.0 * f - 3.0 * g) - (2.0 * pot(f) - 3.0 * pot(g))
        ok &= bool(np.max(np.abs(lin_pot)) <= 1e-10 * max(1.0, np.max(np.abs(pot(f)))))
    op = CZOperator(big, conjugate_kernel(big))
    f = rng.normal(size=1024)
    g = rng.normal(size=1024)
    lin_cz = op(2.0 * f - 3.0 * g) - (2.0 * op(f) - 3.0 * op(g))
    ok &= bool(np.max(np.abs(lin_cz)) <= 1e-10 * max(1.0, np.max(np.abs(op(f)))))
    const_cz = commutator(np.full(1024, -1.5), op, f)
    ok &= bool(np.max(np.abs(const_cz)) <= 1e-10 * max(1.0, np.max(np.abs(op(f)))))
    _line(4, "pointwise operator facts exact to 1e-12 on N <= 1024", ok)


def test_criterion_05_circle_conjugate_regression():
    t0 = time.perf_counter()
    sp = build_uniform_grid(512, 1, "circle")
    theta = sp.labels.ravel()
    tf = cz_apply(sp, conjugate_kernel(sp), np.cos(theta))
    # oracle: dense staggered quadrature of the principal-value integral at
    # 2^16 nodes (symmetric around each target, so the singularity cancels)
    m = 2**16
    offs = (np.arange(m) + 0.5) * 2.0 * np.pi / m
    oracle = np.empty(512)
    for i, t in enumerate(theta):
        phi = t + offs
        oracle[i] = np.sum(np.cos(phi) / np.tan((t - phi) / 2.0)) / m
    oracle_err = float(np.max(np.abs(oracle - np.sin(theta))))
    sup_err = float(np.max(np.abs(tf - np.sin(theta))))
    dt = time.perf_counter() - t0
    _line(5, "N=512 conjugate of cos within 0.02 of sin",
          sup_err <= 0.02 and oracle_err <= 1e-8 and dt < 5.0,
          f"sup err {sup_err:.4f}, oracle err {oracle_err:.1e}, {dt:.1f}s")


def test_criterion_06_hand_fixtures():
    two = build_from_table([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])
    grid3 = build_uniform_grid(3, 1, "interval")
    pot = potential_apply(two, [0.0, 1.0], 0.5)
    ok = abs(pot[0] - 2.0 ** -0.5) <= 1e-12
    ok &= abs(morrey_norm(grid3, [1.0, 0.0, 0.0], 1.0, 0.5) - 3.0 ** -0.5) <= 1e-12
    ok &= abs(bmo_norm(two, [0.0, 1.0], "mean") - 0.5) <= 1e-12
    mx = maximal(grid3, [1.0, 0.0, 0.0])
    ok &= bool(np.max(np.abs(mx - np.array([1.0, 1 / 3, 1 / 3]))) <= 1e-12)
    _line(6, "hand-computed fixtures exact to 1e-12", ok)


def test_criterion_07_embedding_chain():
    sp = build_uniform_grid(64, 1, "circle")
    corp = make_corpus(sp, "mixed", 500, 12345)
    grid = default_eps_grid(0.999999, ratio=0.8)
    violations = 0
    for f in corp.samples:
        g1 = grand_lebesgue_norm(sp, f, 2.0, 1.0, grid)
        g2 = grand_lebesgue_norm(sp, f, 2.0, 2.0, grid)
        if not g2 <= g1 * (1 + 1e-12):
            violations += 1
    _line(7, "grand Lebesgue ordering theta2 >= theta1 exact over 500 samples",
          violations == 0, f"{violations} violations")


def test_criterion_08_calibrated_regression(circle256):
    t0 = time.perf_counter()
    checks = build_calibrated_checks(circle256, p=2.0, lam=0.25, theta=1.0,
                                     alpha=0.25, s=1.5, a_slope=0.5,
                                     a2_slope=0.05, delta=0.5,
                                     cz_ps=(1.5, 3.0), n_eps=16)
    frozen = make_corpus(circle256, "mixed", 1000, 20260809)
    fresh = make_corpus(circle256, "mixed", 500, 916)
    bs = make_corpus(circle256, "bmo", 16, 7)
    failures = []
    for name, chk in checks.items():
        cal = calibrate(chk, frozen, bs)
        rep = calibrated_regression(chk, cal, fresh, bs, headroom=1.5)
        status = "ok" if rep.passed else "FAIL"
        print(f"    {name:32s} frozen={cal['frozen_ratio']:.4f} "
              f"fresh={rep.empirical['fresh_ratio']:.4f} [{status}]")
        if not rep.passed:
            failures.append(name)
    dt = time.perf_counter() - t0
    _line(8, "fresh-corpus ratios within 1.5x frozen calibration",
          not failures and dt < 600.0, f"{dt:.0f}s, failures: {failures}")


def test_criterion_09_fefferman_stein(circle256):
    corp = make_corpus(circle256, "mean_zero_mixed", 160, 917)
    rep = fefferman_stein_check(circle256, 2.0, 0.25, corp.samples,
                                stability_tol=0.10)
    _line(9, "Fefferman-Stein constant stable within 10% under doubling",
          rep.passed,
          f"C={rep.empirical['C_emp']:.3f}, drift={rep.empirical['drift']:.3f}")


def test_default_verify_suite_end_to_end(tmp_path):
    """`morreylab verify` with no config runs every suite at n = 256 and all
    verdicts pass; reports land as JSON plus a CSV summary."""
    t0 = time.perf_counter()
    code = main(["verify", "--out", str(tmp_path)])
    dt = time.perf_counter() - t0
    text = (tmp_path / "reports.json").read_text()
    reports = json.loads(text)
    failing = [r["check"] for r in reports if not r["passed"]]
    assert (tmp_path / "reports.csv").exists()
    assert '"pointwise_domination": true' in text
    assert '"exact_ordering_asserted": true' in text
    print(f"    default suite: {len(reports)} checks in {dt:.0f}s")
    _line(0, "default verification suite passes end to end",
          code == 0 and not failing, f"failing: {failing}")


def test_criterion_10_determinism(tmp_path):
    cfg = {
        "space": {"kind": "circle", "n": 64},
        "corpus": {"family": "mixed", "size": 24, "seed": 3},
        "calibration": {"family": "mixed", "size": 40, "seed": 4,
                        "headroom": 1.5},
        "bmo_corpus": {"family": "bmo", "size": 6, "seed": 5},
        "params": {"n_eps": 8},
        "eta_draws": 100,
        "seed": 0,
        "checks": ["eta_identity", "dominance", "maximal_morrey", "cz_grand"],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for sub in ("a", "b"):
        code = main(["verify", "--config", str(cfg_path), "--seed", "0",
                     "--out", str(tmp_path / sub)])
        assert code == 0
        outs.append((tmp_path / sub / "reports.json").read_bytes())
    _line(10, "identical config and seed give byte-identical JSON",
          outs[0] == outs[1])
