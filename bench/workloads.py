"""The three workloads: seeded inputs, set-up, one timed round, checks.

A workload object is made from the workload seed and a scratch directory
inside the checkout.  `setup()` makes, through public calls, what the
timed round needs; `round()` runs one whole round of operations and
returns how many it attempted and how many failed; `check()` tests the
outputs of the last round and runs the oracles, returning the failures.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

import oracles

# Reduction and commutator reports carry another name than their check.
_REPORT_NAME = {"reduction_maximal": "reduction_transfer[M]",
                "reduction_cz": "reduction_transfer[T]"}
_AT_LEAST_ONE = ("maximal_morrey", "maximal_s_morrey", "maximal_grand")
_REL = 1e-12


def _seeds(seed: int, k: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(k)]


class _VerifyWorkload:
    """`morreylab verify --config FILE --out DIR`, run in-process via cli.main."""

    n: int
    fresh: int
    calibration: int
    bmo: int
    checks: tuple
    eta_draws = 1000

    def __init__(self, ml, seed: int, workdir: Path):
        self.ml = ml
        s = _seeds(seed, 4)
        self.config = {
            "space": {"kind": "circle", "n": self.n},
            "corpus": {"family": "mixed", "size": self.fresh, "seed": s[0]},
            "calibration": {"family": "mixed", "size": self.calibration, "seed": s[1],
                            "headroom": 1.5},
            "bmo_corpus": {"family": "bmo", "size": self.bmo, "seed": s[2]},
            "eta_draws": self.eta_draws,
            "seed": s[3] % 2**31,
            "checks": list(self.checks),
        }
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2))
        self.outdir = workdir / "reports"
        self.last = None

    def setup(self):
        """The set-up calls run_suite makes for this config."""
        vf, cp = self.ml.verify, self.ml.corpus
        cfg = vf.merge_config(json.loads(self.config_path.read_text()))
        space = vf.build_space(cfg["space"])
        space.balls
        par = cfg["params"]
        corpora = {key: cp.make_corpus(space, cfg[key]["family"], int(cfg[key]["size"]),
                                       int(cfg[key]["seed"]))
                   for key in ("corpus", "bmo_corpus", "calibration")}
        checks = vf.build_calibrated_checks(
            space, p=par["p"], lam=par["lambda"], theta=par["theta"], alpha=par["alpha"],
            s=par["s"], a_slope=par["a_slope"], a2_slope=par["a2_slope"],
            delta=par["delta"], cz_ps=tuple(par["cz_ps"]), n_eps=int(par["n_eps"]))
        size = min(int(cfg["corpus"]["size"]), 256)
        if "fefferman_stein" in self.checks:
            corpora["mean_zero"] = cp.make_corpus(space, "mean_zero_mixed", size,
                                                  int(cfg["corpus"]["seed"]) + 1)
        self.space, self.corpora, self.par = space, corpora, par
        return checks

    def round(self):
        shutil.rmtree(self.outdir, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.ml.cli.main(["verify", "--config", str(self.config_path),
                                     "--out", str(self.outdir)])
        path = self.outdir / "reports.json"
        reports = json.loads(path.read_text()) if path.exists() else []
        self.last = (code, reports)
        failed = sum(1 for r in reports if not r["passed"])
        failed += max(len(self.checks) - len(reports), 0)
        return len(self.checks), failed

    def check(self) -> list[str]:
        code, reports = self.last
        bad = []
        if code != 0:
            bad.append(f"exit code {code}")
        names = [r["check"] for r in reports]
        want = [_REPORT_NAME.get(c, c) for c in self.checks]
        if names != want:
            bad.append(f"reports {names} != configured {want}")
        bad += [f"{r['check']} did not pass" for r in reports if not r["passed"]]
        by_name = {r["check"]: r for r in reports}
        for name in _AT_LEAST_ONE:
            emp = by_name.get(name, {}).get("empirical", {})
            for key in ("fresh_ratio", "frozen_ratio"):
                if name in by_name and not emp[key] >= 1.0 - _REL:
                    bad.append(f"{name} {key} = {emp[key]} < 1 although Mf >= |f|")
        if "embedding_chain" in by_name and by_name["embedding_chain"]["empirical"]["violations"]:
            bad.append("embedding_chain has violations")
        if "eta_identity" in by_name and not by_name["eta_identity"]["empirical"]["max_residual"] <= 1e-12:
            bad.append("eta_identity residual above 1e-12")
        bad += self._grand_oracle()
        return bad

    def _grand_oracle(self) -> list[str]:
        """Naive grand Morrey norm against grand_morrey_norm and the evaluator
        on sampled fresh-corpus functions, in the bundle of the grand checks."""
        fn = self.ml.funcnorm
        p, lam, theta = self.par["p"], self.par["lambda"], self.par["theta"]
        a_table = fn.TabulatedFunction.linear(self.par["a_slope"],
                                              np.linspace(0.0, p - 1.0, 33)[1:])
        gp = fn.GrandParams.power(p, lam, theta, A=a_table,
                                  max_points=int(self.par["n_eps"]), ratio=0.7)
        ev = fn.GrandNormEvaluator(self.space, gp)
        lam_eff = np.maximum(lam - gp.A(ev.grid), 0.0)
        phi_w = gp.phi(ev.grid) ** (1.0 / ev.pe)
        samples = self.corpora["corpus"].samples
        pick = np.random.default_rng(self.config["corpus"]["seed"]).choice(
            len(samples), size=3, replace=False)
        want = oracles.grand_morrey(self.space.dist, self.space.weight, samples[pick],
                                    p, ev.grid, lam_eff, phi_w)
        bad = []
        for i, w in zip(pick, want):
            for label, got in (("grand_morrey_norm", fn.grand_morrey_norm(self.space, samples[i], gp)),
                               ("GrandNormEvaluator", ev(samples[i]))):
                if not abs(got - w) <= _REL * abs(w):
                    bad.append(f"{label} of sample {i} = {got!r}, oracle {w!r}")
        return bad


class VerifyCircle(_VerifyWorkload):
    n, fresh, calibration, bmo = 64, 256, 128, 16
    # The default check list without commutator_cz and commutator_potential,
    # whose half-corpus stability verdict fails on some corpus seeds.
    checks = ("eta_identity", "aux_functions", "dominance", "embedding_chain",
              "reduction_maximal", "reduction_cz", "maximal_morrey", "maximal_s_morrey",
              "cz_morrey_p1_5", "cz_morrey_p3_0", "potential_commutator_morrey",
              "maximal_grand", "cz_grand", "cz_commutator_grand",
              "potential_commutator_grand", "fefferman_stein")

    def check(self) -> list[str]:
        return super().check() + self._pointwise_domination()

    def _pointwise_domination(self) -> list[str]:
        """|[b,I^a]f| <= M([b,I^a]f) from the commutator_potential suite,
        run on the first 32 fresh samples; its stability verdict is not used."""
        vf, fn, ax = self.ml.verify, self.ml.funcnorm, self.ml.auxfun
        par = self.par
        p, lam, theta = par["p"], par["lambda"], par["theta"]
        exps = ax.AuxExponents.derive(
            p, par["alpha"], lam, theta1=theta, delta=par["delta"],
            a2=fn.TabulatedFunction.linear(par["a2_slope"], np.geomspace(1e-6, 4.0, 33)))
        grid_in = fn.default_eps_grid(min(p - 1, float(exps.a1.xs[-1])) * 0.999,
                                      ratio=0.7, max_points=int(par["n_eps"]))
        gp_in = fn.GrandParams.tabulated(p, lam, fn.TabulatedFunction.power(theta, grid_in),
                                         exps.a1, grid_in)
        grid_out = fn.default_eps_grid(min(exps.q - 1.0, par["delta"] ** (1.0 / theta)) * 0.999,
                                       ratio=0.7, max_points=int(par["n_eps"]))
        gp_out = fn.GrandParams.tabulated(exps.q, lam, ax.psi_table(exps, grid_out),
                                          exps.a2, grid_out)
        rep = vf.commutator_suite(self.space, "potential", self.corpora["corpus"].samples[:32],
                                  self.corpora["bmo_corpus"].samples, params_in=gp_in,
                                  params_out=gp_out, exps=exps, s=par["s"])
        return [] if rep.empirical["pointwise_domination"] is True else \
            ["commutator_potential: |[b,I^a]f| > M([b,I^a]f) somewhere"]


class GrandLarge(_VerifyWorkload):
    n, fresh, calibration, bmo = 1024, 12, 10, 4
    eta_draws = 200
    checks = ("eta_identity", "embedding_chain", "dominance", "maximal_grand", "cz_grand")

    def check(self) -> list[str]:
        bad = super().check()
        op = self.ml.operators
        theta = self.space.labels[:, 0]
        tf = op.CZOperator(self.space, op.conjugate_kernel(self.space))(np.cos(theta))
        err = float(np.max(np.abs(tf - np.sin(theta))))
        if not err <= 0.02:
            bad.append(f"conjugate of cos is {err:.4f} from sin at n = {self.n}")
        return bad


class OscillationCloud:
    """A seeded 2-D cloud with non-uniform weights, ingested from JSON; the
    Fefferman-Stein check on a mean-zero corpus and the three BMO norms of
    a BMO corpus, called directly (run_suite cannot run on a space without
    1-D labels)."""

    n, fs_samples, bmo_samples = 192, 24, 2
    p, lam = 2.0, 0.25

    def __init__(self, ml, seed: int, workdir: Path):
        self.ml = ml
        s = _seeds(seed, 3)
        rng = np.random.default_rng(s[0])
        points = rng.random((self.n, 2))
        weight = rng.uniform(0.5, 1.5, self.n)
        self.weight = weight / weight.sum()
        diff = points[:, None, :] - points[None, :, :]
        self.dist = np.sqrt((diff ** 2).sum(axis=2))
        self.corpus_seeds = s[1] % 2**31, s[2] % 2**31
        self.path = workdir / "cloud.json"
        self.path.write_text(json.dumps({
            "n": self.n, "dist": self.dist.tolist(), "weight": self.weight.tolist(),
            "ct": 1.0, "cs": 1.0, "labels": points.tolist()}))
        self.last = None

    def setup(self):
        cp = self.ml.corpus
        space = self.ml.homspace.load_space_json(self.path)
        space.balls
        self.space = space
        self.mean_zero = cp.make_corpus(space, "mean_zero_mixed", self.fs_samples,
                                        self.corpus_seeds[0])
        self.bmo = cp.make_corpus(space, "bmo", self.bmo_samples, self.corpus_seeds[1])
        return space

    def round(self):
        """One Fefferman-Stein evaluation and 3 BMO norms per b.

        The report's verdict (half-corpus drift within 10 percent) is not
        counted: on these clouds it fails for some corpus seeds at every
        affordable corpus size.  The evaluation fails if it raises or its
        constant is not finite."""
        vf, fn = self.ml.verify, self.ml.funcnorm
        failed = 0
        try:
            fs = vf.fefferman_stein_check(self.space, self.p, self.lam, self.mean_zero.samples,
                                          corpus_desc=self.mean_zero.descriptor)
            failed += not math.isfinite(fs.empirical["C_emp"])
        except ValueError:
            fs = None
            failed += 1
        norms = []
        for b in self.bmo.samples:
            row = {}
            for variant, p in (("mean", None), ("jn", 2.0), ("inf", None)):
                try:
                    row[variant] = fn.bmo_norm(self.space, b, variant, p=p)
                except ValueError:
                    failed += 1
            norms.append(row)
        self.last = (fs, norms)
        return 1 + 3 * len(self.bmo.samples), failed

    def check(self) -> list[str]:
        op, fn = self.ml.operators, self.ml.funcnorm
        fs, norms = self.last
        sp, dist, w = self.space, self.dist, self.weight
        bad = []
        if not np.array_equal(sp.dist, dist) or not np.array_equal(sp.weight, w):
            bad.append("ingested table differs from the generated distances")
        rng = np.random.default_rng(self.corpus_seeds[0])
        centers = rng.choice(self.n, size=4, replace=False)
        mu = sp.total_measure
        ratios = []
        for i, f in enumerate(self.mean_zero.samples):
            f0 = f - float(f @ w) / mu
            sharp = op.sharp_maximal(sp, f0)
            mf = op.maximal(sp, f0)
            if not np.all(sharp <= 2.0 * mf * (1 + _REL) + 1e-300):
                bad.append(f"f# > 2Mf on mean-zero sample {i}")
            if i < 2:
                ref = oracles.sharp_maximal_at(dist, w, f0, centers)
                if not np.allclose(sharp[centers], ref, rtol=_REL, atol=0.0):
                    bad.append(f"sharp maximal of sample {i} differs from the oracle")
            den = fn.morrey_norm(sp, sharp, self.p, self.lam)
            if den > 0:
                ratios.append(fn.morrey_norm(sp, mf, self.p, self.lam) / den)
        # C_emp is the largest ratio; f# <= 2Mf puts every ratio at 1/2 or more
        if fs is None or fs.empirical["C_emp"] != max(ratios, default=0.0) \
                or not min(ratios, default=0.5) >= 0.5:
            bad.append("Fefferman-Stein constant differs from the per-sample ratios")
        for j, (b, row) in enumerate(zip(self.bmo.samples, norms)):
            if len(row) < 3:
                continue
            lo, mid, hi = row["inf"], row["mean"], row["jn"]
            if not (lo <= mid * (1 + _REL) and mid <= hi * (1 + _REL)
                    and mid <= 2.0 * lo * (1 + _REL)):
                bad.append(f"BMO ordering fails for b[{j}]: inf {lo}, mean {mid}, jn {hi}")
            ref = oracles.bmo_inf(dist, w, b)
            if not abs(ref - lo) <= _REL * ref:
                bad.append(f"BMO-inf of b[{j}] = {lo!r}, oracle {ref!r}")
            balls = [(int(c), int(k)) for c, k in zip(centers, rng.integers(0, self.n, 4))]
            if not oracles.weighted_median_gap(dist, w, b, balls) <= _REL:
                bad.append(f"weighted median of b[{j}] misses the minimum")
        return bad


WORKLOADS = {"verify-circle": VerifyCircle, "oscillation-cloud": OscillationCloud,
             "grand-large": GrandLarge}


def scratch_dir(root: Path, name: str) -> Path:
    out = root / "bench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out))
