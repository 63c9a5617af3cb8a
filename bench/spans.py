"""Span recorder that times calls into morreylab from outside the package.

`Tracer.install` replaces the public functions of each module, the names
that `verify` and `cli` bind with `from ... import`, and the methods of
`BallFamily`, `GrandNormEvaluator`, `CZOperator` and `PotentialOperator`
with wrappers that record one span per call: id, name, start, end, parent
span, thread, the harness phase it ran in, and call details (an input
digest for the repeat counts, bytes computed from array sizes, the check
name).  Spans stay in memory; `Tracer.dump` writes them out at the end.
`uninstall` restores every replaced attribute.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import threading
import time
import weakref
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Check reports whose name differs from the check's config name.
_REDUCTION_NAMES = {"M": "reduction_maximal", "T": "reduction_cz"}
_COMMUTATOR_NAMES = {"cz": "commutator_cz", "potential": "commutator_potential"}


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray)
                 else repr(part).encode())
    return h.hexdigest()


class Tracer:
    def __init__(self):
        self.spans = []
        self.phase = ("setup", 0)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore = []
        self._ev_keys = weakref.WeakKeyDictionary()
        self._space_ranks = {}

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, details=None):
        """Wrap `fn` so each call records a span named `name`.

        `details(args, kwargs)` returns a dict stored with the span; it runs
        before the clock starts, so its cost lands on the caller's span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = details(args, kwargs) if details is not None else None
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent,
                                     threading.get_ident(), tracer.phase, extra))

        return traced

    def adopt(self, parent, fn, *args, **kwargs):
        """Run `fn` in a pool thread as a child of the submitter's span."""
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None
                return super().submit(tracer.adopt, parent, fn, *args, **kwargs)

        return TracedPool

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_fn(self, modules, attr, name, details=None):
        """Wrap one function under `attr` in every module that binds it."""
        original = getattr(modules[0], attr)
        traced = self.wrap(original, name, details)
        for mod in modules:
            if getattr(mod, attr) is not original:
                raise RuntimeError(f"{mod.__name__}.{attr} is not {modules[0].__name__}.{attr}")
            self._patch(mod, attr, traced)

    def install(self, ml) -> None:
        """Wrap the layers of the imported package `ml` (morreylab)."""
        hs, fn, op, ax, cp = ml.homspace, ml.funcnorm, ml.operators, ml.auxfun, ml.corpus
        vf, cli = ml.verify, ml.cli

        # homspace
        self._patch_fn([hs], "load_space_json", "homspace.load_space_json")
        self._patch_fn([hs, vf], "build_uniform_grid", "homspace.build_uniform_grid")
        self._patch_fn([hs, vf], "doubling_constant", "homspace.doubling_constant")
        build = hs.BallFamily.__dict__["build"].__func__
        self._patch(hs.BallFamily, "build",
                    staticmethod(self.wrap(build, "homspace.ball_family")))
        prop = hs.BallFamily.__dict__["open_measure"]
        self._patch(hs.BallFamily, "open_measure",
                    property(self.wrap(prop.fget, "homspace.open_measure")))

        # corpus
        self._patch_fn([cp, vf], "make_corpus", "corpus.make_corpus")

        # funcnorm
        ev_cls = fn.GrandNormEvaluator
        self._patch(ev_cls, "__init__", self.wrap(ev_cls.__init__, "funcnorm.evaluator_init"))
        self._patch(ev_cls, "morrey_vector",
                    self.wrap(ev_cls.morrey_vector, "funcnorm.morrey_vector",
                              self._morrey_vector_details))
        self._patch_fn([fn], "morrey_norm_detail", "funcnorm.morrey_norm")
        self._patch_fn([fn, vf], "bmo_norm", "funcnorm.bmo_norm", self._bmo_details)

        # operators
        self._patch_fn([op, vf], "sharp_maximal", "operators.sharp_maximal",
                       self._sharp_details)
        self._patch_fn([op, vf], "maximal", "operators.maximal")
        self._patch_fn([op], "cz_apply", "operators.cz_apply")
        self._patch_fn([op], "potential_apply", "operators.potential_apply")
        self._patch_fn([op, vf], "commutator", "operators.commutator")
        for attr in ("kernel_from_matrix", "validate_kernel"):
            self._patch_fn([op], attr, "operators.operator_init")
        self._patch_fn([op, vf], "conjugate_kernel", "operators.operator_init")
        for cls, call_name in ((op.CZOperator, "operators.cz_apply"),
                               (op.PotentialOperator, "operators.potential_apply")):
            self._patch(cls, "__init__", self.wrap(cls.__init__, "operators.operator_init"))
            self._patch(cls, "__call__", self.wrap(cls.__call__, call_name))

        # auxfun
        self._patch_fn([ax, vf], "eta_identity_residual", "auxfun.eta_identity_residual")

        # verify: orchestration, set-up helpers and one span per check
        self._patch_fn([vf], "run_suite", "verify.run_suite")
        self._patch_fn([vf], "build_space", "verify.build_space")
        self._patch_fn([vf], "build_calibrated_checks", "verify.build_calibrated_checks")
        fixed = {"eta_identity_report": "eta_identity",
                 "aux_function_report": "aux_functions",
                 "dominance_check": "dominance",
                 "embedding_chain_check": "embedding_chain",
                 "fefferman_stein_check": "fefferman_stein"}
        for attr, check in fixed.items():
            self._patch_fn([vf], attr, "verify.check", lambda a, k, c=check: {"check": c})
        for attr in ("calibrate", "calibrated_regression"):
            self._patch_fn([vf], attr, "verify.check", lambda a, k: {"check": a[0].name})
        self._patch_fn([vf], "reduction_transfer_check", "verify.check",
                       lambda a, k: {"check": _REDUCTION_NAMES[k["u_name"]]})
        self._patch_fn([vf], "commutator_suite", "verify.check",
                       lambda a, k: {"check": _COMMUTATOR_NAMES[a[1]]})
        self._patch(vf, "ThreadPoolExecutor", self.pool_class())

        # cli
        self._patch_fn([cli], "main", "cli.main")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- call details ------------------------------------------------------

    def _morrey_vector_details(self, args, kwargs):
        ev, f = args[0], args[1]
        key = self._ev_keys.get(ev)
        if key is None:
            lam_eff = np.maximum(ev.params.lam - ev.params.A(ev.grid), 0.0)
            key = self._ev_keys[ev] = (id(ev.space), _digest(ev.pe, lam_eff))
        n, e = ev.space.n, ev.pe.size
        ranks = ev.mu_pow.shape[1]
        # powers (N x E) written; gather and cumsum over the N x N x E work
        # buffer read and written twice; rank gather, scaling and max over
        # the N x R x E table (2 + 3 + 1 passes)
        nbytes = 8 * (n * e + 4 * n * n * e + 6 * n * ranks * e)
        return {"key": _digest(key, np.asarray(f, dtype=float)), "bytes": nbytes}

    def _sharp_details(self, args, kwargs):
        space, f = args[0], args[1]
        # spaces hash by value and cannot be weak keys: key by id, check liveness
        ref, ranks = self._space_ranks.get(id(space), (None, 0))
        if ref is None or ref() is not space:
            ranks = int(space.balls.n_ranks.sum())
            self._space_ranks[id(space)] = (weakref.ref(space), ranks)
        # per center: (ranks x N) deviation table written, weighted, then
        # cumulated (read and written): 5 passes of 8-byte doubles
        return {"key": _digest(id(space), np.asarray(f, dtype=float)),
                "bytes": 8 * 5 * ranks * space.n}

    def _bmo_details(self, args, kwargs):
        variant = args[2] if len(args) > 2 else kwargs.get("variant", "mean")
        p = args[3] if len(args) > 3 else kwargs.get("p")
        return {"key": _digest(id(args[0]), variant, p, np.asarray(args[1], dtype=float)),
                "variant": variant}

    # -- output ------------------------------------------------------------

    def dump(self, path, summary: dict) -> None:
        spans = [{"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4],
                  "thread": s[5], "phase": list(s[6]), **(s[7] or {})}
                 for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"summary": summary, "spans": spans}, fh)


def _union_length(intervals, lo, hi) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _tail(sorted_ms: list) -> float:
    """The highest percentile with at least ten calls beyond it; with fewer
    than forty calls there is no such tail and the median is reported."""
    n = len(sorted_ms)
    if n < 40:
        return sorted_ms[n // 2]
    return sorted_ms[n - 11]


def per_layer_metrics(spans, setup_reps: int, rounds: int) -> dict:
    """Per-layer figures for one set-up plus one timed round.

    Totals over the set-up repetitions are divided by their number, totals
    over the timed rounds by theirs; spans of the check phase are left out.
    Self time is a span's duration less the union of its children's.
    """
    spans = [s for s in spans if s[6][0] in ("setup", "round")]
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append((s[2], s[3]))
    unit_w = {"setup": 1.0 / setup_reps, "round": 1.0 / rounds}

    self_s = defaultdict(float)
    check_s = defaultdict(float)
    calls = defaultdict(lambda: {"setup": 0, "round": 0})
    nbytes = defaultdict(lambda: {"setup": 0, "round": 0})
    durations = defaultdict(list)
    distinct = defaultdict(set)
    for sid, name, t0, t1, parent, _thread, phase, extra in spans:
        w = unit_w[phase[0]]
        own = (t1 - t0) - _union_length(children.get(sid, ()), t0, t1)
        layer = name.split(".")[0] if name.startswith(("verify.", "cli.")) else name
        self_s[layer] += w * own
        calls[name][phase[0]] += 1
        durations[name].append(1e3 * (t1 - t0))
        if name == "verify.check":
            check_s[extra["check"]] += w * (t1 - t0)
        if extra:
            if "bytes" in extra:
                nbytes[name][phase[0]] += extra["bytes"]
            if "key" in extra:
                distinct[name].add((phase, extra["key"]))
            if "variant" in extra:
                self_s[f"{name}.{extra['variant']}"] += w * own

    def per_unit(counts):
        return counts["setup"] / setup_reps + counts["round"] / rounds

    out = {f"{layer}.self_s": v for layer, v in self_s.items()}
    out.update({f"{name}.calls": per_unit(v) for name, v in calls.items()})
    out.update({f"{name}.gb_computed": per_unit(v) / 1e9 for name, v in nbytes.items()})
    out.update({f"verify.check.{check}.s": v for check, v in check_s.items()})
    for name, ms in durations.items():
        ms.sort()
        out[f"{name}.p50_ms"] = ms[len(ms) // 2]
        out[f"{name}.tail_ms"] = _tail(ms)
        if name in distinct:
            out[f"{name}.distinct_ratio"] = len(distinct[name]) / len(ms)
    return out
