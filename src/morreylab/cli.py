"""Command-line entry point.

Subcommands:
  space   build or load a space, run the axiom and doubling diagnostics
  norm    evaluate one norm of a function on a space
  op      apply an operator and emit its values
  verify  run verification suites from a config file (or the defaults)

Exit codes: 0 all checks passed, 1 a verification or a space axiom failed,
2 usage, config or input-file error.  Identical (config, seed) pairs
produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import funcnorm, homspace, operators, verify
from .funcnorm import GrandParams, default_eps_grid
from .homspace import DiscreteHomSpace, SpaceValidationError

USAGE_ERROR = 2
CHECK_FAILURE = 1


def _emit(payload):
    print(json.dumps(payload, indent=2, sort_keys=True))


def _read(path: str, what: str, parse=json.loads):
    """`parse` of a function, kernel or config file's text; a parse failure
    raises ValueError naming the file (FileNotFoundError names it too)."""
    try:
        return parse(Path(path).read_text())
    except (ValueError, TypeError) as exc:
        raise ValueError(f"cannot parse {what} file {path}: {exc}") from exc


def _json_floats(text: str) -> np.ndarray:
    return np.asarray(json.loads(text), dtype=float)


def _csv_column(text: str) -> np.ndarray:
    return np.asarray([float(line.split(",")[0]) for line in text.splitlines()
                       if line.strip() and not line.lstrip().startswith("#")])


def load_space(args) -> DiscreteHomSpace:
    """The space of --grid N, --circle N or --space FILE, by `verify.build_space`."""
    if args.grid:
        spec = {"kind": "grid", "n": args.grid}
    elif args.circle:
        spec = {"kind": "circle", "n": args.circle}
    elif args.space:
        spec = {"kind": "file", "path": args.space}
    else:
        raise ValueError("no space given: use --grid N, --circle N, or --space FILE")
    return verify.build_space(spec)


def load_values(space: DiscreteHomSpace, path: str) -> np.ndarray:
    parse = _csv_column if Path(path).suffix.lower() == ".csv" else _json_floats
    arr = _read(path, "function", parse)
    if arr.shape != (space.n,):
        raise ValueError(f"function length {arr.shape} does not match space n={space.n}")
    return arr


def cmd_space(args) -> int:
    space = load_space(args)
    report = {"n": space.n, "ct": space.ct, "cs": space.cs,
              "diameter": space.diameter, "total_measure": space.total_measure}
    checks = args.check or ["all"]
    run_all = "all" in checks
    ok = True
    if run_all or "doubling" in checks:
        report["doubling_constant"] = homspace.doubling_constant(space)
    if run_all or "reverse" in checks:
        try:
            c, gamma = homspace.reverse_doubling_exponent(space)
            report["reverse_doubling"] = {"C": c, "gamma": gamma}
        except homspace.DegenerateFit as exc:
            report["reverse_doubling"] = {"error": str(exc)}
    if run_all or "annulus" in checks:
        ann = homspace.check_annulus(space)
        report["annulus"] = {"passed": ann.passed,
                             "witnesses": ann.witnesses, "note": ann.note}
        ok = ok and ann.passed
    _emit(report)
    return 0 if ok else CHECK_FAILURE


_NORM_NAMES = ("lp", "morrey", "bmo", "grand_lebesgue", "grand_morrey")


def cmd_norm(args) -> int:
    space = load_space(args)
    f = load_values(space, args.f) if args.f else np.zeros(space.n)
    name = args.norm
    if name not in _NORM_NAMES:
        raise ValueError(f"unknown norm {name!r}; choose from {_NORM_NAMES}")
    params = {"p": args.p}
    argmax = {"eps": None, "center": None, "radius_rank": None}
    if name == "lp":
        value = funcnorm.lp_norm(space, f, args.p)
    elif name == "morrey":
        params["lambda"] = args.lam
        res = funcnorm.morrey_norm_detail(space, f, args.p, args.lam)
        value = res.value
        argmax.update(center=res.center, radius_rank=res.rank)
    elif name == "bmo":
        params = {"variant": args.variant}
        if args.variant == "jn":  # the only variant with an exponent
            params["p"] = args.p
        value = funcnorm.bmo_norm(space, f, args.variant, p=params.get("p"))
    elif name == "grand_lebesgue":
        params["theta"] = args.theta
        grid = default_eps_grid((args.p - 1) * 0.999999)
        res = funcnorm.grand_lebesgue_norm_detail(space, f, args.p, args.theta, grid)
        value = res.value
        argmax.update(eps=res.eps)
    else:
        params.update({"lambda": args.lam, "theta": args.theta})
        gp = GrandParams.power(args.p, args.lam, args.theta)
        res = funcnorm.grand_morrey_norm_detail(space, f, gp)
        value = res.value
        argmax.update(eps=res.eps, center=res.center, radius_rank=res.rank)
    _emit({"norm": name, "params": params, "value": value, "argmax": argmax})
    return 0


def cmd_op(args) -> int:
    space = load_space(args)
    f = load_values(space, args.f)
    name = args.op
    params = {}
    if name == "maximal":
        out = operators.maximal(space, f)
    elif name == "maximal_s":
        out = operators.maximal_s(space, f, args.s)
        params["s"] = args.s
    elif name == "sharp":
        out = operators.sharp_maximal(space, f)
    elif name == "cz":
        if args.kernel_file:
            table = _read(args.kernel_file, "kernel", _json_floats)
            if table.shape != (space.n, space.n):
                raise ValueError(f"kernel table shape {table.shape} does not "
                                 f"match space n={space.n}")
            kern = operators.kernel_from_matrix(space, table, name="file")
            params["kernel"] = "file"
        else:
            kern = (operators.conjugate_kernel(space) if args.kernel == "conjugate"
                    else operators.hilbert_kernel(space))
            params["kernel"] = args.kernel
        out = operators.cz_apply(space, kern, f)
    else:  # "potential", the last of --op's choices
        out = operators.potential_apply(space, f, args.alpha)
        params["alpha"] = args.alpha
    _emit({"op": name, "params": params, "values": out.tolist()})
    return 0


def cmd_verify(args) -> int:
    user_cfg = _read(args.config, "config") if args.config else {}
    if not isinstance(user_cfg, dict):
        raise ValueError(f"config file {args.config} must hold a JSON object")
    if args.seed is not None:
        user_cfg["seed"] = args.seed
    reports = verify.run_suite(user_cfg)
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "reports.json").write_text(verify.reports_to_json(reports))
    (out_dir / "reports.csv").write_text(verify.reports_to_csv(reports))
    all_pass = all(r.passed for r in reports)
    for r in reports:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.check}")
    print(f"wrote {out_dir / 'reports.json'} and {out_dir / 'reports.csv'}")
    return 0 if all_pass else CHECK_FAILURE


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="morreylab",
                                 description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_space_args(p):
        p.add_argument("--space", help="space file (JSON table or CSV point cloud)")
        p.add_argument("--grid", type=int, help="uniform interval grid with N points")
        p.add_argument("--circle", type=int, help="uniform circle with N points")

    ps = sub.add_parser("space", help="validate a space and report diagnostics")
    add_space_args(ps)
    ps.add_argument("--check", action="append",
                    choices=("all", "doubling", "reverse", "annulus"))
    ps.set_defaults(fn=cmd_space)

    pn = sub.add_parser("norm", help="evaluate a norm")
    add_space_args(pn)
    pn.add_argument("--f", help="function file (JSON array or CSV column)")
    pn.add_argument("--norm", required=True)
    pn.add_argument("--p", type=float, default=2.0)
    pn.add_argument("--lambda", dest="lam", type=float, default=0.0)
    pn.add_argument("--theta", type=float, default=1.0)
    pn.add_argument("--variant", choices=("mean", "inf", "jn"), default="mean")
    pn.set_defaults(fn=cmd_norm)

    po = sub.add_parser("op", help="apply an operator")
    add_space_args(po)
    po.add_argument("--f", required=True)
    po.add_argument("--op", required=True,
                    choices=("maximal", "maximal_s", "sharp", "cz", "potential"))
    po.add_argument("--s", type=float, default=2.0)
    po.add_argument("--alpha", type=float, default=0.5)
    po.add_argument("--kernel", choices=("conjugate", "hilbert"),
                    default="conjugate")
    po.add_argument("--kernel-file", help="dense N x N kernel table (JSON)")
    po.set_defaults(fn=cmd_op)

    pv = sub.add_parser("verify", help="run verification suites")
    pv.add_argument("--config", help="JSON config (defaults used when omitted)")
    pv.add_argument("--seed", type=int,
                    help="seed of the eta_identity draws only; each corpus has "
                         "its own seed in the config")
    pv.add_argument("--out", help="output directory for reports")
    pv.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except SpaceValidationError as exc:
        print(f"axiom violation: {exc}", file=sys.stderr)
        return CHECK_FAILURE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
