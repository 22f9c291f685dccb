"""Command-line front end.

Subcommands: eval (single value), tabulate (function tables), green
(profile of a diffusion Green function), solve (Volterra time stepper),
simulate (path ensembles with statistics), verify (invariant suites).
Grids and ensembles are written as CSV with '#' metadata lines and full
17-significant-digit decimals so files round-trip exactly; reports are
JSON. Command-line flags override an optional JSON config file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, ggbm, greens, specfun, verification
from .errors import DomainError
from .gridfn import GridFunction

_FMT = "{:.17g}"


def _fmt(v: float) -> str:
    return _FMT.format(float(v))


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise DomainError(f"could not parse numeric list {text!r}") from exc


def _write_table(path, header_meta: str, columns: dict, log_columns: bool):
    names = list(columns)
    rows = len(columns[names[0]])
    out = sys.stdout if path in (None, "-") else open(path, "w")
    try:
        out.write(f"# {header_meta}\n")
        if log_columns:
            names_out = names + [f"log10|{n}|" for n in names[1:]]
        else:
            names_out = names
        out.write(",".join(names_out) + "\n")
        for i in range(rows):
            vals = [_fmt(columns[n][i]) for n in names]
            if log_columns:
                for n in names[1:]:
                    y = abs(columns[n][i])
                    vals.append(_fmt(math.log10(y)) if y > 0 else "-inf")
            out.write(",".join(vals) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    tol = args.tol
    fn = args.function
    if fn == "wright":
        _need(args, "lam", "mu", "x")
        res = specfun.wright_series(
            specfun.WrightIndex(args.lam, args.mu), args.x, tol)
    elif fn == "mwright":
        _need(args, "nu", "x")
        res = specfun.m_wright_symmetric(args.nu, args.x, tol)
    elif fn == "fwright":
        _need(args, "nu", "x")
        res = specfun.f_wright(args.nu, args.x, tol)
    elif fn == "mlf":
        _need(args, "nu", "s")
        res = specfun.mittag_leffler_neg(args.nu, args.s, tol)
    elif fn == "moment":
        _need(args, "nu", "delta")
        res = specfun.EvalResult(
            specfun.m_wright_moment(args.nu, args.delta), 0.0, "closed_form")
    elif fn == "mellin":
        _need(args, "nu", "s")
        res = specfun.EvalResult(
            specfun.mellin_m_wright(args.nu, args.s), 0.0, "closed_form")
    elif fn == "green":
        _need(args, "alpha", "beta", "x", "t")
        v = greens.green_density(
            greens.GreenSpec(args.alpha, args.beta, args.K), args.x, args.t)
        res = specfun.EvalResult(v, float("nan"), "closed_form")
    elif fn == "drift":
        _need(args, "beta", "x", "t")
        v = greens.drift_green(greens.DriftSpec(args.beta), args.x, args.t)
        res = specfun.EvalResult(v, float("nan"), "closed_form")
    else:
        raise DomainError(f"unknown function {fn!r}")
    doc = {"value": res.value, "abs_err_estimate": res.abs_err_estimate,
           "method": res.method}
    _emit_json(doc, args.out)
    return 0


def _need(args, *names):
    for n in names:
        if getattr(args, n, None) is None:
            raise DomainError(f"function {args.function!r} requires --{n}")


def _grid(args) -> np.ndarray:
    """The x grid xmin, xmin + step, ..., up to xmax."""
    if not args.step > 0.0:
        raise DomainError(f"--step must be positive, got {args.step}")
    return np.arange(args.xmin, args.xmax + 0.5 * args.step, args.step)


def cmd_tabulate(args) -> int:
    params = _parse_floats(args.params)
    if not params:
        raise DomainError("empty parameter list")
    xs = _grid(args)
    if len(xs) == 0:
        raise DomainError("empty x grid")
    cols = {"x": xs}
    fn = args.function
    for p in params:
        key = f"{fn}_{p:g}"
        if fn == "mwright":
            cols[key] = specfun.m_wright_values(p, np.abs(xs), args.tol)
        elif fn == "fwright":
            if not 0.0 < p < 1.0:
                raise DomainError(f"fwright order must be in (0,1), got {p}")
            cols[key] = (p * np.abs(xs)
                         * specfun.m_wright_values(p, np.abs(xs), args.tol))
        elif fn == "mlf":
            if np.any(xs < 0):
                raise DomainError("mlf grid must be non-negative (plots "
                                  "E_nu(-s) on s >= 0)")
            cols[key] = np.array(
                [specfun.mittag_leffler_neg(p, s, args.tol).value
                 for s in xs])
        elif fn == "green":
            spec = greens.GreenSpec(args.alpha, p, args.K)
            cols[key] = greens.green_density_values(spec, xs, args.t)
        elif fn == "drift":
            cols[key] = greens.drift_green_values(greens.DriftSpec(p), xs,
                                                  args.t)
        else:
            raise DomainError(f"unknown function {fn!r}")
    meta = (f"tabulate function={fn} params={args.params} "
            f"xmin={args.xmin} xmax={args.xmax} step={args.step}")
    if fn == "green":
        meta += f" alpha={args.alpha} K={args.K} t={args.t}"
    if fn == "drift":
        meta += f" t={args.t}"
    _write_table(args.out, meta, cols, args.log10)
    return 0


def cmd_green(args) -> int:
    spec = greens.GreenSpec(args.alpha, args.beta, args.K)
    xs = _grid(args)
    ys = greens.green_density_values(spec, xs, args.t)
    gf = GridFunction(xs, ys,
                      f"alpha={args.alpha} beta={args.beta} K={args.K} "
                      f"t={args.t}")
    if args.out in (None, "-"):
        sys.stdout.write(gf.to_csv_string())
    else:
        gf.to_csv(args.out)
    return 0


def cmd_solve(args) -> int:
    if args.nx < 3 or args.nx % 2 == 0:
        raise DomainError("need odd nx >= 3")
    xs = np.linspace(-args.halfwidth, args.halfwidth, args.nx)
    std = args.u0_std if args.u0_std is not None else 5 * (xs[1] - xs[0])
    u0 = GridFunction(
        xs, np.exp(-0.5 * (xs / std) ** 2) / (std * math.sqrt(2 * math.pi)),
        f"gaussian std={std}")
    spec = greens.GreenSpec(args.alpha, args.beta, args.K)
    out = greens.solve_volterra(u0, spec, args.t_end, args.nt,
                                args.halfwidth)
    if args.out in (None, "-"):
        sys.stdout.write(out.to_csv_string())
    else:
        out.to_csv(args.out)
    return 0


def cmd_simulate(args) -> int:
    if args.times:
        times = np.array(_parse_floats(args.times))
    else:
        times = np.arange(1, args.times_n + 1) / args.times_n * args.t_max
    spec = ggbm.CovSpec(args.alpha, args.beta, times)
    ens = ggbm.sample_paths(spec, args.n_paths, args.seed)
    rep = ggbm.ensemble_stats(ens) if ens.n_paths >= 100 else None
    if args.out in (None, "-"):
        raise DomainError("simulate requires --out PREFIX")
    csv_path, json_path = ens.save(args.out)
    msg = {"paths_csv": csv_path, "sidecar": json_path}
    if rep is not None:
        stats_path = f"{args.out}_stats.json"
        with open(stats_path, "w") as fh:
            fh.write(rep.to_json())
            fh.write("\n")
        msg["stats"] = stats_path
    print(json.dumps(msg))
    return 0


def cmd_verify(args) -> int:
    names = [s.strip() for s in args.suite.split(",")]
    known = set(verification.SUITES) | {"all"}
    for n in names:
        if n not in known:
            raise DomainError(f"unknown suite {n!r}; choose from "
                              f"{sorted(known)}")
    report = verification.run_suites(names, pair_tol=args.tol,
                                     ggbm_paths=args.paths)
    _emit_json(report, args.out)
    for sname, checks in report["suites"].items():
        for c in checks:
            status = "pass" if c["passed"] else "FAIL"
            print(f"[{status}] {sname}: {c['name']} {c['params']} "
                  f"residual={c['residual']:.3e} "
                  f"threshold={c['threshold']:.3e}", file=sys.stderr)
    return 0 if report["passed"] else 1


def _emit_json(doc, out):
    text = json.dumps(doc, indent=1, sort_keys=True)
    if out in (None, "-"):
        print(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)
            fh.write("\n")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mwright",
        description="M-Wright special functions, fractional-diffusion Green "
                    "functions, and grey-noise process simulation")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, fn, tol=None):
        if tol is not None:
            p.add_argument("--tol", type=float, default=tol,
                           help="accuracy target (default %(default)g)")
        p.add_argument("--out", default=None, help="output path ('-' stdout)")
        p.add_argument("--config", default=None,
                       help="JSON config file; flags override its entries")
        p.set_defaults(fn=fn, subparser=p)

    p = sub.add_parser("eval", help="evaluate one function value")
    p.add_argument("--function", required=True,
                   choices=["wright", "mwright", "fwright", "mlf", "moment",
                            "mellin", "green", "drift"])
    for name in ("lam", "mu", "nu", "x", "s", "delta", "alpha", "beta", "t"):
        p.add_argument(f"--{name}", type=float, default=None)
    p.add_argument("--K", type=float, default=1.0)
    common(p, cmd_eval, tol=1e-10)

    p = sub.add_parser("tabulate", help="write a CSV table of a function")
    p.add_argument("--function", required=True,
                   choices=["mwright", "fwright", "mlf", "green", "drift"])
    p.add_argument("--params", required=True,
                   help="comma-separated order parameters (one column each)")
    p.add_argument("--xmin", type=float, required=True)
    p.add_argument("--xmax", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--log10", action="store_true",
                   help="append log10|y| columns")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--K", type=float, default=1.0)
    p.add_argument("--t", type=float, default=1.0)
    common(p, cmd_tabulate, tol=1e-10)

    p = sub.add_parser("green", help="Green-function profile CSV")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--K", type=float, default=1.0)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--xmin", type=float, default=-5.0)
    p.add_argument("--xmax", type=float, default=5.0)
    p.add_argument("--step", type=float, default=0.01)
    common(p, cmd_green)

    p = sub.add_parser("solve", help="Volterra time-stepping from a Gaussian")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--K", type=float, default=1.0)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--nt", type=int, default=256)
    p.add_argument("--nx", type=int, default=401)
    p.add_argument("--halfwidth", type=float, default=8.0)
    p.add_argument("--u0-std", type=float, default=None)
    common(p, cmd_solve)

    p = sub.add_parser("simulate", help="sample a ggBm ensemble")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--times", default=None,
                   help="explicit comma-separated times")
    p.add_argument("--times-n", type=int, default=64)
    p.add_argument("--t-max", type=float, default=1.0)
    p.add_argument("--n-paths", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    common(p, cmd_simulate)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("--suite", default="all",
                   help="all | specfun | pairs | fraccalc | greens | ggbm "
                        "(comma-separated)")
    p.add_argument("--paths", type=int, default=100_000,
                   help="ggbm suite ensemble size")
    common(p, cmd_verify, tol=1e-6)
    return ap


def _read_config(args) -> dict:
    """Entries of the --config file that name a flag of the subcommand."""
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise DomainError(f"config {args.config!r} must hold a JSON object")
    flags = set(vars(args)) - {"command", "config", "fn", "subparser"}
    return {k.replace("-", "_"): v for k, v in cfg.items()
            if k.replace("-", "_") in flags}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.config:
            # config entries become the subcommand's defaults; flags win
            args.subparser.set_defaults(**_read_config(args))
            args = ap.parse_args(argv)
        return args.fn(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
