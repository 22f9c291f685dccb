"""Command-line front end.

Subcommands: eval (single value), tabulate (function tables), green
(profile of a diffusion Green function), solve (Volterra time stepper),
simulate (path ensembles with statistics), verify (invariant suites).
Grids and ensembles are written as CSV with '#' metadata lines and full
17-significant-digit decimals so files round-trip exactly; reports are
JSON. Command-line flags override an optional JSON config file.

Only verify imports the verification module, and no subcommand imports
scipy.stats (verify's KS tests take its p-values from `_kstest`): every
subcommand starts as fast and as small as `import mwright`.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import __version__, _csv, ggbm, greens, specfun
from .errors import DomainError
from .gridfn import GridFunction


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise DomainError(f"could not parse numeric list {text!r}") from exc


def _target(path):
    """Where a command writes: stdout (left open) for None or '-', else
    the file at path."""
    return sys.stdout if path in (None, "-") else path


def _write_table(path, header_meta: str, columns: dict, log_columns: bool):
    names = list(columns)
    table = [np.asarray(columns[n], dtype=float) for n in names]
    if log_columns:
        names += [f"log10|{n}|" for n in names[1:]]
        table += [[math.log10(y) if y > 0 else -math.inf
                   for y in np.abs(col).tolist()] for col in table[1:]]
    with _csv.opened(_target(path), "w") as out:
        out.write(f"# {header_meta}\n")
        out.write(",".join(names) + "\n")
        _csv.write_rows(out, np.column_stack(table))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _closed_form(nu: float, delta: float, value: float):
    """A moment or Mellin value with its rounding estimate."""
    return specfun.EvalResult(
        value, specfun._moment_estimate(nu, delta, value),
        specfun.METHOD_CLOSED_FORM)


# eval --function: the flags it requires and its EvalResult
_EVAL = {
    "wright": (("lam", "mu", "x"), lambda a: specfun.wright_series(
        specfun.WrightIndex(a.lam, a.mu), a.x, a.tol)),
    "mwright": (("nu", "x"),
                lambda a: specfun.m_wright_symmetric(a.nu, a.x, a.tol)),
    "fwright": (("nu", "x"), lambda a: specfun.f_wright(a.nu, a.x, a.tol)),
    "mlf": (("nu", "s"),
            lambda a: specfun.mittag_leffler_neg(a.nu, a.s, a.tol)),
    "moment": (("nu", "delta"), lambda a: _closed_form(
        a.nu, a.delta, specfun.m_wright_moment(a.nu, a.delta))),
    "mellin": (("nu", "s"), lambda a: _closed_form(
        a.nu, a.s - 1.0, specfun.mellin_m_wright(a.nu, a.s))),
    "green": (("alpha", "beta", "x", "t"),
              lambda a: greens.green_density_result(
                  greens.GreenSpec(a.alpha, a.beta, a.K), a.x, a.t)),
    "drift": (("beta", "x", "t"), lambda a: greens.drift_green_result(
        greens.DriftSpec(a.beta), a.x, a.t)),
}


def cmd_eval(args) -> int:
    needs, evaluate = _EVAL[args.function]
    for n in needs:
        if getattr(args, n) is None:
            raise DomainError(f"function {args.function!r} requires --{n}")
    _emit_json(dataclasses.asdict(evaluate(args)), args.out)
    return 0


def _grid(args) -> np.ndarray:
    """The x grid xmin, xmin + step, ..., up to xmax."""
    for flag, bound in (("xmin", args.xmin), ("xmax", args.xmax)):
        if not math.isfinite(bound):
            raise DomainError(f"--{flag} must be finite, got {bound}")
    if not args.step > 0.0:
        raise DomainError(f"--step must be positive, got {args.step}")
    return np.arange(args.xmin, args.xmax + 0.5 * args.step, args.step)


def _fwright_column(a, p, xs):
    if not 0.0 < p < 1.0:
        raise DomainError(f"fwright order must be in (0,1), got {p}")
    return p * np.abs(xs) * specfun.m_wright_values(p, np.abs(xs), a.tol)


# tabulate --function: its column at order p on the grid xs, and what it
# adds to the '#' header (a str.format template over the flags)
_TABULATE = {
    "mwright": (
        lambda a, p, xs: specfun.m_wright_values(p, np.abs(xs), a.tol), ""),
    "fwright": (_fwright_column, ""),
    "mlf": (  # plots E_nu(-s) on s >= 0; raises for s < 0
        lambda a, p, xs: specfun.mittag_leffler_values(p, xs, a.tol), ""),
    "green": (lambda a, p, xs: greens.green_density_values(
        greens.GreenSpec(a.alpha, p, a.K), xs, a.t),
        " alpha={alpha} K={K} t={t}"),
    "drift": (lambda a, p, xs: greens.drift_green_values(
        greens.DriftSpec(p), xs, a.t), " t={t}"),
}


def cmd_tabulate(args) -> int:
    params = _parse_floats(args.params)
    if not params:
        raise DomainError("empty parameter list")
    xs = _grid(args)
    if len(xs) == 0:
        raise DomainError("empty x grid")
    fn = args.function
    column, extra = _TABULATE[fn]
    cols = {"x": xs}
    for p in params:
        cols[f"{fn}_{p:g}"] = column(args, p, xs)
    meta = (f"tabulate function={fn} params={args.params} "
            f"xmin={args.xmin} xmax={args.xmax} step={args.step}"
            + extra.format(**vars(args)))
    _write_table(args.out, meta, cols, args.log10)
    return 0


def cmd_green(args) -> int:
    spec = greens.GreenSpec(args.alpha, args.beta, args.K)
    xs = _grid(args)
    ys = greens.green_density_values(spec, xs, args.t)
    gf = GridFunction(xs, ys,
                      f"alpha={args.alpha} beta={args.beta} K={args.K} "
                      f"t={args.t}")
    gf.to_csv(_target(args.out))
    return 0


def cmd_solve(args) -> int:
    if args.nx < 3 or args.nx % 2 == 0:
        raise DomainError("need odd nx >= 3")
    for flag, value in (("halfwidth", args.halfwidth),
                        ("u0-std", args.u0_std)):
        if value is not None and not (math.isfinite(value) and value > 0.0):
            raise DomainError(f"--{flag} must be finite and positive, "
                              f"got {value}")
    xs = np.linspace(-args.halfwidth, args.halfwidth, args.nx)
    if not xs[1] > xs[0]:  # the step underflowed to 0
        raise DomainError(f"--halfwidth {args.halfwidth} is too small for "
                          f"--nx {args.nx}: the grid step is 0")
    std = args.u0_std if args.u0_std is not None else 5 * (xs[1] - xs[0])
    with np.errstate(over="ignore"):  # far out, (x/std)^2 = inf: exp gives 0
        ys = np.exp(-0.5 * (xs / std) ** 2) / (std * math.sqrt(2 * math.pi))
    if not np.isfinite(ys).all():
        raise DomainError(f"initial Gaussian std {std} is too small: its "
                          f"peak 1/(std sqrt(2 pi)) exceeds the double range")
    u0 = GridFunction(xs, ys, f"gaussian std={std}")
    spec = greens.GreenSpec(args.alpha, args.beta, args.K)
    out = greens.solve_volterra(u0, spec, args.t_end, args.nt,
                                args.halfwidth)
    out.to_csv(_target(args.out))
    return 0


def cmd_simulate(args) -> int:
    if args.out in (None, "-"):
        raise DomainError("simulate requires --out PREFIX")
    if args.times:
        times = np.array(_parse_floats(args.times))
    else:
        times = np.arange(1, args.times_n + 1) / args.times_n * args.t_max
    spec = ggbm.CovSpec(args.alpha, args.beta, times)
    ens = ggbm.sample_paths(spec, args.n_paths, args.seed)
    rep = ggbm.ensemble_stats(ens) if ens.n_paths >= 100 else None
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
    from . import verification  # loads its suites' dependencies on demand

    names = [s.strip() for s in args.suite.split(",")]
    known = set(verification.SUITES) | {"all"}
    for n in names:
        if n not in known:
            raise DomainError(f"unknown suite {n!r}; choose from "
                              f"{sorted(known)}")
    report = verification.run_suites(names)
    _emit_json(report, args.out)
    for sname, checks in report["suites"].items():
        for c in checks:
            status = "pass" if c["passed"] else "FAIL"
            print(f"[{status}] {sname}: {c['name']} {c['params']} "
                  f"residual={c['residual']:.3e} "
                  f"threshold={c['threshold']:.3e}", file=sys.stderr)
    return 0 if report["passed"] else 1


def _emit_json(doc, path):
    with _csv.opened(_target(path), "w") as out:
        out.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """ArgumentParser, subparsers included, whose usage errors raise
    DomainError: one 'error:' line and exit 2, as for any user error."""

    def error(self, message):
        raise DomainError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
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
    p.add_argument("--function", required=True, choices=list(_EVAL))
    for name in ("lam", "mu", "nu", "x", "s", "delta", "alpha", "beta", "t"):
        p.add_argument(f"--{name}", type=float, default=None)
    p.add_argument("--K", type=float, default=1.0)
    common(p, cmd_eval, tol=1e-10)

    p = sub.add_parser("tabulate", help="write a CSV table of a function")
    p.add_argument("--function", required=True, choices=list(_TABULATE))
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
    common(p, cmd_verify)
    return ap


def _config_value(action, key: str, value):
    """A config entry as its flag would parse it from the command line: a
    switch takes a JSON boolean; any other flag converts str(value) with
    its argparse type."""
    if action.nargs == 0:
        if isinstance(value, bool):
            return value
        reason = "a switch takes true or false"
    else:
        try:
            return (action.type or str)(str(value))
        except ValueError as exc:
            reason = str(exc)
    raise DomainError(f"config entry {key!r}: invalid value {value!r} "
                      f"({reason})")


def _read_config(args) -> dict:
    """Entries of the --config file that name a flag of the subcommand,
    each converted as its flag converts a command-line string."""
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise DomainError(f"config {args.config!r} must hold a JSON object")
    actions = {a.dest: a for a in args.subparser._actions
               if a.dest in vars(args) and a.dest != "config"}
    return {dest: _config_value(actions[dest], key, value)
            for key, value in cfg.items()
            if (dest := key.replace("-", "_")) in actions}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process (about 2 ms a build)."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.config:
            # config entries become the subcommand's defaults; flags win.
            # set_defaults changes its parser, so this takes a fresh one
            ap = build_parser()
            ap.parse_args(argv).subparser.set_defaults(**_read_config(args))
            args = ap.parse_args(argv)
        return args.fn(args)
    except (ValueError, ArithmeticError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
