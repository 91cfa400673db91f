"""Command-line interface.

Subcommands:
  pareto    deterministic point cloud + frontier curve files
  lp        single power-budget solve or budget sweep
  verify    cross-validation battery
  simulate  Monte-Carlo run of a policy file

All outputs are plain data files (CSV/JSON/gnuplot .dat); rendering is
left to the user.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import EnumerationTooLarge, ModelError
from .model import Policy, load_params, validate_params
from .lp import build_lp, recover_policy, solve_simplex, sweep, sweep_to_csv
from .pareto import algorithm1, cloud_to_csv, deterministic_cloud, lower_convex_hull
from .sim import simulate
from .verify import run_battery

GNUPLOT_SCRIPT = """\
set terminal pngcairo size 900,600
set output 'tradeoff.png'
set xlabel 'average power'
set ylabel 'average delay (slots)'
set key top right
plot 'pareto_cloud.dat' using 1:2 with points pt 7 ps 0.4 lc rgb 'gray' title 'deterministic policies', \\
     'pareto_curve.dat' using 1:2 with linespoints pt 5 lc rgb 'red' title 'optimal tradeoff'
"""


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, help="key=value parameter file")
    p.add_argument("--alpha", type=float)
    p.add_argument("--A", type=int)
    p.add_argument("--M", type=int)
    p.add_argument("--Q", type=int)
    p.add_argument("--power", type=str, help="comma-separated power table P_0..P_M")


def _load_model(args):
    base = {}
    if args.config:
        cfg = load_params(args.config)
        base = dict(alpha=cfg.alpha, A=cfg.A, M=cfg.M, Q=cfg.Q, power=list(cfg.power))
    for key in ("alpha", "A", "M", "Q"):
        val = getattr(args, key)
        if val is not None:
            base[key] = val
    if args.power is not None:
        base["power"] = [float(v) for v in args.power.split(",")]
    missing = {"alpha", "A", "M", "Q", "power"} - set(base)
    if missing:
        raise ModelError(f"missing parameters: {sorted(missing)} (use flags or --config)")
    return validate_params(**base)


def cmd_pareto(args) -> int:
    params = _load_model(args)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    curve = algorithm1(params)
    (out / "pareto_curve.csv").write_text(curve.to_csv())
    (out / "pareto_curve.json").write_text(curve.to_json())
    (out / "pareto_curve.dat").write_text(
        "".join(f"{v.power:.17g} {v.delay:.17g}\n" for v in curve.vertices)
    )
    (out / "plot.gp").write_text(GNUPLOT_SCRIPT)
    if args.no_cloud:
        return 0
    try:
        points, _ = deterministic_cloud(params, cap=args.cap)
    except EnumerationTooLarge as exc:
        print(f"cloud skipped: {exc}", file=sys.stderr)
        return 3
    (out / "pareto_cloud.csv").write_text(cloud_to_csv(params, points))
    (out / "pareto_cloud.dat").write_text(
        "".join(f"{p.power:.17g} {p.delay:.17g}\n" for p in points)
    )
    return 0


def cmd_lp(args) -> int:
    params = _load_model(args)
    if args.pth is not None:
        if args.pth < 0:
            raise ModelError(f"power budget must be nonnegative, got {args.pth}")
        sol = solve_simplex(build_lp(params, args.pth))
        delay = f"{sol.delay:.6f}" if sol.delay is not None else "nan"
        print(f"p_th={args.pth:.6f} delay={delay} status={sol.status}")
        if args.policy_out and sol.status == "optimal":
            Path(args.policy_out).write_text(recover_policy(params, sol).to_csv())
        return 0
    if args.sweep is None:
        raise ModelError("one of --pth or --sweep is required")
    try:
        lo, hi, n = args.sweep.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
        if n < 1 or hi < lo or lo < 0:
            raise ValueError
    except ValueError:
        raise ModelError(f"bad --sweep spec {args.sweep!r}, expected lo:hi:n")
    budgets = [lo + (hi - lo) * i / max(n - 1, 1) for i in range(n)]
    csv = sweep_to_csv(sweep(params, budgets))
    if args.out:
        Path(args.out).write_text(csv)
    else:
        print(csv, end="")
    return 0


def cmd_verify(args) -> int:
    params = _load_model(args)
    results = run_battery(
        params,
        seed=args.seed,
        trials=args.trials,
        collinearity_tol=args.tol,
        sim_slots=args.slots,
    )
    for r in results:
        print(r.line())
    return 0 if all(r.passed for r in results) else 1


def cmd_simulate(args) -> int:
    params = _load_model(args)
    if args.slots < 1:
        raise ModelError(f"--slots must be >= 1, got {args.slots}")
    policy = Policy.from_csv(params, Path(args.policy).read_text())
    res = simulate(params, policy, slots=args.slots, seed=args.seed, trace_path=args.trace)
    print(f"slots={res.slots} burn_in={res.burn_in} seed={res.seed}")
    print(f"empirical_power={res.empirical_power:.9f}")
    print(f"empirical_delay={res.empirical_delay:.9f}")
    print(
        f"overflow_violations={res.overflow_violations} "
        f"underflow_violations={res.underflow_violations}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpsched",
        description="Optimal average-delay vs average-power tradeoff toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pareto", help="frontier curve and deterministic cloud")
    _add_param_flags(p)
    p.add_argument("--out-dir", default=".", help="output directory")
    p.add_argument("--no-cloud", action="store_true", help="skip the point cloud")
    p.add_argument("--cap", type=int, default=10_000_000, help="enumeration cap")
    p.set_defaults(func=cmd_pareto)

    p = sub.add_parser("lp", help="occupation-measure LP solve or sweep")
    _add_param_flags(p)
    p.add_argument("--pth", type=float, help="single power budget")
    p.add_argument("--sweep", type=str, help="budget sweep lo:hi:n")
    p.add_argument("--out", type=str, help="CSV output path for sweeps")
    p.add_argument("--policy-out", type=str, help="write the recovered policy CSV")
    p.set_defaults(func=cmd_lp)

    p = sub.add_parser("verify", help="cross-validation battery")
    _add_param_flags(p)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--tol", type=float, default=1e-9, help="mixing-geometry tolerance")
    p.add_argument("--slots", type=int, default=1_000_000, help="simulation slots")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="Monte-Carlo run of a policy CSV")
    _add_param_flags(p)
    p.add_argument("--policy", required=True, help="policy CSV file")
    p.add_argument("--slots", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=str, help="per-slot trace CSV (capped)")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
