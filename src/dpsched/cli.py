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
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import EnumerationTooLarge, ModelError
from .model import PARAM_FIELDS, Policy, param_fields, params_from_fields
from .lp import recover_policy, sweep, sweep_to_csv
from .pareto import algorithm1, scored_blocks
from .policies import DEFAULT_ENUMERATION_CAP, is_threshold_map
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
    for key in PARAM_FIELDS:
        p.add_argument(f"--{key}", help="comma-separated power table P_0..P_M"
                       if key == "power" else None)


def _load_model(args):
    """The model of the config file's fields updated by the flags given
    (flags win), parsed and validated once."""
    fields = param_fields(Path(args.config).read_text()) if args.config else {}
    fields.update((key, getattr(args, key)) for key in PARAM_FIELDS
                  if getattr(args, key) is not None)
    return params_from_fields(fields)


def write_cloud(params, out: Path, cap: int = DEFAULT_ENUMERATION_CAP) -> None:
    """Write pareto_cloud.csv (power, delay, action map and threshold flag
    of every deterministic policy with a nonsingular chain) and
    pareto_cloud.dat (power and delay) in `out`, block by block from the
    stream of scored blocks (`scored_blocks`), so memory is O(block).  Each
    value is formatted once, by one %-format pass per block and file: the
    .dat rows first, whose power and delay strings the .csv rows reuse.
    Raises EnumerationTooLarge before either file is opened."""
    blocks = scored_blocks(params, cap=cap)
    first = next(blocks)  # the cap is checked here, before any file is opened
    csv_row = "%s," + " ".join(["%d"] * (params.K + 1)) + ",%d\n"
    with open(out / "pareto_cloud.csv", "w") as csv, open(out / "pareto_cloud.dat", "w") as dat:
        csv.write("power,delay,actions,is_threshold\n")
        for power, delay, maps, _ in chain([first], blocks):
            n = len(power)
            pairs = ("%.17g %.17g\n" * n) % tuple(np.column_stack([power, delay]).ravel().tolist())
            dat.write(pairs)
            rows = zip(pairs.replace(" ", ",").splitlines(), *maps.T.tolist(),
                       is_threshold_map(maps).tolist())
            csv.write((csv_row * n) % tuple(chain.from_iterable(rows)))


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
        write_cloud(params, out, args.cap)
    except EnumerationTooLarge as exc:
        print(f"cloud skipped: {exc}", file=sys.stderr)
        return 3
    return 0


def cmd_lp(args) -> int:
    params = _load_model(args)
    if args.pth is not None:
        (point,) = sweep(params, [args.pth])  # a bad budget is reported first
        if args.out:
            raise ModelError("--out needs --sweep")
        delay = f"{point.delay:.6f}" if point.delay is not None else "nan"
        print(f"p_th={args.pth:.6f} delay={delay} status={point.status}")
        if args.policy_out and point.status == "optimal":
            Path(args.policy_out).write_text(recover_policy(params, point.solution).to_csv())
        return 0
    if args.policy_out:
        raise ModelError("--policy-out needs --pth")
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
        sim_slots=args.slots,
    )
    for r in results:
        print(r.line())
    if any(r.passed is None for r in results):
        return 3  # frontier-equivalence over the enumeration cap
    return 0 if all(r.passed for r in results) else 1


def cmd_simulate(args) -> int:
    params = _load_model(args)
    policy = Policy.from_csv(params, Path(args.policy).read_text())
    res = simulate(params, policy, slots=args.slots, seed=args.seed, trace_path=args.trace)
    print(f"slots={res.slots} burn_in={res.burn_in} seed={res.seed}")
    print(f"empirical_power={res.empirical_power:.9f}")
    print(f"empirical_delay={res.empirical_delay:.9f}")
    print(
        f"overflow_violations={res.overflow_violations} "
        f"underflow_violations={res.underflow_violations}"
    )
    print(
        f"power_halfwidth={res.power_halfwidth:.9f} "
        f"delay_halfwidth={res.delay_halfwidth:.9f}"
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
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP, help="enumeration cap")
    p.set_defaults(func=cmd_pareto)

    p = sub.add_parser("lp", help="occupation-measure LP solve or sweep")
    _add_param_flags(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--pth", type=float, help="single power budget")
    mode.add_argument("--sweep", type=str, help="budget sweep lo:hi:n")
    p.add_argument("--out", type=str, help="CSV output path for sweeps")
    p.add_argument("--policy-out", type=str, help="write the recovered policy CSV")
    p.set_defaults(func=cmd_lp)

    p = sub.add_parser("verify", help="cross-validation battery")
    _add_param_flags(p)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--trials", type=int, default=25)
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage error (2) or --help (0)
        return exc.code
    try:
        return args.func(args)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EnumerationTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # a missing file, a directory, an existing file as --out-dir
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
