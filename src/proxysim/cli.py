"""Command-line front-end: gen, run, sweep, and estimate subcommands."""

from __future__ import annotations

import argparse
import os
import sys

from .analytics import (RATE_CONVENTIONS, BandwidthParams, model_report,
                        top_c_mass_asymptotic, write_model_report_csv)
from .cache import POLICIES
from .popularity import build_catalog
from .simulator import (DEFAULT_ALPHAS, SimConfig, compare_run,
                        run_simulation, simulate_workload, spawn_seeds, sweep,
                        write_comparison_csv, write_json, write_report_csv,
                        write_summary_json)
from .workload import (DEFAULT_SESSION_SIZE, DEFAULT_SIZE_RANGE,
                       DEFAULT_TIME_RANGE, assign_attributes, generate_workload,
                       load_trace, save_trace)

ESTIMATE_MODES = ("exact", "paper", "corrected")
# spellings a config file may give a boolean flag
_TRUE, _FALSE = ("1", "true", "yes"), ("0", "false", "no")


def _float_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected LO,HI, got {text!r}")
    return float(parts[0]), float(parts[1])


def _float_list(text: str) -> tuple[float, ...]:
    items = tuple(float(p) for p in text.split(",") if p.strip())
    if not items:
        raise argparse.ArgumentTypeError("empty list")
    return items


def _int_list(text: str) -> tuple[int, ...]:
    items = tuple(int(p) for p in text.split(",") if p.strip())
    if not items:
        raise argparse.ArgumentTypeError("empty list")
    return items


def _atomic_write(path: str, writer) -> None:
    """Write via a sibling temp file, renaming only on success."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# one declaration per flag that several subcommands share; a subcommand
# may override keywords where its help or default differs
_SHARED_FLAGS = {
    "objects": dict(type=int, help="catalog size N"),
    "requests": dict(type=int, help="number of requests R"),
    "alpha": dict(type=float, help="popularity skew exponent"),
    "session": dict(type=int, default=DEFAULT_SESSION_SIZE,
                    help="requests per session (default 1000)"),
    "capacity": dict(type=int, help="cache capacity C"),
    "policy": dict(choices=POLICIES, default="session_lfu",
                   help="replacement policy (default session_lfu)"),
    "seed": dict(type=int, help="rng seed (required)"),
    "out-dir": dict(help="output directory"),
    "config": dict(help="key=value defaults file"),
}


def _add_shared_flags(p: argparse.ArgumentParser, *names: str,
                      **overrides: dict) -> None:
    """Add the named shared flags in order; ``overrides`` maps a flag's
    name to the keywords that differ for this subcommand."""
    for name in names:
        p.add_argument(f"--{name}",
                       **{**_SHARED_FLAGS[name], **overrides.get(name, {})})


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    """Object attribute ranges and bandwidth parameters."""
    p.add_argument("--sizes", type=_float_pair, default=DEFAULT_SIZE_RANGE,
                   metavar="LO,HI",
                   help="object size range in kb (default 1,15)")
    p.add_argument("--times", type=_float_pair, default=DEFAULT_TIME_RANGE,
                   metavar="LO,HI",
                   help="channel access time range in ms (default 1,10)")
    p.add_argument("--k", type=float, default=1.0,
                   help="packet-loss threshold factor in [0,1] (default 1)")
    p.add_argument("--rate", choices=RATE_CONVENTIONS, default="product",
                   help="per-rank rate: size*time (kb*ms) or size/time "
                        "(kb/ms) (default product)")


def _build_parser() -> tuple[argparse.ArgumentParser,
                             dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="proxysim",
        description="Trace-driven proxy cache simulation and closed-form "
                    "traffic estimation.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    gen = sub.add_parser(
        "gen", help="generate a request trace file",
        description="Draw a seeded request trace and write it to --out.")
    _add_shared_flags(gen, "objects", "requests", "alpha", "session", "seed")
    gen.add_argument("--out", help="trace file path")

    run = sub.add_parser(
        "run", help="simulate one cache run",
        description="Replay a trace (or a freshly generated workload) "
                    "through a cache policy; writes report.csv and "
                    "summary.json into --out-dir.")
    run.add_argument("--trace", help="input trace file (skips generation)")
    _add_shared_flags(run, "objects", "requests", "alpha", "session",
                      "capacity", "policy", "seed", "out-dir")
    run.add_argument("--compare", action="store_true",
                     help="also write comparison.csv against the analytic "
                          "model")
    _add_model_flags(run)

    swp = sub.add_parser(
        "sweep", help="run an alpha/capacity sweep",
        description="Cross-product sweep over --alphas and --capacities; "
                    "one report CSV and summary JSON per point plus a "
                    "manifest.json into --out-dir.")
    _add_shared_flags(
        swp, "objects", "requests",
        objects=dict(default=10000, help="catalog size N (default 10000)"),
        requests=dict(default=1000000,
                      help="number of requests R (default 1000000)"))
    swp.add_argument("--alphas", type=_float_list, default=DEFAULT_ALPHAS,
                     metavar="A1,A2,...",
                     help="comma list of skew exponents "
                          "(default .98,.75,.64,.51,.41,.31)")
    swp.add_argument("--capacities", type=_int_list, default=(100,),
                     metavar="C1,C2,...",
                     help="comma list of cache capacities (default 100)")
    _add_shared_flags(swp, "session", "policy", "seed", "out-dir",
                      seed=dict(help="base rng seed (required)"))
    _add_model_flags(swp)

    est = sub.add_parser(
        "estimate", help="closed-form model report, no simulation",
        description="Evaluate the analytic estimators and write the model "
                    "report CSV to --out.")
    _add_shared_flags(
        est, "objects", "alpha", "capacity", "requests",
        requests=dict(default=1000000,
                      help="request count R for miss probabilities "
                           "(default 1000000)"))
    est.add_argument("--mode", choices=ESTIMATE_MODES, default="exact",
                     help="top-C mass to report: exact partial sum or a "
                          "closed-form approximation (default exact)")
    _add_shared_flags(est, "seed")
    est.add_argument("--out", help="model report CSV path")
    _add_model_flags(est)

    for p in sub.choices.values():
        _add_shared_flags(p, "config")
    return parser, sub.choices


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as f:
        for lineno, line in enumerate(f.read().splitlines(), start=1):
            s = line.strip()
            if not s or s.startswith("#"):
                continue
            if "=" not in s:
                raise ValueError(
                    f"{path}: line {lineno}: expected key=value, got {s!r}")
            key, value = s.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _apply_config_file(sub: argparse.ArgumentParser, path: str) -> None:
    """Install config-file values as subparser defaults; flags still win."""
    raw = _read_config_file(path)
    converters = {a.dest: a for a in sub._actions
                  if a.dest not in ("help", "config")}
    defaults = {}
    for key, value in raw.items():
        action = converters.get(key)
        if action is None:
            raise ValueError(f"{path}: unknown config key {key!r}")
        if isinstance(action, argparse._StoreTrueAction):
            if value.lower() not in _TRUE + _FALSE:
                raise ValueError(f"{path}: {key}={value!r} is not a boolean; "
                                 f"use one of {', '.join(_TRUE + _FALSE)}")
            defaults[key] = value.lower() in _TRUE
        else:
            try:
                converted = (action.type or str)(value)
            except (argparse.ArgumentTypeError, ValueError) as exc:
                raise ValueError(f"{path}: {key}={value!r}: {exc}") from None
            if action.choices is not None and converted not in action.choices:
                raise ValueError(f"{path}: {key}={value!r} is not one of "
                                 f"{', '.join(action.choices)}")
            defaults[key] = converted
    sub.set_defaults(**defaults)


def _require(sub: argparse.ArgumentParser, args: argparse.Namespace,
             *names: str) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            sub.error(f"--{name} is required (flag or config file)")


def cmd_gen(sub: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _require(sub, args, "objects", "requests", "alpha", "seed", "out")
    catalog = build_catalog(args.objects, args.alpha)
    workload_seed, _ = spawn_seeds(args.seed, 2)
    workload = generate_workload(catalog, args.requests, args.session,
                                 workload_seed)
    _atomic_write(args.out, lambda p: save_trace(workload, p))
    print(f"wrote {args.out} ({workload.total_requests} requests, "
          f"N={workload.n_objects})")
    return 0


def _sim_config(args: argparse.Namespace, alpha, capacity) -> SimConfig:
    """The SimConfig of ``run`` or ``sweep`` at the given alpha and
    capacity, each a scalar or a tuple."""
    return SimConfig(
        n_objects=args.objects, alpha=alpha, total_requests=args.requests,
        cache_capacity=capacity, seed=args.seed, session_size=args.session,
        policy=args.policy, size_range=args.sizes, time_range=args.times,
        k=args.k, rate_convention=args.rate)


def _require_capacity_fits(sub: argparse.ArgumentParser,
                           args: argparse.Namespace) -> None:
    """The model's top-C mass needs C <= N: a usage error before any draw."""
    if 1 <= args.objects < args.capacity:
        sub.error(f"--capacity {args.capacity} exceeds --objects "
                  f"{args.objects}")


def cmd_run(sub: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _require(sub, args, "capacity", "seed", "out-dir")
    if args.trace is None:
        _require(sub, args, "objects", "requests", "alpha")
        if args.compare:
            _require_capacity_fits(sub, args)
        report = run_simulation(_sim_config(args, args.alpha, args.capacity))
    else:
        if args.compare:
            sub.error("--compare requires generation flags, not --trace")
        for name in ("objects", "requests", "alpha"):
            if getattr(args, name) is not None:
                sub.error(f"--{name} conflicts with --trace, which replays "
                          "the trace's own catalog size, length and skew")
        workload = load_trace(args.trace)
        _, attr_seed = spawn_seeds(args.seed, 2)
        attrs = assign_attributes(workload.n_objects, args.sizes, args.times,
                                  attr_seed)
        echo = {"trace": args.trace, "seed": args.seed,
                "attr_seed": attr_seed, "size_range": list(args.sizes),
                "time_range": list(args.times)}
        report = simulate_workload(workload, attrs, [args.capacity],
                                   args.policy, args.k, args.rate, echo)[0]

    comparison = compare_run([report]) if args.compare else None

    os.makedirs(args.out_dir, exist_ok=True)
    report_path = os.path.join(args.out_dir, "report.csv")
    summary_path = os.path.join(args.out_dir, "summary.json")
    _atomic_write(report_path, lambda p: write_report_csv(report, p))
    _atomic_write(summary_path, lambda p: write_summary_json(report, p))
    written = [report_path, summary_path]
    if comparison is not None:
        cmp_path = os.path.join(args.out_dir, "comparison.csv")
        _atomic_write(cmp_path, lambda p: write_comparison_csv(comparison, p))
        written.append(cmp_path)
    print(f"hit_ratio={report.hit_ratio:.6f} "
          f"miss_ratio={report.miss_ratio:.6f} "
          f"total_bandwidth={report.total_bandwidth:.6e}")
    for path in written:
        print(f"wrote {path}")
    return 0


def _sweep_stem(alpha: float, capacity: int) -> str:
    """File-name stem of one sweep point's report and summary."""
    return f"a{alpha:g}_c{capacity}"


def cmd_sweep(sub: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _require(sub, args, "seed", "out-dir")
    config = _sim_config(args, args.alphas, args.capacities)
    stems = [_sweep_stem(alpha, capacity) for alpha in config.alphas
             for capacity in config.capacities]
    clash = next((s for s in stems if stems.count(s) > 1), None)
    if clash is not None:
        sub.error(f"two sweep points would both write {clash}; "
                  "give distinct --alphas and --capacities")
    reports = sweep(config)

    os.makedirs(args.out_dir, exist_ok=True)
    manifest = {"outputs": []}
    for report in reports:
        alpha = report.config["alpha"]
        capacity = report.config["cache_capacity"]
        stem = _sweep_stem(alpha, capacity)
        report_path = os.path.join(args.out_dir, f"report_{stem}.csv")
        summary_path = os.path.join(args.out_dir, f"summary_{stem}.json")
        _atomic_write(report_path, lambda p, r=report: write_report_csv(r, p))
        _atomic_write(summary_path,
                      lambda p, r=report: write_summary_json(r, p))
        manifest["outputs"].append({
            "alpha": alpha, "capacity": capacity,
            "seed": report.config["seed"],
            "hit_ratio": report.hit_ratio,
            "report_csv": os.path.basename(report_path),
            "summary_json": os.path.basename(summary_path),
        })
    manifest_path = os.path.join(args.out_dir, "manifest.json")
    _atomic_write(manifest_path, lambda p: write_json(manifest, p))
    print(f"wrote {len(reports)} reports and manifest.json to {args.out_dir}")
    return 0


def cmd_estimate(sub: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _require(sub, args, "objects", "alpha", "capacity", "seed", "out")
    catalog = build_catalog(args.objects, args.alpha)
    _require_capacity_fits(sub, args)
    params = BandwidthParams(args.k, args.capacity, args.rate)
    _, attr_seed = spawn_seeds(args.seed, 2)
    attrs = assign_attributes(args.objects, args.sizes, args.times, attr_seed)
    report = model_report(catalog, attrs, params, args.requests)
    if args.mode == "exact":
        mass = report.top_c_mass
    else:
        variant = "paper_literal" if args.mode == "paper" else "corrected"
        mass = top_c_mass_asymptotic(catalog, args.capacity, variant)
    _atomic_write(args.out,
                  lambda p: write_model_report_csv(report, catalog, p))
    print(f"aggregate_bandwidth={report.aggregate_bandwidth:.6e} "
          f"top_c_mass_{args.mode}={mass:.6e}")
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "gen": cmd_gen,
    "run": cmd_run,
    "sweep": cmd_sweep,
    "estimate": cmd_estimate,
}


def main(argv=None) -> int:
    """Entry point; returns the process exit code instead of raising."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, subparsers = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 2
        sub = subparsers[args.command]
        if args.config is not None:
            # file values become defaults, so the flags parsed again win
            _apply_config_file(sub, args.config)
            args = parser.parse_args(argv)
        if [] in vars(args).values():   # argparse stores --flag=-- as []
            sub.error("-- is not a flag value")
        return _COMMANDS[args.command](sub, args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (OSError, ValueError, MemoryError, OverflowError) as exc:
        message = str(exc) or "out of memory"   # a bare MemoryError
        print(f"proxysim {args.command}: error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
