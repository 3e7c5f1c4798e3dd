"""Command-line harness.

Subcommands:

    generate      build a stream and dump it as CSV records g,t,y,x1..xdim
    run           full experiment (coupled learner vs whole-stream OGD),
                  emitting steps.csv, summary.json, bounds.json
    bounds        closed-form calculator report as JSON
    parse-libsvm  validate a LIBSVM file and print a short summary

A JSON config file (--config) may supply everything; explicit flags
override it. Exit codes: 0 success, 1 config error or a run too large for
memory, 2 data/parse error, 3 bound or invariant violation, or an ERM solve
that hit its iteration cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import MISSING, fields, replace

from . import bounds as tb
from .errors import BoundViolation, ConfigError, ConvergenceError, DataError
from .harness import ExperimentConfig, emit_reports, load_input_samples, run_experiment
from .pool import INIT_POLICIES, STRATEGIES
from .streams import StreamSpec, dump_stream, generate, parse_libsvm


class _Parser(argparse.ArgumentParser):
    """argparse that signals usage problems as ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


def _add_common(p: _Parser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its fields")
    seeds = p.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int, help="single stream seed")
    seeds.add_argument("--seeds", help="comma-separated list of seeds")
    # a dest below names the config key its flag overrides (--mode is translated)
    p.add_argument("--g", dest="G", type=int, help="number of intervals G")
    p.add_argument("--b", dest="B", type=int, help="samples per interval B")
    p.add_argument("--dim", type=int, help="feature dimension")
    p.add_argument("--kmax", dest="k_max", type=int, help="maximal number of maintained experts")
    p.add_argument("--strategy", choices=STRATEGIES, help="eviction strategy")
    p.add_argument("--init", choices=INIT_POLICIES, help="online expert restart policy")
    p.add_argument("--drift-std", type=float, help="per-interval class-mean drift std")
    p.add_argument("--noise-std", type=float, help="per-interval sample noise std (libsvm mode)")
    p.add_argument("--gamma-floor", type=float, help="lower floor for the transfer weight gamma")
    p.add_argument("--mode", choices=["synthetic", "libsvm"], help="stream mode")
    p.add_argument("--input", help="LIBSVM input file (libsvm mode)")
    p.add_argument("--out", help="output directory")


def _build_parser() -> _Parser:
    parser = _Parser(prog="co2learn", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in [
        ("generate", "generate a stream and write stream.csv"),
        ("run", "run the experiment and emit reports"),
        ("bounds", "emit the closed-form bound report"),
        ("parse-libsvm", "validate a LIBSVM file"),
    ]:
        _add_common(sub.add_parser(name, help=doc))
    return parser


# Config keys that differ from their ExperimentConfig field names.
_FIELD_OF_KEY = {"k_max": "K_max", "init": "init_policy", "input": "input_path"}
_KEY_OF_FIELD = {field: key for key, field in _FIELD_OF_KEY.items()}


def _defaults() -> dict:
    """The config file's defaults: StreamSpec's and ExperimentConfig's field
    defaults, plus the keys only the CLI reads. The stream's seed is not a
    key: ExperimentConfig sets it to the first of ``seeds``."""
    cfg = {"stream": {f.name: f.default for f in fields(StreamSpec) if f.name != "seed"}}
    for f in fields(ExperimentConfig):
        if f.default is not MISSING:
            cfg[_KEY_OF_FIELD.get(f.name, f.name)] = f.default
    cfg.update(seeds=[0], out="out", bounds={
        "regret_KE": 0.0, "omega_star": 0.0, "weighted_loss": 0.0, "gamma": None})
    return cfg


def _load_config(args) -> dict:
    cfg = _defaults()
    if args.config:
        try:
            with open(args.config) as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(user, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in user.items():
            if key not in cfg:
                raise ConfigError(f"unknown config key {key!r}")
            if isinstance(cfg[key], dict):
                if not isinstance(value, dict):
                    raise ConfigError(f"{key} must be a JSON object, got {value!r}")
                for k2, v2 in value.items():
                    if k2 not in cfg[key]:
                        raise ConfigError(f"unknown config key {key}.{k2}")
                    cfg[key][k2] = v2
            else:
                cfg[key] = value
    flags = vars(args)
    for section, keys in ((cfg["stream"], ("G", "B", "dim", "drift_std", "noise_std")),
                          (cfg, ("k_max", "strategy", "init", "gamma_floor", "input", "out"))):
        for key in keys:
            if flags[key] is not None:
                section[key] = flags[key]
    if args.mode is not None:
        cfg["stream"]["mode"] = "libsvm_noised" if args.mode == "libsvm" else "synthetic"
    if args.seeds is not None:
        try:
            cfg["seeds"] = [int(s) for s in args.seeds.split(",") if s.strip()]
        except ValueError:
            raise ConfigError(f"--seeds must be comma-separated integers, got {args.seeds!r}")
    elif args.seed is not None:
        cfg["seeds"] = [args.seed]
    if not isinstance(cfg["out"], str):
        raise ConfigError(f"out must be a directory path, got {cfg['out']!r}")
    return cfg


def _experiment_config(cfg: dict) -> ExperimentConfig:
    """Every setting, checked once by the config dataclasses."""
    settings = {_FIELD_OF_KEY.get(key, key): cfg[key] for key in cfg
                if key not in ("stream", "out", "bounds")}
    return ExperimentConfig(stream=StreamSpec(**cfg["stream"]), **settings)


def _cmd_generate(cfg: dict) -> int:
    config = _experiment_config(cfg)
    spec = config.stream
    intervals = generate(spec, load_input_samples(config))
    os.makedirs(cfg["out"], exist_ok=True)
    path = os.path.join(cfg["out"], "stream.csv")
    dump_stream(intervals, path)
    print(f"wrote {sum(b.n for b in intervals)} samples "
          f"({spec.G} intervals x {spec.B}) to {path}")
    return 0


def _cmd_run(cfg: dict) -> int:
    config = _experiment_config(cfg)
    report = run_experiment(config)
    paths = emit_reports(report, cfg["out"])
    agg = report.aggregate
    print(f"wrote {paths['steps']}, {paths['summary']}, {paths['bounds']}")
    print(f"seeds: {len(config.seeds)}; "
          f"mean final-interval regret: coupled {agg['mean_final_regret_co2']:.4f} "
          f"vs whole-stream OGD {agg['mean_final_regret_ogd']:.4f}")
    print(f"early-win fraction vs from-scratch OGD (t<={agg['early_t']}): "
          f"{agg['early_win_fraction_vs_scratch_ogd']:.2f}; "
          f"end-win fraction vs whole-stream OGD: "
          f"{agg['end_win_fraction_vs_stream_ogd']:.2f}")
    return 0


def _cmd_bounds(cfg: dict) -> int:
    config = _experiment_config(cfg)
    try:  # the bounds block, checked before any stream is generated
        inputs = config.bound_inputs((), **cfg["bounds"])
    except ConfigError as exc:  # every other input was checked with the config
        raise ConfigError(f"bounds.{exc}") from None
    X = generate(config.stream, load_input_samples(config))[-1].X  # the final interval, as in run
    report = tb.bound_report(replace(inputs, eigenvalues=tb.estimate_eigenvalues(X)))
    os.makedirs(cfg["out"], exist_ok=True)
    path = os.path.join(cfg["out"], "bounds.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_parse_libsvm(cfg: dict, dim_flag: int | None) -> int:
    if cfg["input"] is None:
        raise ConfigError("--input is required for this command")
    with open(cfg["input"]) as fh:
        samples = parse_libsvm(fh.read(), dim=dim_flag)
    dims = samples[0].x.shape[0] if samples else 0
    pos = sum(1 for s in samples if s.y == 1)
    print(f"{len(samples)} samples, dim {dims}, {pos} positive / {len(samples) - pos} negative")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args)
        if args.command == "parse-libsvm":
            return _cmd_parse_libsvm(cfg, args.dim)
        command = {
            "generate": _cmd_generate,
            "run": _cmd_run,
            "bounds": _cmd_bounds,
        }[args.command]
        return command(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except BoundViolation as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"memory error: {exc or 'out of memory'}; lower --b, --g or --dim", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
