"""Command-line harness.

Subcommands:

    generate      build a stream and dump it as CSV records g,t,y,x1..xdim
    run           full experiment (coupled learner vs whole-stream OGD),
                  emitting steps.csv, summary.json, bounds.json
    bounds        closed-form calculator report as JSON
    parse-libsvm  validate a LIBSVM file and print a short summary

A JSON config file (--config) may supply everything; explicit flags
override it. Exit codes: 0 success, 1 config error, 2 data/parse error,
3 bound or invariant violation, or an ERM solve that hit its iteration cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bounds as tb
from .errors import BoundViolation, ConfigError, ConvergenceError, DataError
from .harness import ExperimentConfig, emit_reports, run_experiment
from .losses import LossSpec
from .streams import StreamSpec, condition_norms, dump_stream, generate, parse_libsvm


class _Parser(argparse.ArgumentParser):
    """argparse that signals usage problems as ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


def _add_common(p: _Parser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--seed", type=int, help="single stream seed")
    p.add_argument("--seeds", help="comma-separated list of seeds")
    p.add_argument("--g", type=int, help="number of intervals G")
    p.add_argument("--b", type=int, help="samples per interval B")
    p.add_argument("--dim", type=int, help="feature dimension")
    p.add_argument("--kmax", type=int, help="maximal number of maintained experts")
    p.add_argument("--strategy", choices=["fifo", "weight"], help="eviction strategy")
    p.add_argument("--init", choices=["cold", "warm"], help="online expert restart policy")
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


_DEFAULTS = {
    "stream": {"G": 15, "B": 200, "dim": 2, "seed": 0, "mode": "synthetic",
               "drift_std": 0.3, "noise_std": 0.1, "D": 1.0},
    "R": 1.0,
    "k_max": 5,
    "strategy": "weight",
    "init": "cold",
    "gamma_floor": 0.1,
    "grad_map_tol": 1e-8,
    "erm_tol": 1e-9,
    "delta": 0.05,
    "wstar_proxy": True,
    "seeds": [0],
    "input": None,
    "out": "out",
    "bounds": {"regret_KE": 0.0, "omega_star": 0.0, "weighted_loss": 0.0, "gamma": None},
}


def _load_config(args) -> dict:
    cfg = json.loads(json.dumps(_DEFAULTS))  # deep copy
    if args.config:
        try:
            with open(args.config) as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        for key, value in user.items():
            if key not in cfg:
                raise ConfigError(f"unknown config key {key!r}")
            if isinstance(cfg[key], dict) and isinstance(value, dict):
                for k2, v2 in value.items():
                    if k2 not in cfg[key]:
                        raise ConfigError(f"unknown config key {key}.{k2}")
                    cfg[key][k2] = v2
            else:
                cfg[key] = value
    flag_map = {
        "g": ("stream", "G"), "b": ("stream", "B"), "dim": ("stream", "dim"),
        "drift_std": ("stream", "drift_std"), "noise_std": ("stream", "noise_std"),
        "kmax": ("k_max",), "strategy": ("strategy",), "init": ("init",),
        "gamma_floor": ("gamma_floor",), "input": ("input",), "out": ("out",),
    }
    for flag, dest in flag_map.items():
        value = getattr(args, flag, None)
        if value is not None:
            if len(dest) == 2:
                cfg[dest[0]][dest[1]] = value
            else:
                cfg[dest[0]] = value
    if getattr(args, "mode", None) is not None:
        cfg["stream"]["mode"] = "libsvm_noised" if args.mode == "libsvm" else "synthetic"
    if args.seeds is not None:
        try:
            cfg["seeds"] = [int(s) for s in args.seeds.split(",") if s.strip()]
        except ValueError:
            raise ConfigError(f"--seeds must be comma-separated integers, got {args.seeds!r}")
    elif args.seed is not None:
        cfg["seeds"] = [args.seed]
    return cfg


def _stream_spec(cfg: dict, seed: int | None = None) -> StreamSpec:
    s = dict(cfg["stream"])
    if seed is not None:
        s["seed"] = seed
    try:
        return StreamSpec(**s)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad stream settings: {exc}") from None


def _experiment_config(cfg: dict) -> ExperimentConfig:
    try:
        return ExperimentConfig(
            stream=_stream_spec(cfg, seed=cfg["seeds"][0]),
            seeds=tuple(cfg["seeds"]),
            R=cfg["R"],
            K_max=cfg["k_max"],
            strategy=cfg["strategy"],
            init_policy=cfg["init"],
            gamma_floor=cfg["gamma_floor"],
            grad_map_tol=cfg["grad_map_tol"],
            erm_tol=cfg["erm_tol"],
            delta=cfg["delta"],
            wstar_proxy=cfg["wstar_proxy"],
            input_path=cfg["input"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _read_input_samples(cfg: dict, dim: int | None = "use-stream"):
    if cfg["input"] is None:
        raise ConfigError("--input is required for this command/mode")
    if dim == "use-stream":
        dim = cfg["stream"]["dim"]
    try:
        with open(cfg["input"]) as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {cfg['input']}: {exc}") from None
    return parse_libsvm(text, dim=dim)


def _cmd_generate(cfg: dict) -> int:
    spec = _stream_spec(cfg, seed=cfg["seeds"][0])
    samples = _read_input_samples(cfg) if spec.mode == "libsvm_noised" else None
    intervals = generate(spec, samples)
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
    spec = _stream_spec(cfg, seed=cfg["seeds"][0])
    loss_spec = LossSpec.create(D=spec.D, R=cfg["R"], dim=spec.dim)
    if spec.mode == "libsvm_noised":
        samples = _read_input_samples(cfg)
        X = condition_norms(np.asarray([s.x for s in samples]), spec.D)
    else:
        X = generate(spec)[-1].X
    extra = cfg["bounds"]
    gamma = extra["gamma"] if extra.get("gamma") else cfg["gamma_floor"]
    inputs = tb.BoundInputs(
        T=spec.B, K=min(spec.G, cfg["k_max"]), B=spec.B,
        D=spec.D, R=cfg["R"], beta=loss_spec.constants.beta,
        gamma=gamma, delta=cfg["delta"],
        regret_KE=extra["regret_KE"], omega_star=extra["omega_star"],
        weighted_loss=extra["weighted_loss"],
        eigenvalues=tb.estimate_eigenvalues(X),
    )
    report = tb.bound_report(inputs)
    os.makedirs(cfg["out"], exist_ok=True)
    path = os.path.join(cfg["out"], "bounds.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_parse_libsvm(cfg: dict, dim_flag: int | None) -> int:
    samples = _read_input_samples(cfg, dim=dim_flag)
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


if __name__ == "__main__":
    sys.exit(main())
