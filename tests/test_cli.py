import functools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from co2learn import cli, harness
from co2learn.cli import _defaults, main


def run_cli(*argv):
    return main(list(argv))


def assert_config_error(tmp_path, capsys, command, body):
    """``command --config`` on ``body`` exits 1 with one ``config error:`` line,
    which it returns."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(body))
    rc = run_cli(command, "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    return err


# Each fails every command that builds the full config: run, generate and bounds.
BAD_CONFIG_BODIES = [
    {"strategy": "bogus"},
    {"init": "random"},
    {"grad_map_tol": 0},  # unknown: the solver tolerances are fixed, not settings
    {"stream": {"G": 2.5, "B": 20}},
    {"stream": {"G": 2, "B": 20, "dim": True}},
    {"stream": {"G": 2, "B": 20, "dim": 100000000000000000000}},
    {"stream": {"G": 2, "B": 20, "D": 1e400}},
    {"stream": {"G": 2, "B": 20, "drift_std": float("nan")}},
    {"k_max": 2.5},
    {"R": "1"},
    {"delta": "x"},
    {"seeds": 5},
    {"seeds": []},
    {"seeds": [True]},
    {"gamma_floor": -1},
    {"wstar_proxy": "no"},
    {"erm_tol": True},  # unknown, as grad_map_tol
    {"stream": 5},
    {"grad_map_tol": 1.0},  # unknown, as above
    {"stream": {"G": 2, "B": 20, "D": 1e200}},  # D^2 overflows, so beta is infinite
    {"stream": {"G": 2, "B": 20, "D": 1e-200}, "R": 1e-200},  # D^2 underflows: beta is 0
    {"gamma_floor": 0},  # gamma = 0 when WL = 0; the theory needs gamma > 0
    {"seeds": [1, 1]},  # bounds.json is keyed by seed
    {"stream": {"D": 0.1, "G": 4}, "seeds": [0]},  # R = 1 > D: the OGD bound needs R <= D
    # seed 1's class-mean walk overflows at interval 2; it used to end in a traceback
    {"stream": {"G": 4, "B": 5, "drift_std": 1e308}, "seeds": [1]},
    # derived values that leave the float range; each used to end in a traceback
    {"R": 1e-100},  # gamma = 1/(4 R^2) is finite but gamma**2 overflows
    {"R": 1e-155},  # 1/(4 R^2) overflows, and the trainer's kappa is NaN
    {"R": 1e-200},  # 4 R^2 underflows to 0
    {"stream": {"G": 2, "B": 20, "D": 1e-155}, "R": 1e-155},  # beta > 0, but 1/beta overflows
    {"gamma_floor": 1e160},  # gamma_floor**2 overflows
    {"gamma_floor": 1e-200},  # gamma_floor**2 underflows to 0
    # 6 D sqrt(beta) = 3000: the K condition's exp overflows; run used to end in a
    # traceback after the first interval, generate to exit 0
    {"stream": {"G": 2, "B": 20, "D": 100}},
    {"stream": {"G": 2, "B": 20, "seed": 5}},  # the stream seed is the first of seeds
]

# The nearest settings to the float-range rows above that still run.
EDGE_CONFIG_BODIES = [
    {"R": 1e-50},
    {"stream": {"G": 2, "B": 20, "D": 1e-50}, "R": 1e-50},
    {"gamma_floor": 1e150},
    {"stream": {"G": 2, "B": 20, "D": 30}},  # 6 D sqrt(beta) = 493, below exp's 709.8
]


def write_libsvm(path, n=200):
    path.write_text("".join(f"{1 if i % 2 else -1} 1:{0.9 * (i % 5 - 2):.1f} "
                            f"2:{0.3 * (i % 3):.1f}\n" for i in range(n)))
    return str(path)


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("generate", "--seed", "7", "--g", "3", "--b", "20",
                       "--out", str(a)) == 0
        assert run_cli("generate", "--seed", "7", "--g", "3", "--b", "20",
                       "--out", str(b)) == 0
        assert (a / "stream.csv").read_bytes() == (b / "stream.csv").read_bytes()

    def test_row_count(self, tmp_path):
        run_cli("generate", "--seed", "1", "--g", "2", "--b", "15", "--out", str(tmp_path))
        lines = (tmp_path / "stream.csv").read_text().splitlines()
        assert len(lines) == 30


class TestRun:
    def test_reports_written(self, tmp_path, capsys):
        rc = run_cli("run", "--seeds", "1,2", "--g", "3", "--b", "30", "--out", str(tmp_path))
        assert rc == 0
        for name in ("steps.csv", "summary.json", "bounds.json"):
            assert (tmp_path / name).exists()
        out = capsys.readouterr().out
        assert "mean final-interval regret" in out

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = {"stream": {"G": 2, "B": 25}, "seeds": [3], "wstar_proxy": False}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        rc = run_cli("run", "--config", str(cfg_path), "--b", "40", "--out", str(out))
        assert rc == 0
        rows = (out / "steps.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 40  # header + G*B with the overridden B

    def test_unknown_config_key_is_config_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"nope": 1}))
        assert run_cli("run", "--config", str(cfg_path)) == 1

    @pytest.mark.parametrize("command,body", [
        # ids: body<i> for run, <command>-body<i> for the other two
        pytest.param(command, body, id=("" if command == "run" else f"{command}-") + f"body{i}")
        for command in ("run", "generate", "bounds")
        for i, body in enumerate(BAD_CONFIG_BODIES)
    ])
    def test_bad_config_value_is_one_line_exit_1(self, tmp_path, capsys, command, body):
        assert_config_error(tmp_path, capsys, command, {"stream": {"G": 2, "B": 20}, **body})

    @pytest.mark.parametrize("command", ["run", "bounds"])
    @pytest.mark.parametrize("body", EDGE_CONFIG_BODIES)
    def test_settings_at_the_edge_of_the_float_range_still_run(self, tmp_path, command, body):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"stream": {"G": 2, "B": 20}, "seeds": [0], **body}))
        assert run_cli(command, "--config", str(cfg_path), "--out", str(tmp_path / "o")) == 0
        assert (tmp_path / "o" / "bounds.json").exists()

    @pytest.mark.parametrize("command", ["run", "generate", "bounds"])
    @pytest.mark.parametrize("body,start", [
        ({"stream": {"D": 100}}, "D and R must keep the K condition's "),
        ({"R": 300, "stream": {"D": 300}}, "D and R must keep the K condition's "),
        ({"stream": {"seed": 5}}, "unknown config key stream.seed"),
    ], ids=["D_100", "D_R_300", "stream_seed"])
    def test_k_condition_overflow_and_stream_seed_fail_before_any_stream_is_generated(
            self, tmp_path, capsys, monkeypatch, command, body, start):
        calls = []
        for module in (cli, harness):
            monkeypatch.setattr(module, "generate", lambda *a: calls.append(a))
        err = assert_config_error(tmp_path, capsys, command, body)
        assert err.startswith(f"config error: {start}")
        assert calls == []

    @pytest.mark.parametrize("command", ["run", "generate", "bounds"])
    def test_seed_and_seeds_together_is_one_line_exit_1(self, tmp_path, capsys, command):
        rc = run_cli(command, "--seed", "1", "--seeds", "2,3", "--g", "2", "--b", "20",
                     "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert rc == 1 and not (tmp_path / "o").exists()
        assert err.startswith("config error:") and "--seed" in err and len(err.splitlines()) == 1

    def test_erm_convergence_failure_is_one_line_exit_3(self, tmp_path, capsys, monkeypatch):
        capped = functools.partial(harness.erm_oracle, max_iters=1)
        monkeypatch.setattr(harness, "erm_oracle", capped)
        rc = run_cli("run", "--seeds", "1", "--g", "2", "--b", "20",
                     "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("convergence error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 7.45 GiB")],
                             ids=["bare", "with_size"])
    def test_out_of_memory_is_one_line_exit_1(self, tmp_path, capsys, monkeypatch, exc):
        def oversized(config):
            raise exc
        monkeypatch.setattr(cli, "run_experiment", oversized)
        rc = run_cli("run", "--seeds", "1", "--g", "2", "--b", "1000000000",
                     "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert rc == 1 and not (tmp_path / "o").exists()
        assert err.startswith("memory error:") and len(err.splitlines()) == 1


class TestBounds:
    def test_report_json(self, tmp_path, capsys):
        rc = run_cli("bounds", "--seed", "3", "--g", "4", "--b", "50", "--out", str(tmp_path))
        assert rc == 0
        report = json.loads((tmp_path / "bounds.json").read_text())
        assert report["inputs"]["T"] == 50
        assert report["meta_regret_bound"] > 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == report

    def test_bad_bounds_value_is_one_line_exit_1(self, tmp_path, capsys):
        # booleans are not numbers, and a gamma of 0 is a bad value, not an unset one
        for bounds in ({"gamma": -1}, {"gamma": True, "regret_KE": False}, {"gamma": 0}):
            assert_config_error(tmp_path, capsys, "bounds", {"bounds": bounds})

    @pytest.mark.parametrize("key,value", [
        ("gamma", 0), ("regret_KE", float("inf")), ("omega_star", -1), ("weighted_loss", 1.5),
        ("gamma", 1e200),  # gamma**2 overflows
        ("gamma", 1e-300),  # gamma**2 underflows to 0
        ("regret_KE", -1e6),  # exp in k_condition overflows at T = 20000
    ])
    def test_bad_bounds_block_fails_before_any_stream_is_generated(
            self, tmp_path, capsys, monkeypatch, key, value):
        calls = []
        monkeypatch.setattr(cli, "generate", lambda *a: calls.append(a))
        body = {"bounds": {key: value}, "stream": {"G": 3, "B": 20000, "dim": 100}}
        err = assert_config_error(tmp_path, capsys, "bounds", body)
        assert err.startswith(f"config error: bounds.{key} ")
        assert calls == []


class TestParseLibsvm:
    def test_good_file(self, tmp_path, capsys):
        path = tmp_path / "data.libsvm"
        path.write_text("+1 1:0.5 3:-0.25\n-1\n1 2:0.75 3:0.1\n")
        assert run_cli("parse-libsvm", "--input", str(path)) == 0
        assert "3 samples" in capsys.readouterr().out

    def test_parse_error_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.libsvm"
        for text in ("1 2:abc\n", "1 100000000000000000000:1\n"):
            path.write_text(text)
            assert run_cli("parse-libsvm", "--input", str(path)) == 2
            assert capsys.readouterr().err.startswith("data error: line 1:")

    @pytest.mark.parametrize("dim", ["-3", "0"])
    def test_bad_dim_is_one_line_exit_1(self, tmp_path, capsys, dim):
        path = tmp_path / "data.libsvm"
        path.write_text("1\n-1\n")
        assert run_cli("parse-libsvm", "--input", str(path), "--dim", dim) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and len(err.splitlines()) == 1

    def test_missing_file_is_exit_2(self):
        assert run_cli("parse-libsvm", "--input", "/definitely/not/here") == 2

    def test_missing_input_flag_is_exit_1(self):
        assert run_cli("parse-libsvm") == 1


class TestLibsvmPipeline:
    def test_run_on_libsvm_input(self, tmp_path):
        lines = []
        for i in range(120):
            y = 1 if i % 2 == 0 else -1
            lines.append(f"{y} 1:{0.3 * y + 0.01 * (i % 7):.3f} 2:{0.1 * (i % 5):.3f}")
        data = tmp_path / "toy.libsvm"
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        rc = run_cli(
            "run", "--mode", "libsvm", "--input", str(data), "--seeds", "1",
            "--g", "3", "--b", "40", "--dim", "2", "--out", str(out),
        )
        assert rc == 0
        assert (out / "steps.csv").exists()

    def test_insufficient_samples_is_exit_2(self, tmp_path):
        data = tmp_path / "tiny.libsvm"
        data.write_text("1 1:0.5\n-1 1:-0.5\n")
        rc = run_cli(
            "run", "--mode", "libsvm", "--input", str(data), "--seeds", "1",
            "--g", "3", "--b", "40", "--dim", "1", "--out", str(tmp_path / "o"),
        )
        assert rc == 2

    @pytest.mark.parametrize("command", ["run", "generate", "bounds"])
    def test_empty_input_is_one_line_exit_2(self, tmp_path, capsys, command):
        data = tmp_path / "empty.libsvm"
        data.write_text("")
        rc = run_cli(command, "--mode", "libsvm", "--input", str(data), "--dim", "2",
                     "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("data error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("mode", ["libsvm", "synthetic"])
    def test_bounds_and_run_use_the_same_eigenvalues(self, tmp_path, capsys, mode):
        """Both estimate them on the final interval's samples, noised in libsvm
        mode; synthetic mode runs at the default stream shape."""
        argv = ["--seed", "3"]
        if mode == "libsvm":
            data = tmp_path / "toy.libsvm"
            data.write_text("".join(f"{1 if i % 2 else -1} 1:{0.9 * (i % 5 - 2):.1f} "
                                    f"2:{0.3 * (i % 3):.1f} 3:{0.05 * (i % 7):.2f}\n"
                                    for i in range(200)))
            argv += ["--mode", "libsvm", "--input", str(data), "--dim", "3",
                     "--g", "4", "--b", "40"]
        assert run_cli("run", *argv, "--out", str(tmp_path / "run")) == 0
        assert run_cli("bounds", *argv, "--out", str(tmp_path / "bounds")) == 0
        capsys.readouterr()
        ran = json.loads((tmp_path / "run" / "bounds.json").read_text())["3"]
        alone = json.loads((tmp_path / "bounds" / "bounds.json").read_text())
        assert alone["inputs"]["eigenvalues"] == ran["inputs"]["eigenvalues"]

    @pytest.mark.parametrize("command", ["run", "generate", "bounds"])
    def test_noise_past_the_float_range_is_one_line_exit_1(self, tmp_path, capsys, command):
        body = {"stream": {"G": 4, "B": 40, "dim": 2, "mode": "libsvm_noised", "noise_std": 1e308},
                "input": write_libsvm(tmp_path / "toy.libsvm")}
        err = assert_config_error(tmp_path, capsys, command, body)
        assert err.startswith("config error: noise_std=1e+308 ")

    def test_bad_argument_is_exit_1(self):
        assert run_cli("run", "--strategy", "bogus") == 1


@pytest.mark.parametrize("flags", [
    ["--drift-std", "1e200"],
    ["--noise-std", "1e200", "--mode", "libsvm", "--input", "toy.libsvm", "--dim", "2"],
], ids=["synthetic", "libsvm"])
def test_rows_whose_norm_overflows_land_on_the_sphere(tmp_path, capsys, monkeypatch, flags):
    """Huge but finite rows are conditioned onto the D-sphere, with nothing on
    stderr; they used to be zeroed, so a run reported zero regret."""
    monkeypatch.chdir(tmp_path)
    write_libsvm(tmp_path / "toy.libsvm")
    flags = [*flags, "--g", "2", "--b", "3", "--seed", "0"]
    assert run_cli("generate", *flags, "--out", "gen") == 0
    assert run_cli("run", *flags, "--out", "run") == 0
    assert capsys.readouterr().err == ""
    X = np.loadtxt(tmp_path / "gen" / "stream.csv", delimiter=",", ndmin=2)[:, 3:]
    np.testing.assert_allclose(np.linalg.norm(X, axis=1), 1.0, rtol=1e-15)
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["aggregate"]["mean_final_regret_co2"] != 0.0


def test_readme_config_block_is_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("### Config file"):]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    assert json.loads(block) == _defaults()


# A legal value other than the default for every leaf key of the config file,
# and the other keys it needs; test_no_config_key_is_silently_ignored holds this
# table to the keys, so a new key must be shown to reach the run.
NON_DEFAULT_VALUES = {
    "stream.G": 3, "stream.B": 20, "stream.dim": 3, "stream.mode": "libsvm_noised",
    "stream.drift_std": 0.5, "stream.noise_std": 0.2, "stream.D": 2.0,
    "R": 0.5, "k_max": 3, "strategy": "fifo", "init": "warm", "gamma_floor": 0.2,
    "delta": 0.1, "wstar_proxy": False, "seeds": [3, 4], "input": "data.libsvm",
    "out": "elsewhere",
    "bounds.regret_KE": 1.5, "bounds.omega_star": 0.5, "bounds.weighted_loss": 0.25,
    "bounds.gamma": 0.3,
}
NEEDS = {"stream.mode": {"input": "data.libsvm"}}


def test_no_config_key_is_silently_ignored(tmp_path):
    """Each key, set alone, reaches the built ExperimentConfig, the output
    directory or the bound inputs."""
    leaves = {}
    for key, value in _defaults().items():
        if isinstance(value, dict):
            leaves.update({f"{key}.{name}": v for name, v in value.items()})
        else:
            leaves[key] = value
    assert sorted(NON_DEFAULT_VALUES) == sorted(leaves)
    path = tmp_path / "cfg.json"
    for key, value in NON_DEFAULT_VALUES.items():
        assert value != leaves[key], key
        section, _, name = key.rpartition(".")
        path.write_text(json.dumps({**({section: {name: value}} if section else {name: value}),
                                    **NEEDS.get(key, {})}))
        cfg = cli._load_config(cli._build_parser().parse_args(["run", "--config", str(path)]))
        config = cli._experiment_config(cfg)
        if section == "stream":
            got = getattr(config.stream, name)
        elif section == "bounds":
            got = getattr(config.bound_inputs((), **cfg["bounds"]), name)
        elif key == "out":
            got = cfg["out"]
        else:
            got = getattr(config, cli._FIELD_OF_KEY.get(key, key))
        assert got == (tuple(value) if key == "seeds" else value), key
