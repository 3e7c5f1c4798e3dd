import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from co2learn import bounds, cli, harness, offline
from co2learn.cli import _defaults, main
from co2learn.losses import LossSpec


def run_cli(*argv):
    return main(list(argv))


MEMORY_HINT = "lower --b, --g, --dim, --kmax or --seeds"  # ends each memory error


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
    {"stream": {"G": 2, "B": 20, "D": 10**400}},  # an integer past the float range
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
    # equal to 1 and to 0 modulo 2**64, the generator's seed range, so each ran one stream twice
    {"seeds": [1, 2**64 + 1]},
    {"seeds": [0, -2**64]},
    # seed 1's class-mean walk overflows at interval 2; it used to end in a traceback
    {"stream": {"G": 4, "B": 5, "drift_std": 1e308}, "seeds": [1]},
    # derived values that leave the float range; each used to end in a traceback
    {"R": 1e-155},  # 1/(4 R^2) overflows, and the trainer's kappa is NaN
    {"R": 1e-200},  # 4 R^2 underflows to 0
    {"stream": {"G": 2, "B": 20, "D": 1e-155}, "R": 1e-155},  # beta > 0, but 1/beta overflows
    {"gamma_floor": 1e-200},  # 32 beta / gamma_floor^2 overflows
    {"R": 2.5e-150, "stream": {"D": 1e154, "G": 2, "B": 20000}},  # 6 D sqrt(T beta) overflows
    {"R": 1e150, "stream": {"D": 1e-10, "G": 2, "B": 20}},  # 2 R^2 / D overflows
    {"stream": {"G": 2, "B": 20, "seed": 5}},  # the stream seed is the first of seeds
    {"input": "x.libsvm"},  # synthetic mode would run without ever reading the file
]

# R > D, where the OGD bound is Zinkevich's (2 R^2 / D + 4 D) sqrt(T beta)
R_ABOVE_D = {"stream": {"D": 0.1, "G": 4}, "seeds": [0]}

# The nearest settings to the float-range rows above that still run.
EDGE_CONFIG_BODIES = [
    {"R": 1e-50},
    {"R": 1e-100},  # gamma = 1/(4 R^2) = 2.5e199, whose square would overflow
    {"stream": {"G": 2, "B": 20, "D": 1e-50}, "R": 1e-50},
    {"gamma_floor": 1e150},
    {"gamma_floor": 1e160},  # its square would overflow
    {"stream": {"G": 2, "B": 20, "D": 30}},  # 6 D sqrt(beta) = 493
    # 6 D sqrt(beta) = 1.9e3 overflows exp, but not the K condition's log form
    {"R": 0.1, "stream": {"G": 2, "B": 20, "D": 100}},
    R_ABOVE_D,
    {"R": 100, "stream": {"D": 0.01, "G": 2, "B": 20}},  # (2 R^2 / D + 4 D) sqrt(beta) = 8.7e3
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

    def test_memory_does_not_grow_with_G(self, tmp_path, traced):
        # one interval is 64 rows of 65 values (33 KiB); holding all 24 at once
        # peaked at 3.4 times the peak at G 3
        def peak(G):
            argv = ["generate", "--g", str(G), "--b", "64", "--dim", "64", "--out", str(tmp_path)]
            peak, _, rc = traced(lambda: main(argv))
            assert rc == 0
            return peak

        peak(3)  # the first call also allocates the parser's and the imports' caches
        assert peak(24) <= 1.25 * peak(3)

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

    @pytest.mark.parametrize("command,written", [
        ("run", "bounds.json"), ("bounds", "bounds.json"), ("generate", "stream.csv")])
    @pytest.mark.parametrize("body", EDGE_CONFIG_BODIES)
    def test_settings_at_the_edge_of_the_float_range_still_run(self, tmp_path, command, written,
                                                              body):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"stream": {"G": 2, "B": 20}, "seeds": [0], **body}))
        assert run_cli(command, "--config", str(cfg_path), "--out", str(tmp_path / "o")) == 0
        assert (tmp_path / "o" / written).exists()

    def test_an_R_above_D_run_keeps_the_general_ogd_bound(self, tmp_path):
        """At D = 0.1 and R = 1 the online expert's regret passes 6 D sqrt(T beta),
        the bound's value at R = D, and stays under the bound the run asserts."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(R_ABOVE_D))
        assert run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "o")) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        intervals = summary["per_seed"][0]["intervals"]
        beta = LossSpec(D=0.1, R=1.0, dim=2).beta
        assert len(intervals) == 4
        assert max(m["regret_oe"] / (6 * 0.1 * (m["T"] * beta) ** 0.5) for m in intervals) > 1
        assert all(m["regret_oe"] <= m["ogd_bound"] for m in intervals)

    @pytest.mark.parametrize("command", ["run", "generate", "bounds"])
    @pytest.mark.parametrize("body,start", [
        ({"gamma_floor": 1e-200}, "gamma_floor=1e-200: transfer_gap_bound must be a finite "),
        # a bound that does not read gamma is named with no setting: its inputs show the cause
        ({"R": 2.5e-150, "stream": {"D": 1e154, "G": 2, "B": 20000}},
         "ogd_regret_bound must be a finite "),
        ({"R": 1e150, "stream": {"D": 1e-10, "G": 2, "B": 20}},
         "ogd_regret_bound must be a finite number, got inf at T=20, "),  # 2 R^2 / D overflows
        ({"delta": 1e-320}, "excess_risk_bound must be a finite "),  # log(16 / delta) overflows
        ({"R": 1e-155}, "R=1e-155: 1/(4 R^2) must be a finite number, got inf"),
        ({"stream": {"seed": 5}}, "unknown config key stream.seed"),
    ], ids=["gamma_floor_1e-200", "ogd_overflow", "ogd_overflow_R_above_D", "delta_1e-320",
            "R_1e-155", "stream_seed"])
    def test_config_error_names_the_setting_before_any_stream_is_generated(
            self, tmp_path, capsys, monkeypatch, command, body, start):
        calls = []
        for module, draw in ((harness, "intervals"), (cli, "intervals"), (cli, "final_interval")):
            monkeypatch.setattr(module, draw, lambda *a: calls.append(a))
        err = assert_config_error(tmp_path, capsys, command, body)
        assert err.startswith(f"config error: {start}")
        assert calls == []

    # Refused while the K condition's 2 exp(6 D sqrt(beta)) overflowed. The
    # config now takes them; run hits the ERM oracle's iteration cap (exit 3)
    # after about 10 s, so only the commands without an ERM solve run here.
    @pytest.mark.parametrize("command", ["generate", "bounds"])
    @pytest.mark.parametrize("body", [
        {"stream": {"D": 100}},  # 6 D sqrt(beta) = 3000
        {"R": 300, "stream": {"D": 300}},
    ], ids=["D_100", "D_R_300"])
    def test_shapes_past_exp_range_pass_the_config(self, tmp_path, command, body):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(body))
        assert run_cli(command, "--config", str(cfg_path), "--out", str(tmp_path / "o")) == 0

    @pytest.mark.parametrize("command", ["run", "generate", "bounds"])
    def test_seed_and_seeds_together_is_one_line_exit_1(self, tmp_path, capsys, command):
        rc = run_cli(command, "--seed", "1", "--seeds", "2,3", "--g", "2", "--b", "20",
                     "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert rc == 1 and not (tmp_path / "o").exists()
        assert err.startswith("config error:") and "--seed" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("seeds", ["1,18446744073709551617", "0,-18446744073709551616"])
    def test_seeds_outside_the_generator_range_are_one_line_exit_1(self, tmp_path, capsys,
                                                                    seeds):
        rc = run_cli("run", "--seeds", seeds, "--g", "2", "--b", "20", "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert rc == 1 and not (tmp_path / "o").exists()
        assert err == (f"config error: each seed must be an integer >= 0 and "
                       f"<= 18446744073709551615, got {seeds.split(',')[1]}\n")

    def test_erm_convergence_failure_is_one_line_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(offline, "ERM_MAX_ITERS", 1)
        rc = run_cli("run", "--seeds", "1", "--g", "2", "--b", "20",
                     "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("convergence error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("exc,message", [
        (MemoryError(), "out of memory"),
        (MemoryError("Unable to allocate 7.45 GiB"), "Unable to allocate 7.45 GiB"),
    ], ids=["bare", "with_size"])
    def test_out_of_memory_is_one_line_exit_1(self, tmp_path, capsys, monkeypatch, exc, message):
        def oversized(config):
            raise exc
        monkeypatch.setattr(cli, "run_experiment", oversized)
        rc = run_cli("run", "--seeds", "1", "--g", "2", "--b", "20", "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert rc == 1 and not (tmp_path / "o").exists()
        assert err == f"memory error: {message}; {MEMORY_HINT}\n"

    SHAPE = ("--seeds", "0,1", "--g", "10", "--b", "100")

    @staticmethod
    def physical_pages(monkeypatch, pages):
        sizes, real = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": pages}, os.sysconf
        monkeypatch.setattr(harness.os, "sysconf", lambda name: sizes.get(name) or real(name))

    def test_only_run_counts_the_step_tables(self, tmp_path, capsys, monkeypatch):
        """At G*B = 1000 rows of dim 2 the stream holds 24 000 bytes and each
        seed's step table 72 000: 64 KiB fits the stream, which generate and
        bounds count, but not run's two step tables, beside its one interval;
        its w* node set is not counted."""
        self.physical_pages(monkeypatch, 16)
        for command in ("generate", "bounds"):
            assert run_cli(command, *self.SHAPE, "--out", str(tmp_path / command)) == 0
        capsys.readouterr()
        assert run_cli("run", *self.SHAPE, "--out", str(tmp_path / "run")) == 1
        err = capsys.readouterr().err
        assert err.startswith("memory error: one interval, 100 rows of 3 float64 values, and a "
                              "step table per seed, S x G*B = 2 x 10 x 100 rows of 9, need ")
        assert len(err.splitlines()) == 1
        assert err.endswith(f"; {MEMORY_HINT}\n") and not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["generate", "bounds"])
    def test_generate_and_bounds_say_they_walk_the_stream(self, tmp_path, capsys, monkeypatch,
                                                          command):
        """Each holds one interval but counts the stream's 24 000 bytes, so that a
        walk or a write that would not end is refused; 20 KiB is too little."""
        self.physical_pages(monkeypatch, 5)
        assert run_cli(command, *self.SHAPE, "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err == ("memory error: the stream, G*B = 1000 rows of 3 float64 values drawn "
                       "one interval at a time, needs more than the machine's 1.91e-05 GiB; "
                       f"{MEMORY_HINT}\n")
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind,code,prefix", cli.EXIT_CODES,
                         ids=[kind.__name__ for kind, _, _ in cli.EXIT_CODES])
def test_each_exit_code_row_is_one_stderr_line(tmp_path, capsys, monkeypatch, kind, code, prefix):
    def fail(config):
        raise kind("boom")
    monkeypatch.setattr(cli, "run_experiment", fail)
    rc = run_cli("run", "--seeds", "1", "--g", "2", "--b", "20", "--out", str(tmp_path / "o"))
    err = capsys.readouterr().err
    assert rc == code
    assert err.startswith(f"{prefix}: boom") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_help_lists_every_exit_code_row(capsys):
    with pytest.raises(SystemExit) as exit_:
        run_cli("--help")
    assert exit_.value.code == 0
    epilog = capsys.readouterr().out.split("exit codes:\n")[1]
    assert epilog.splitlines() == ["  0  success"] + [
        f"  {code}  {prefix}" for _, code, prefix in cli.EXIT_CODES]


@pytest.mark.parametrize("command", ["run", "generate", "bounds"])
def test_out_naming_a_file_is_one_line_exit_2(tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("kept")
    rc = run_cli(command, "--seeds", "1", "--g", "2", "--b", "20", "--out", str(out))
    err = capsys.readouterr().err
    assert rc == 2 and out.read_text() == "kept"
    assert err.startswith("i/o error: [Errno 17] File exists:") and len(err.splitlines()) == 1


def test_a_violated_bound_is_one_line_exit_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bounds, "meta_regret_bound", lambda *a: -1.0)
    rc = run_cli("run", "--seeds", "1", "--g", "2", "--b", "20", "--out", str(tmp_path / "o"))
    err = capsys.readouterr().err
    assert rc == 3 and not (tmp_path / "o").exists()
    assert re.fullmatch(r"bound violation: seed 1 interval 1: meta regret \S+ exceeds bound -1.0\n",
                        err)


# Each needs above 1 TB: for one seed's stream, which generate and bounds
# count though a synthetic one holds one interval (a libsvm one its input),
# and for run's step table (at B 1e20 also for its one interval), which only
# run holds, so k_max 1e20 is run's alone. Each used to end in a numpy
# traceback ("Maximum allowed dimension exceeded") or never end while its
# stream was walked or written interval by interval, which the count refuses.
OVERSIZE_BODIES = {
    "B_1e20": {"stream": {"B": 10**20}},
    "k_max_1e20": {"k_max": 10**20},
    "G_1e20": {"stream": {"G": 10**20, "B": 2}},
    "G_1e12": {"stream": {"G": 10**12, "B": 2}},
}


@pytest.mark.parametrize("body,command", [
    pytest.param(body, command, id=f"{name}-{command}")
    for command in ("run", "generate", "bounds") for name, body in OVERSIZE_BODIES.items()
    if command == "run" or name != "k_max_1e20"])
def test_an_oversize_shape_is_one_line_exit_1_before_any_stream_is_drawn(
        tmp_path, command, body):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(body))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # a child process with a timeout, so a shape that is drawn again fails instead of hanging
    proc = subprocess.run([sys.executable, "-m", "co2learn", command, "--config", str(cfg_path),
                           "--out", str(tmp_path / "o")],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1 and not (tmp_path / "o").exists()
    assert proc.stderr.startswith(("config error:", "memory error:"))
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


@pytest.mark.parametrize("command", ["generate", "bounds"])
def test_k_max_does_not_size_generate_or_bounds(tmp_path, command):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(OVERSIZE_BODIES["k_max_1e20"]))
    assert run_cli(command, "--config", str(cfg_path), "--out", str(tmp_path / "o")) == 0


class TestBounds:
    def test_report_json(self, tmp_path, capsys):
        rc = run_cli("bounds", "--seed", "3", "--g", "4", "--b", "50", "--out", str(tmp_path))
        assert rc == 0
        report = json.loads((tmp_path / "bounds.json").read_text())
        assert report["inputs"]["T"] == 50
        assert report["meta_regret_bound"] > 0
        assert capsys.readouterr().out == (tmp_path / "bounds.json").read_text()

    def test_bad_bounds_value_is_one_line_exit_1(self, tmp_path, capsys):
        # booleans are not numbers, and a gamma of 0 is a bad value, not an unset one
        for bounds in ({"gamma": -1}, {"gamma": True, "regret_KE": False}, {"gamma": 0}):
            assert_config_error(tmp_path, capsys, "bounds", {"bounds": bounds})

    @pytest.mark.parametrize("key,value,name", [
        ("gamma", 0, "gamma"), ("regret_KE", float("inf"), "regret_KE"),
        ("omega_star", -1, "omega_star"), ("weighted_loss", 1.5, "weighted_loss"),
        ("gamma", 1e-300, "transfer_gap_bound"),  # 32 beta / gamma^2 overflows
    ])
    def test_bad_bounds_block_fails_before_any_stream_is_generated(
            self, tmp_path, capsys, monkeypatch, key, value, name):
        calls = []
        for draw in ("intervals", "final_interval"):
            monkeypatch.setattr(cli, draw, lambda *a: calls.append(a))
        body = {"bounds": {key: value}, "stream": {"G": 3, "B": 20000, "dim": 100}}
        err = assert_config_error(tmp_path, capsys, "bounds", body)
        assert err.startswith(f"config error: bounds.{name} ")
        assert calls == []

    @pytest.mark.parametrize("key,value", [
        ("gamma", 1e200),  # gamma**2 would overflow; 32 beta / gamma / gamma is 0.0
        ("regret_KE", -1e6),  # 2 exp(...) would overflow at T = 20000; its log is finite
    ])
    def test_bounds_block_at_the_float_range_edge_runs(self, tmp_path, key, value):
        body = {"bounds": {key: value}, "stream": {"G": 2, "B": 20000}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(body))
        assert run_cli("bounds", "--config", str(cfg_path), "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "bounds.json").read_text())
        assert report["inputs"][key] == value
        assert all(np.isfinite(v) for k, v in report.items() if k != "inputs")


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


def test_readme_states_the_memory_hint():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert f"`; {MEMORY_HINT}`" in readme


def test_readme_exit_table_is_the_cli_s():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\d)` \| `([a-z/ ]+):` \| .*\(`(\w+)`\) \|$", readme, re.M)
    assert rows == [(str(code), prefix, kind.__name__) for kind, code, prefix in cli.EXIT_CODES]


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
NEEDS = {"stream.mode": {"input": "data.libsvm"},
         "input": {"stream": {"mode": "libsvm_noised"}}}


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
        assert reached(cfg, key) == (tuple(value) if key == "seeds" else value), key


def reached(cfg, key):
    """The value config key ``key`` (``section.name`` for a nested one) has
    in what ``cfg`` builds: the ExperimentConfig, the bound inputs or ``out``."""
    config = cli._experiment_config(cfg)
    section, _, name = key.rpartition(".")
    if section == "stream":
        return getattr(config.stream, name)
    if section == "bounds":
        return getattr(config.bound_inputs((), **cfg["bounds"]), name)
    if key == "out":
        return cfg["out"]
    return getattr(config, cli._FIELD_OF_KEY.get(key, key))


# Per flag: its text, the config key it sets and the value that key then has,
# none of them the default. --mode, --seed and --seeds are translated; every
# other flag sets the key its dest names.
FLAG_ROWS = {
    "--g": ("3", "stream.G", 3), "--b": ("20", "stream.B", 20), "--dim": ("3", "stream.dim", 3),
    "--kmax": ("3", "k_max", 3), "--strategy": ("fifo", "strategy", "fifo"),
    "--init": ("warm", "init", "warm"), "--drift-std": ("0.5", "stream.drift_std", 0.5),
    "--noise-std": ("0.2", "stream.noise_std", 0.2),
    "--gamma-floor": ("0.2", "gamma_floor", 0.2), "--input": ("data.libsvm", "input", "data.libsvm"),
    "--out": ("elsewhere", "out", "elsewhere"),
    "--mode": ("libsvm", "stream.mode", "libsvm_noised"),
    "--seed": ("3", "seeds", (3,)), "--seeds": ("3,4", "seeds", (3, 4)),
}


def test_every_other_flag_dest_is_a_config_key():
    """A flag added without a config key fails here instead of being ignored."""
    defaults = _defaults()
    parser = cli._Parser()
    cli._add_common(parser)
    dests = {a.option_strings[-1]: a.dest for a in parser._actions if a.option_strings}
    assert sorted(dests) == sorted([*FLAG_ROWS, "--config", "--help"])
    for flag, dest in dests.items():
        if flag not in ("--help", "--config", "--seed", "--seeds", "--mode"):
            assert dest in defaults or dest in defaults["stream"], flag
            section = "stream." if dest in defaults["stream"] else ""
            assert FLAG_ROWS[flag][1] == section + dest, flag


@pytest.mark.parametrize("flag", FLAG_ROWS)
def test_each_flag_reaches_the_built_config(flag):
    text, key, value = FLAG_ROWS[flag]
    assert reached(_defaults(), key) != value
    needs = {"--mode": ["--input", "data.libsvm"], "--input": ["--mode", "libsvm"]}
    args = cli._build_parser().parse_args(["run", flag, text, *needs.get(flag, [])])
    assert reached(cli._load_config(args), key) == value
