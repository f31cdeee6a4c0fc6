import json
import math
import subprocess
import sys

import pytest

from peelkit.cli import build_parser, main, parse_args


def run_cli(args, tmp_path=None):
    proc = subprocess.run(
        [sys.executable, "-m", "peelkit.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


class TestParse:
    def test_analyze_preset(self):
        cfg = parse_args(["analyze", "--preset", "quadrangulation"])
        assert cfg.command == "analyze"
        assert cfg.preset_name == "quadrangulation"
        assert cfg.seed == 0

    def test_simulate_flags(self):
        cfg = parse_args([
            "simulate", "--preset", "triangulation", "--mode", "ibpm",
            "--steps", "100000", "--seed", "7",
        ])
        assert cfg.mode == "ibpm"
        assert cfg.steps == 100000
        assert cfg.seed == 7

    def test_enumerate_weights(self):
        cfg = parse_args([
            "enumerate", "--weights", '{"4":"1/12"}', "--l", "2",
            "--dmax", "40",
        ])
        assert cfg.weights_json == '{"4":"1/12"}'
        assert cfg.l == 2 and cfg.dmax == 40

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["analyze", "--bogus"])
        assert exc.value.code == 2

    def test_missing_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_args([])
        assert exc.value.code == 2


class TestCommands:
    def test_analyze_quadrangulation(self, capsys):
        rc = main(["analyze", "--preset", "quadrangulation"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["c_plus"] == pytest.approx(2.8284271, abs=1e-6)
        assert doc["law"]["L_nu"] == pytest.approx(1.3333333, abs=1e-6)
        assert doc["classification"] == "regular_critical"
        assert doc["miermont"]["ok"]

    def test_analyze_geometric(self, capsys):
        rc = main(["analyze", "--preset", "geometric", "--H", "3"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["r"] == pytest.approx(0.6, abs=1e-9)
        assert doc["law"]["L_nu"] == pytest.approx(5.0, abs=1e-9)

    def test_analyze_not_admissible_exit_1(self, capsys):
        rc = main(["analyze", "--weights", '{"4":"1"}'])
        assert rc == 1

    def test_analyze_not_admissible_strict_json(self, capsys):
        # the NaN constants of a beyond-boundary verdict are written as
        # null, for a general and for a bipartite support
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        for weights in ('{"3":"1","4":"1"}', '{"4":"1"}'):
            rc = main(["analyze", "--weights", weights])
            assert rc == 1
            doc = json.loads(capsys.readouterr().out, parse_constant=reject)
            assert doc["classification"] == "not_admissible"
            assert doc["residuals"]["path"] == "fold-beyond"
            assert doc["c_plus"] is None

    def test_preset_table(self, capsys):
        rc = main(["preset", "--preset", "two_p_angulation", "--p", "3"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["constants"]["nu_m2"] == "1/3"

    def test_enumerate_stdout(self, capsys):
        rc = main(["enumerate", "--weights", '{"4":"1/12"}', "--l", "2",
                   "--dmax", "8"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "l,D,F,V,weight_num,weight_den"
        assert "2,4,1,3,1,6" in out

    def test_tune_critical(self, capsys):
        rc = main(["tune-critical", "--weights", '{"4":"1"}'])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["t_star"] == pytest.approx(1 / 12, rel=1e-9)

    def test_simulate_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            rc = main(["simulate", "--preset", "quadrangulation",
                       "--mode", "ibpm", "--steps", "500", "--seed", "7",
                       "--out", str(path)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_binary(self, tmp_path):
        from peelkit.peeling import PeelTrace

        out = tmp_path / "trace.bin"
        rc = main(["simulate", "--preset", "quadrangulation", "--steps",
                   "100", "--seed", "3", "--format", "binary",
                   "--out", str(out)])
        assert rc == 0
        per, vol = PeelTrace.read_binary(out)
        assert len(per) == 101
        assert per[0] == 2

    def test_simulate_negative_steps_exit_1(self, tmp_path, capsys):
        rc = main(["simulate", "--preset", "quadrangulation", "--steps", "-3",
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        assert "PEELKIT_ERR invalid_input" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("flag", ["--steps", "--ecf-samples"])
    def test_scaling_test_zero_size_exit_1(self, flag, capsys):
        rc = main(["scaling-test", "--models", "quadrangulation", flag, "0"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "PEELKIT_ERR invalid_input" in captured.err
        assert "n_samples" in captured.err and captured.out == ""

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    def test_simulate_seed_checked(self, seed, tmp_path, capsys):
        rc = main(["simulate", "--preset", "quadrangulation", "--seed", seed,
                   "--steps", "10", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        captured = capsys.readouterr()
        assert "PEELKIT_ERR invalid_input" in captured.err
        assert "seed" in captured.err and captured.out == ""

    def test_scaling_test_sizes_checked_first(self, monkeypatch, capsys):
        # a bad size must stop the command before the ecf test runs
        from peelkit import scaling

        def fail(*args, **kwargs):
            raise AssertionError("ecf_test ran before the size check")

        monkeypatch.setattr(scaling, "ecf_test", fail)
        rc = main(["scaling-test", "--models", "quadrangulation",
                   "--chains", "0", "--ecf-samples", "200000",
                   "--steps", "2000"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "PEELKIT_ERR invalid_input" in captured.err
        assert "chains=0" in captured.err and captured.out == ""

    def test_scaling_test_small(self, capsys):
        rc = main(["scaling-test", "--models", "quadrangulation",
                   "--steps", "400", "--chains", "300",
                   "--ecf-samples", "500"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert "ecf" in doc and "collapse" in doc and "slopes" in doc
        assert doc["slopes"]["quadrangulation"]["predicted"] == pytest.approx(0.5)

    def test_missing_weight_source(self, capsys):
        rc = main(["analyze"])
        assert rc == 1
        assert "PEELKIT_ERR" in capsys.readouterr().err


class TestSubprocess:
    def test_one_parser_many_calls(self, capsys):
        # the parser is built once per process; calls that share it, a
        # usage error among them, must answer as separate processes do
        calls = [
            ["preset", "--preset", "two_p_angulation", "--p", "3"],
            ["enumerate", "--weights", '{"4":"1/12"}', "--l", "2",
             "--dmax", "8"],
            ["preset", "--preset", "odd_angulation", "--p", "1"],
        ]
        assert build_parser() is build_parser()
        together = []
        for args in calls[:2]:
            together.append((main(args), capsys.readouterr().out))
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--bogus"])
        assert exc.value.code == 2
        capsys.readouterr()
        together.append((main(calls[2]), capsys.readouterr().out))
        apart = [(p.returncode, p.stdout) for p in map(run_cli, calls)]
        assert together == apart
        assert all(rc == 0 for rc, _ in together)

    def test_help_has_flag_map(self):
        proc = run_cli(["--help"])
        assert proc.returncode == 0
        assert "formula-to-flag map" in proc.stdout

    def test_usage_error_exit_code(self):
        proc = run_cli(["analyze", "--nope"])
        assert proc.returncode == 2

    def test_analyze_end_to_end(self):
        proc = run_cli(["analyze", "--preset", "triangulation"])
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["r"] == pytest.approx(2 * math.sqrt(3) - 3, abs=1e-9)
