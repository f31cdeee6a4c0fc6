import argparse
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
        ns = parse_args(["analyze", "--preset", "quadrangulation"])
        assert ns.command == "analyze"
        assert ns.preset == "quadrangulation"

    def test_simulate_flags(self):
        ns = parse_args([
            "simulate", "--preset", "triangulation", "--mode", "ibpm",
            "--steps", "100000", "--seed", "7",
        ])
        assert ns.mode == "ibpm"
        assert ns.steps == 100000
        assert ns.seed == 7

    def test_enumerate_weights(self):
        ns = parse_args([
            "enumerate", "--weights", '{"4":"1/12"}', "--l", "2",
            "--dmax", "40",
        ])
        assert ns.weights == '{"4":"1/12"}'
        assert ns.l == 2 and ns.dmax == 40

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

    def test_scaling_test_too_few_chains(self, monkeypatch, capsys):
        # fewer chains than standard-error groups stop the command before
        # the ecf test runs, with the CLI's own error line
        from peelkit import scaling

        def fail(*args, **kwargs):
            raise AssertionError("ecf_test ran before the size check")

        monkeypatch.setattr(scaling, "ecf_test", fail)
        rc = main(["scaling-test", "--models", "quadrangulation",
                   "--steps", "50", "--chains", "10", "--ecf-samples", "100"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "PEELKIT_ERR invalid_input" in captured.err
        assert "chains=10" in captured.err and "chains >= 16" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

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


class TestEarlyRefusals:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--preset", "triangulation", "--steps", "30000000"],
        ["analyze", "--preset", "quadrangulation", "--format", "csv"],
        ["scaling-test", "--models", "quadrangulation", "--format", "csv"],
    ])
    def test_missing_out_exits_2_before_any_work(self, argv, monkeypatch,
                                                 capsys):
        from peelkit import criticality

        def no_work(*args, **kwargs):
            raise AssertionError("the command ran before its --out check")

        monkeypatch.setattr(criticality, "solve_boltzmann", no_work)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("PEELKIT_ERR usage: ")
        assert "needs --out" in captured.err and captured.out == ""

    def test_tune_symmetric_family_is_invalid_input(self, capsys):
        rc = main(["tune-critical", "--preset", "symmetric_critical", "--r", "1",
                   "--a", "0.785"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "PEELKIT_ERR invalid_input" in captured.err
        assert "by construction" in captured.err and captured.out == ""


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


# -- every subcommand declares only the flags it reads ------------------------------

OUT, CFG_A, CFG_B = "<out>", "<config a>", "<config b>"
QUAD = ["--preset", "quadrangulation"]
SCALING = ["--models", "quadrangulation", "--steps", "20", "--chains", "16",
           "--ecf-samples", "20"]
SIMULATE = QUAD + ["--steps", "20", "--out", OUT]
ENUMERATE = ["--weights", '{"4":"1/12"}', "--l", "2", "--dmax", "8"]
SYM = ["--preset", "symmetric_critical", "--r", "1", "--a", "0.7"]


def _source_pairs(rest, refused=()):
    """Two runs per weight-source flag that differ in that flag alone, with
    the subcommand's other flags rest.  A flag in refused gets two values
    that its family refuses, with different messages: enumerate refuses
    every infinite family, and tune-critical refuses the symmetric one,
    so there the flag can only change the refusal."""
    pairs = {
        "--weights": (["--weights", '{"4":"1/12"}'],
                      ["--weights", '{"4":"1/12","6":"1/1000"}']),
        "--preset": (QUAD, ["--preset", "triangulation"]),
        "--config": (["--config", CFG_A], ["--config", CFG_B]),
        "--p": (["--preset", "two_p_angulation", "--p", "2"],
                ["--preset", "two_p_angulation", "--p", "3"]),
        "--H": (["--preset", "geometric", "--H", "3"],
                ["--preset", "geometric", "--H", "5"]),
        "--r": (SYM, ["--preset", "symmetric_critical", "--r", "0.5", "--a", "0.7"]),
        "--a": (SYM, ["--preset", "symmetric_critical", "--r", "1", "--a", "0.6"]),
    }
    refusals = {
        "--H": (["--preset", "geometric", "--H", "0.5"],
                ["--preset", "geometric", "--H", "0.9"]),
        "--r": (["--preset", "symmetric_critical", "--r", "-0.3", "--a", "0.7"],
                ["--preset", "symmetric_critical", "--r", "-0.5", "--a", "0.7"]),
        "--a": (["--preset", "symmetric_critical", "--r", "1", "--a", "0.9"],
                ["--preset", "symmetric_critical", "--r", "1", "--a", "1.0"]),
    }
    pairs.update((flag, refusals[flag]) for flag in refused)
    return {flag: (a + rest, b + rest) for flag, (a, b) in pairs.items()}


REFUSED = {"enumerate": ("--H", "--r", "--a"), "tune-critical": ("--r", "--a")}
READ = {
    "analyze": {
        **_source_pairs([]),
        "--out": (QUAD, QUAD + ["--out", OUT]),
        "--format": (QUAD + ["--out", OUT], QUAD + ["--format", "csv", "--out", OUT]),
        "--k-neg": (QUAD, QUAD + ["--k-neg", "32"]),
    },
    "preset": {
        **{flag: pair for flag, pair in _source_pairs([]).items()
           if flag not in ("--weights", "--config")},
        "--out": (QUAD, QUAD + ["--out", OUT]),
    },
    "simulate": {
        **_source_pairs(["--steps", "20", "--out", OUT]),
        "--out": (SIMULATE[:-2], SIMULATE),
        "--format": (SIMULATE, SIMULATE + ["--format", "binary"]),
        "--seed": (SIMULATE, SIMULATE + ["--seed", "1"]),
        "--mode": (SIMULATE, SIMULATE + ["--mode", "finite"]),
        "--steps": (SIMULATE, QUAD + ["--steps", "30", "--out", OUT]),
        "--l0": (SIMULATE, SIMULATE + ["--l0", "5"]),
        "--volume-mode": (SIMULATE, SIMULATE + ["--volume-mode", "expectation"]),
    },
    "enumerate": {
        **_source_pairs(["--l", "2", "--dmax", "8"], refused=REFUSED["enumerate"]),
        "--out": (ENUMERATE, ENUMERATE + ["--out", OUT]),
        "--l": (ENUMERATE, ENUMERATE[:2] + ["--l", "4", "--dmax", "8"]),
        "--dmax": (ENUMERATE, ENUMERATE[:4] + ["--dmax", "10"]),
    },
    "scaling-test": {
        "--out": (SCALING, SCALING + ["--out", OUT]),
        "--format": (SCALING + ["--out", OUT], SCALING + ["--format", "csv", "--out", OUT]),
        "--seed": (SCALING, SCALING + ["--seed", "1"]),
        "--models": (SCALING, ["--models", "triangulation"] + SCALING[2:]),
        "--steps": (SCALING, SCALING[:2] + ["--steps", "30"] + SCALING[4:]),
        "--chains": (SCALING, SCALING[:4] + ["--chains", "24"] + SCALING[6:]),
        "--ecf-samples": (SCALING, SCALING[:6] + ["--ecf-samples", "30"]),
    },
    "tune-critical": {
        **_source_pairs([], refused=REFUSED["tune-critical"]),
        "--out": (["--weights", '{"4":"1"}'], ["--weights", '{"4":"1"}', "--out", OUT]),
    },
}

# the flags and format values each subcommand no longer takes, on top of a
# command line it accepts
FORMATS = [["--format", f] for f in ("json", "csv", "binary")]
REMOVED = {
    "analyze": (QUAD, [["--seed", "1"], ["--format", "binary"]]),
    "preset": (QUAD, [["--seed", "1"], ["--weights", '{"4":"1/12"}'],
                      ["--config", "w.json"], *FORMATS]),
    "simulate": (QUAD, [["--format", "json"]]),
    "enumerate": (ENUMERATE, [["--seed", "1"], *FORMATS]),
    "scaling-test": ([], [["--format", "binary"], ["--weights", '{"4":"1/12"}'],
                          ["--preset", "triangulation"], ["--config", "w.json"],
                          ["--p", "2"], ["--H", "3"], ["--r", "1"], ["--a", "0.7"]]),
    "tune-critical": (["--weights", '{"4":"1"}'], [["--seed", "1"], *FORMATS]),
}


def _actions(command):
    """The actions of the subcommand's parser, but --help."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [a for a in sub.choices[command]._actions if "--help" not in a.option_strings]


def _declared(command):
    return {opt for a in _actions(command) for opt in a.option_strings}


class TestFlags:
    def test_table_covers_every_declared_flag(self):
        assert {c: set(pairs) for c, pairs in READ.items()} == {
            c: _declared(c) for c in READ}
        assert sum(len(_declared(c)) for c in READ) == 55
        formats = {c: a.choices for c in READ for a in _actions(c)
                   if "--format" in a.option_strings}
        assert formats == {"analyze": ("json", "csv"), "simulate": ("csv", "binary"),
                           "scaling-test": ("json", "csv")}

    @pytest.mark.parametrize("command, flag", [
        (c, f) for c, pairs in READ.items() for f in pairs])
    def test_declared_flag_is_read(self, command, flag, tmp_path, capsys):
        # the two runs differ in this flag alone, and so do their stdout or
        # --out file, or for a flag in REFUSED their refusal
        paths = {OUT: tmp_path / "out", CFG_A: tmp_path / "a.json",
                 CFG_B: tmp_path / "b.json"}
        paths[CFG_A].write_text('{"weights": {"4": "1/12"}}')
        paths[CFG_B].write_text('{"weights": {"3": "1/12"}}')
        outcomes = []
        for argv in READ[command][flag]:
            out = paths[OUT]
            out.unlink(missing_ok=True)
            rc = main([command, *(str(paths.get(a, a)) for a in argv)])
            captured = capsys.readouterr()
            outcomes.append((captured.out, out.read_bytes() if out.exists() else None,
                             captured.err))
        if flag in REFUSED.get(command, ()):
            assert rc == 1 and outcomes[0][2] != outcomes[1][2]
        else:
            assert outcomes[0][:2] != outcomes[1][:2]

    @pytest.mark.parametrize("command, extra", [
        (c, extra) for c, (_, extras) in REMOVED.items() for extra in extras])
    def test_removed_flag_exits_2(self, command, extra, capsys):
        base = REMOVED[command][0]
        parse_args([command, *base])
        with pytest.raises(SystemExit) as exc:
            parse_args([command, *base, *extra])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["analyze", "simulate", "enumerate",
                                         "tune-critical"])
    @pytest.mark.parametrize("extra", [
        ["--preset", "quadrangulation", "--weights", '{"4":"1/12"}'],
        ["--weights", '{"4":"1/12"}', "--config", "w.json"],
        ["--config", "w.json", "--preset", "triangulation"],
        ["--weights", '{"4":"1/12"}', "--p", "3"],
        ["--config", "w.json", "--H", "3"],
        ["--r", "1", "--a", "0.7"],
    ])
    def test_source_conflict_exits_2(self, command, extra, capsys):
        # one weight source at most, and family parameters only with
        # --preset
        with pytest.raises(SystemExit) as exc:
            parse_args([command, *extra])
        assert exc.value.code == 2

    def test_preset_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["preset", "--p", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["preset", "--preset", "geometric", "--p", "4"],
        ["preset", "--preset", "quadrangulation", "--p", "3"],
        ["preset", "--preset", "symmetric_critical", "--r", "1"],
        ["scaling-test", "--models", "symmetric_critical", "--steps", "20",
         "--chains", "16", "--ecf-samples", "20"],
    ])
    def test_family_parameter_refused(self, argv, capsys):
        # an unread, a missing or an alias's parameter is an input error,
        # not a quiet default or a traceback
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "PEELKIT_ERR invalid_input" in captured.err
        assert "takes" in captured.err and captured.out == ""
