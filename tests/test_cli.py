"""Exit codes, flag handling, and output shape of the command line."""

import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

from infopay.cli import main
from infopay.errors import InputError
from infopay.examples import EXAMPLE_NAMES
from infopay.instancefile import save_instance
from infopay.model import Dist, Firm, SignalStructure, SkillSpace, Task
from infopay.numeric import check_tol
from infopay.suites import SUITE_NAMES
from infopay.sweep import DEFAULT_GRID_SPEC


def make_scenario(coarse_acc=Fraction(9, 13), fine_acc=Fraction(4, 5)):
    from infopay.discrimination import GapScenario

    space = SkillSpace((0, 1))

    def sym(lam):
        return SignalStructure(
            space, ("s0", "s1"), ((lam, 1 - lam), (1 - lam, lam)), values=(0, 1)
        )

    return GapScenario(
        firm=Firm((Task((0, 1)), Task((-4, 4)))),
        p=Dist(space, (Fraction(1, 2), Fraction(1, 2))),
        q_i=Dist(space, (Fraction(1, 4), Fraction(3, 4))),
        q_j=Dist(space, (Fraction(3, 4), Fraction(1, 4))),
        coarse=sym(coarse_acc),
        fine=sym(fine_acc),
    )


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "showcase.inst"
    save_instance(make_scenario(), str(path))
    return str(path)


def test_example_pass(capsys):
    assert main(["example", "ex1-reversal"]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out
    assert "total change: -1/4" in out


def test_example_override(capsys):
    assert main(["example", "ex3-mlr-fail", "--delta=-1/50"]) == 0
    assert "1/150" in capsys.readouterr().out


def test_example_unknown_name(capsys):
    assert main(["example", "nope"]) == 2
    assert "unknown example" in capsys.readouterr().err


def test_example_wrong_flag_for_example(capsys):
    assert main(["example", "ex1-reversal", "--delta", "1/50"]) == 2
    assert "does not take parameter" in capsys.readouterr().err


def test_mode_flag_both_positions(capsys):
    assert main(["--mode", "float", "example", "ex1-reversal"]) == 0
    assert "mode: float" in capsys.readouterr().out
    assert main(["example", "ex1-reversal", "--mode", "float"]) == 0
    assert "mode: float" in capsys.readouterr().out


def test_sweep_stdout(capsys):
    assert main(["sweep-figure1", "--grid", "1/2:1:1/4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "λ,W_I,W_J,gap,task_I_s0,task_I_s1,task_J_s0,task_J_s1"
    assert len(lines) == 4
    assert lines[1].startswith("1/2,2,1/4,7/4,")


def test_sweep_to_file(tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    assert main(["sweep-figure1", "--grid", "1/2:1:1/4", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    text = out.read_text(encoding="utf-8")
    assert text.startswith("λ,W_I,W_J,gap,")
    assert text.endswith("\n") and "\r" not in text


def test_sweep_bad_grid(capsys):
    assert main(["sweep-figure1", "--grid", "0:1:1/10"]) == 2
    assert "grid" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["1/2:1:1e-400", "1/2:1:1/2000000"])
def test_sweep_grid_over_the_point_cap_fails_before_building(grid, capsys):
    # 5 * 10**399 and 1000001 points: counted, not built
    start = time.perf_counter()
    assert main(["sweep-figure1", "--grid", grid]) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: grid ")


def test_sweep_grid_with_a_huge_exponent_fails_at_once(capsys):
    start = time.perf_counter()
    assert main(["sweep-figure1", "--grid", "1/2:1:1e-100000000"]) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: bad grid ")
    assert "exponent larger than 10000 in size" in err


def test_suite_pass(capsys):
    assert main(["suite", "prop2"]) == 0
    out = capsys.readouterr().out
    assert "prng: numpy:PCG64" in out
    assert out.rstrip().endswith("result: PASS")


def test_suite_unknown(capsys):
    assert main(["suite", "nothere"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_suite_bad_trials(capsys):
    assert main(["suite", "orders", "--trials", "0"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["suite", "prop1", "--seed", "-1"],
        ["suite", "all", "--seed", "-1"],
        ["example", "blackwell-forward", "--seed", "-2"],
    ],
)
def test_negative_seed_exits_2(argv, capsys):
    assert main(argv) == 2
    assert "seed must be an integer of at least 0" in capsys.readouterr().err


def test_check_claims_pass(scenario_file, capsys):
    for claim in ("invariants", "theorem1", "corollary2", "narrowing"):
        assert main(["check", scenario_file, "--claim", claim]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"claim: {claim}\n")
        assert out.rstrip().endswith("result: PASS")


def test_check_nearly_full_violation(scenario_file, capsys):
    code = main(
        ["check", scenario_file, "--claim", "nearly-full", "--eps", "1/4"]
    )
    assert code == 1
    assert capsys.readouterr().out.rstrip().endswith("result: FAIL")


def test_check_nearly_full_needs_eps(scenario_file, capsys):
    assert main(["check", scenario_file, "--claim", "nearly-full"]) == 2
    assert "--eps" in capsys.readouterr().err


def test_check_negative_eps_is_quoted_as_written(scenario_file, capsys):
    code = main(["check", scenario_file, "--claim", "nearly-full", "--eps=-1/2"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: eps must be a nonnegative number, got -1/2\n"
    )


def test_check_eps_rejected_elsewhere(scenario_file, capsys):
    code = main(
        ["check", scenario_file, "--claim", "narrowing", "--eps", "1/4"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--mode", "float", "--tol", "0.5", "sweep-figure1", "--grid", "1/2:1:1/20"],
        ["sweep-figure1", "--tol", "0", "--grid", "1/2:1:1/20"],
    ],
    ids=["root-flag", "subcommand-flag"],
)
def test_sweep_refuses_tol(argv, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --tol does not apply to sweep-figure1\n"
    assert not out.exists()


def test_tol_flag_reports_check_tols_refusal(capsys):
    # the flag's check is numeric.check_tol, whose refusal is the usage error
    with pytest.raises(InputError) as refused:
        check_tol(-0.5)
    with pytest.raises(SystemExit) as exc:
        main(["--tol=-0.5", "example", "ex1-reversal"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert err.endswith(f"infopay: error: argument --tol: {refused.value}\n")


def test_check_unordered_structures(tmp_path, capsys):
    # fine strictly coarser than coarse: no garbling kernel exists
    path = tmp_path / "swapped.inst"
    save_instance(
        make_scenario(coarse_acc=Fraction(4, 5), fine_acc=Fraction(9, 13)),
        str(path),
    )
    assert main(["check", str(path), "--claim", "narrowing"]) == 2
    assert "not more informative" in capsys.readouterr().err


def test_check_wrong_instance_kind(tmp_path, capsys):
    path = tmp_path / "firm.inst"
    save_instance(Firm((Task((0, 1)),)), str(path))
    assert main(["check", str(path), "--claim", "theorem1"]) == 2
    assert "scenario" in capsys.readouterr().err


def test_check_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.inst"
    path.write_text("[firm]\n1 2\n0\n", encoding="utf-8")
    assert main(["check", str(path), "--claim", "invariants"]) == 2


def test_check_missing_file(capsys):
    assert main(["check", "/nonexistent/x.inst", "--claim", "invariants"]) == 2


def test_check_directory_exits_2(tmp_path, capsys):
    assert main(["check", str(tmp_path), "--claim", "invariants"]) == 2
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


def test_sweep_out_directory_exits_2(tmp_path, capsys):
    assert main(["sweep-figure1", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


def test_check_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.inst"
    path.write_bytes(b"[firm]\n0 1\n\xff\xfe\n")
    assert main(["check", str(path), "--claim", "invariants"]) == 2
    assert capsys.readouterr().err == f"error: {path}: not UTF-8 text at byte 11\n"


def test_argparse_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "somefile"])  # missing --claim
    assert exc.value.code == 2
    # "--tol=" hands "-inf" to the type check; apart it reads as an option
    for tol in ("-1", "nan", "inf", "-inf"):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([f"--tol={tol}", "example", "ex1-reversal"])
        assert exc.value.code == 2
        assert "tolerance must be a finite nonnegative number" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_float_mode_check(scenario_file, capsys):
    code = main(
        ["--mode", "float", "check", scenario_file, "--claim", "theorem1"]
    )
    assert code == 0
    assert "result: PASS" in capsys.readouterr().out


def _loaded_modules(*args) -> set[str]:
    """Every module ``python -X importtime ARGS`` imports; the run must succeed."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    cmd = [sys.executable, "-X", "importtime", *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # -X importtime lists every module the interpreter imported
    return {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}


def _package_modules(loaded: set[str]) -> set[str]:
    return {m[len("infopay."):] for m in loaded if m.startswith("infopay.")}


def _run_module(*args, optimize=False):
    """``python [-O] -m infopay ARGS`` in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    cmd = [sys.executable, *(["-O"] if optimize else []), "-m", "infopay", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize(
    "args",
    [
        ("-c", "import infopay, infopay.generators"),
        ("-m", "infopay", "example", "ex1-reversal"),
    ],
    ids=["import", "example"],
)
def test_numpy_is_not_imported(args):
    """numpy is a test-time oracle only: the package never loads it."""
    loaded = _loaded_modules(*args)
    assert "infopay.generators" in loaded
    assert not {m for m in loaded if m.split(".")[0] == "numpy"}


def test_import_loads_only_errors():
    # every other submodule loads when one of its names is first read
    assert _package_modules(_loaded_modules("-c", "import infopay")) == {"errors"}


def test_sweep_loads_only_model_and_sweep():
    loaded = _package_modules(_loaded_modules("-m", "infopay", "sweep-figure1"))
    assert loaded <= {"__main__", "cli", "errors", "numeric", "model", "sweep"}


def test_check_skips_examples_suites_and_generators(scenario_file):
    loaded = _package_modules(
        _loaded_modules("-m", "infopay", "check", scenario_file, "--claim", "theorem1")
    )
    assert "instancefile" in loaded
    assert not loaded & {"examples", "suites", "generators", "sweep"}


@pytest.mark.parametrize(
    "args",
    [
        ("example", "ex1-reversal"),
        ("check", "{scenario}", "--claim", "theorem1"),
        ("sweep-figure1",),
        ("--mode", "float", "sweep-figure1"),
    ],
    ids=["example", "check", "sweep", "float-sweep"],
)
def test_cold_commands_skip_dataclasses_and_inspect(args, scenario_file):
    # the value classes and reports are built without the dataclass
    # machinery, whose import alone (with inspect, ast and dis) cost more
    # than the rest of a cold sweep's package import
    args = [a.format(scenario=scenario_file) for a in args]
    loaded = _loaded_modules("-m", "infopay", *args)
    assert not loaded & {"dataclasses", "inspect"}


def test_sweep_help_names_the_default_grid(monkeypatch, capsys):
    # the help text spells the default out, so building the parser needs
    # no import of infopay.sweep
    monkeypatch.setenv("COLUMNS", "1000")
    with pytest.raises(SystemExit) as exc:
        main(["sweep-figure1", "-h"])
    assert exc.value.code == 0
    assert f"(default {DEFAULT_GRID_SPEC})\n" in capsys.readouterr().out


def test_sweep_without_grid_uses_the_default():
    with mock.patch("infopay.sweep.run_figure1", return_value="") as run:
        assert main(["sweep-figure1"]) == 0
    run.assert_called_once_with(DEFAULT_GRID_SPEC, mode="rational")


@pytest.mark.parametrize(
    "command, line",
    [
        ("example", f"Examples: {', '.join(EXAMPLE_NAMES)}; 'all' runs each with its defaults"),
        ("suite", f"Suites: {', '.join(SUITE_NAMES)}; 'all' runs each"),
    ],
)
def test_help_lists_every_name(command, line, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "1000")  # one line, so no name is wrapped
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    assert exc.value.code == 0
    assert f"\n\n{line}\n\n" in capsys.readouterr().out


@pytest.mark.parametrize("token", ["inf", "nan"])
def test_float_check_rejects_non_finite_surplus(scenario_file, tmp_path, token):
    text = Path(scenario_file).read_text(encoding="utf-8")
    assert "\n-4 4\n" in text
    path = tmp_path / "nonfinite.inst"
    path.write_text(text.replace("\n-4 4\n", f"\n-4 {token}\n"), encoding="utf-8")
    proc = _run_module("--mode", "float", "check", str(path), "--claim", "invariants")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert f"not a number: '{token}'" in proc.stderr


def test_float_check_underflowing_signal_exits_2(tmp_path):
    # s1's perceived frequency 1e-300 * 1e-300 underflows to 0.0 under q_i
    from infopay.discrimination import GapScenario

    space = SkillSpace((0.0, 1.0))
    dying = SignalStructure(space, ("s0", "s1"), ((1.0, 1e-300), (1.0, 0.0)))
    scenario = GapScenario(
        firm=Firm((Task((0.0, 1.0)), Task((-4.0, 4.0)))),
        p=Dist(space, (0.5, 0.5)),
        q_i=Dist(space, (1e-300, 1.0)),
        q_j=Dist(space, (0.5, 0.5)),
        coarse=dying,
        fine=dying,
    )
    path = tmp_path / "underflow.inst"
    save_instance(scenario, str(path))
    proc = _run_module("--mode", "float", "check", str(path), "--claim", "narrowing")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "signal 's1' has zero probability" in proc.stderr


def test_example_all_runs_every_example(capsys):
    assert main(["example", "all"]) == 0
    out = capsys.readouterr().out
    for name in EXAMPLE_NAMES:
        assert f"example: {name}\n" in out
    assert out.rstrip().endswith(f"{len(EXAMPLE_NAMES)}/{len(EXAMPLE_NAMES)} examples passed")


def test_example_all_rejects_overrides(capsys):
    assert main(["example", "all", "--p1", "1/3"]) == 2
    assert "single example" in capsys.readouterr().err


def test_suite_all_runs_every_suite(capsys):
    assert main(["suite", "all", "--trials", "3", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert [line[7:] for line in out.splitlines() if line.startswith("suite: ")] == list(
        SUITE_NAMES
    )
    assert out.count("result: PASS") == len(SUITE_NAMES)
    assert out.rstrip().endswith(f"{len(SUITE_NAMES)}/{len(SUITE_NAMES)} suites passed")


@pytest.mark.parametrize(
    "command, runner, names",
    [("example", "run_example", EXAMPLE_NAMES), ("suite", "run_suite", SUITE_NAMES)],
)
def test_all_exits_1_when_one_fails(command, runner, names, capsys):
    def fake(name, **kwargs):
        return SimpleNamespace(render=lambda: f"ran {name}", ok=name != names[1])

    with mock.patch(f"infopay.{command}s.{runner}", fake):
        assert main([command, "all"]) == 1
    out = capsys.readouterr().out
    assert all(f"ran {name}" in out for name in names)
    assert out.rstrip().endswith(f"{len(names) - 1}/{len(names)} {command}s passed")


NEAR_TIE = """\
[skill_space]
0 1

[distribution p]
1/2 1/2

[signal_structure coarse]
signals: u0
1
1

[signal_structure fine]
signals: r0 r1
1 0
0 1

[firm]
0 1
1 1.0000000001

[scenario]
p: p
q_i: p
q_j: p
coarse: coarse
fine: fine
"""


def test_float_check_theorem1_accepts_near_tie(tmp_path, capsys):
    # the tasks tie at r1 within DEFAULT_TOL: instrumental is a -5e-11
    # tie deficit, inside the default floor
    path = tmp_path / "near_tie.inst"
    path.write_text(NEAR_TIE)
    code = main(["--mode", "float", "check", str(path), "--claim", "theorem1"])
    out = capsys.readouterr().out
    assert "instrumental:          -5" in out
    assert out.rstrip().endswith("result: PASS")
    assert code == 0


# the number lines theorem1 prints for the kink-crossing counterexample;
# the verdict lines follow them in each perception's block
KINK_THEOREM1 = {
    "rational": [
        "perception favored:",
        "  total change:          773/5642",
        "  perception-correcting: -6368/36673",
        "  instrumental:          105/338",
        "  identity gap:          0",
        "perception other:",
        "  total change:          128/2821",
        "  perception-correcting: 128/2821",
        "  instrumental:          0",
        "  identity gap:          0",
    ],
    "float": [
        "perception favored:",
        "  total change:          0.1370081531371854",
        "  perception-correcting: -0.17364273443677902",
        "  instrumental:          0.3106508875739644",
        "  identity gap:          0.0",
        "perception other:",
        "  total change:          0.04537398085785177",
        "  perception-correcting: 0.045373980857851826",
        "  instrumental:          0.0",
        "  identity gap:          -5.551115123125783e-17",
    ],
}


@pytest.fixture
def kink_file(tmp_path):
    from infopay.discrimination import narrowing_counterexamples

    (kink,) = [r for r in narrowing_counterexamples() if r.name == "kink-crossing"]
    path = tmp_path / "kink-crossing.inst"
    save_instance(kink.scenario, str(path))
    return str(path)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_check_theorem1_reports_perception_and_sign(kink_file, capsys, mode):
    code = main(["--mode", mode, "check", kink_file, "--claim", "theorem1"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0] == "claim: theorem1"
    assert lines[-1] == "result: PASS"
    remaining = iter(lines)  # every earlier line, in order
    assert all(line in remaining for line in KINK_THEOREM1[mode])
    favored = lines[lines.index("perception favored:"):lines.index("perception other:")]
    other = lines[lines.index("perception other:"):]
    assert "  perception class:      over-perceived" in favored
    assert "  correction nonpos:     True" in favored
    assert "  perception class:      under-perceived" in other
    assert "  correction nonneg:     True" in other


def test_check_invariants_judges_perception_at_tol(tmp_path, capsys):
    # the favored perception is 1e-8 off the truth: accurate within --tol
    from infopay.discrimination import GapScenario

    s = make_scenario()
    near = Dist(s.p.space, (Fraction(50000001, 10**8), Fraction(49999999, 10**8)))
    path = tmp_path / "near.inst"
    save_instance(GapScenario(s.firm, s.p, near, s.q_j, s.coarse, s.fine), str(path))
    flags = ["--mode", "float", "--tol", "1e-6", "check", str(path), "--claim"]
    assert main([*flags, "invariants"]) == 0
    assert "favored perception class: accurate" in capsys.readouterr().out.splitlines()
    assert main([*flags, "theorem1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    favored = lines[lines.index("perception favored:"):lines.index("perception other:")]
    assert "  perception class:      accurate" in favored


# trial 2 of `infopay suite prop1 --trials 10 --seed 1400116`, cut from the
# suite's first counterexample when slightness was checked pair by pair
PAIRWISE_SLIGHT = """\
[skill_space]
-3 -1

[distribution p]
9/13 4/13

[distribution q_i]
9/17 8/17

[distribution q_j]
3/4 1/4

[signal_structure coarse]
signals: c0 c1
1/3 2/3
1/4 3/4

[signal_structure fine]
signals: s0 s1
values: 0 1
2/3 1/3
1/2 1/2

[firm]
0 3
-2 1
1 2

[scenario]
p: p
q_i: q_i
q_j: q_j
coarse: coarse
fine: fine
"""


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_check_narrowing_reports_failed_slightness(tmp_path, capsys, mode):
    # the gap widens, but because slightness fails, not the claim
    path = tmp_path / "pairwise_slight.inst"
    path.write_text(PAIRWISE_SLIGHT)
    code = main(["--mode", mode, "check", str(path), "--claim", "narrowing"])
    out = capsys.readouterr().out
    assert "slight_gain: False" in out
    assert "gap narrowed:       False" in out
    assert out.rstrip().endswith("result: PASS")
    assert code == 0


@pytest.mark.parametrize(
    "args",
    [
        ("suite", "garbling", "--trials", "20", "--seed", "7"),
        ("example", "ex1-reversal"),
        ("check", "KINK", "--claim", "theorem1"),
    ],
)
def test_optimized_interpreter_gives_same_output(args, kink_file):
    # no invariant may rest on assert, which python -O strips
    args = [kink_file if a == "KINK" else a for a in args]
    plain = _run_module(*args)
    optimized = _run_module(*args, optimize=True)
    assert plain.returncode == 0, plain.stderr
    assert (optimized.returncode, optimized.stdout, optimized.stderr) == (
        plain.returncode, plain.stdout, plain.stderr
    )
