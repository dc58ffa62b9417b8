import ast

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blochstep import (
    StepperConfig,
    WaveField,
    build_grid,
    evolve,
    sample_gaussian,
)
from blochstep.errors import IoFailure, ShapeMismatch
from blochstep.harness import (
    ErrorReport,
    ExperimentConfig,
    compare_solutions,
    config_hash,
    emit_report,
    observed_orders,
    parse_config_file,
    run_convergence_study,
    write_manifest,
)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.25, 8.0), st.floats(0.1, 6.0))
def test_order_computation_exact_on_synthetic(C, p):
    # a halving ladder and one whose ratios are not 2
    for hs in ([0.5 ** i for i in range(5)], [0.02, 0.01, 0.004, 0.003, 0.001]):
        errors = [C * h ** p for h in hs]
        orders = observed_orders(hs, errors)
        assert len(orders) == len(hs) - 1
        for order in orders:
            assert abs(order - p) < 1e-10


def test_compare_solutions_trivial_cases(rng):
    grid = build_grid(1.0 / 8, 16)
    psi = sample_gaussian(grid)
    assert compare_solutions(psi, psi) == (0.0, 0.0)
    c = 0.37
    shifted = WaveField(grid, psi.values + c)
    l2, linf = compare_solutions(shifted, psi)
    assert abs(l2 - c * np.sqrt(2 * np.pi)) < 1e-12
    assert abs(linf - c) < 1e-14
    other = sample_gaussian(build_grid(1.0 / 4, 16))
    with pytest.raises(ShapeMismatch):
        compare_solutions(psi, other)


def test_spatial_study_spectral_decay():
    cfg = ExperimentConfig(scenario="spatial", epsilon=1 / 8, R=16, M=6,
                           Lambda=16, dt=0.005, T=0.05, schemes=("bd",))
    report = run_convergence_study(cfg)[0]
    assert report.label == "dx/eps"
    assert all(a > b for a, b in zip(report.l2, report.l2[1:]))
    assert report.orders[-1] > 6
    assert len(report.wall_clock) == len(report.levels)


def test_temporal_study_runs_both_schemes():
    cfg = ExperimentConfig(scenario="temporal", epsilon=1 / 8, R=16, M=12,
                           Lambda=16, dt_list=(0.02, 0.01, 0.005), T=0.1,
                           schemes=("bd", "ts"), external="harmonic")
    reports = run_convergence_study(cfg)
    assert [r.scheme for r in reports] == ["bd", "ts"]
    assert all(len(r.orders) == 2 for r in reports)


@pytest.mark.parametrize("dt_list,steps,levels", [
    ((0.03, 0.015), [67, 4, 7], [0.025, 0.1 / 7]),
    ((0.02, 0.01, 0.005), [200, 5, 10, 20], [0.02, 0.01, 0.005])])
def test_temporal_levels_are_the_steps_taken(monkeypatch, dt_list, steps,
                                             levels):
    """Each run of a temporal study takes N = _step_count(T, dt) steps, the
    reference's first, and its level is the step it took, T / N, from which
    the orders are formed: dt = 0.03 and 0.015 do not divide T = 0.1 and run
    4 and 7 steps, while a dt list that divides T keeps its own values."""
    from blochstep import harness
    seen = []

    def counted(psi0, cfg, T, N):
        seen.append(N)
        return evolve(psi0, cfg, T, N)
    monkeypatch.setattr(harness, "evolve", counted)
    cfg = ExperimentConfig(scenario="temporal", epsilon=1 / 4, R=8, M=4,
                           Lambda=8, dt_list=dt_list, T=0.1, schemes=("bd",))
    report = run_convergence_study(cfg)[0]
    assert seen == steps
    assert report.levels == levels
    assert report.orders == observed_orders(levels, report.l2)


def test_single_level_study_has_empty_orders(tmp_path):
    cfg = ExperimentConfig(scenario="spatial", epsilon=1 / 8, R=4, M=2,
                           Lambda=8, dt=0.01, T=0.02, schemes=("bd",))
    report = run_convergence_study(cfg)[0]
    assert report.orders == []
    path = emit_report(report, "csv", tmp_path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[3] == ""  # blank order cell


def test_reports_byte_deterministic(tmp_path):
    report = ErrorReport(scheme="bd", label="dt",
                         levels=[0.1, 0.05, 0.025],
                         l2=[1e-2, 2.5e-3, 6.26e-4],
                         linf=[2e-2, 5e-3, 1.2e-3],
                         orders=[2.0, 1.9978],
                         wall_clock=[0.5, 1.0, 2.0],
                         mass_drift=[1e-9, 1e-9, 1e-9])
    for fmt in ("csv", "markdown-table", "svg-lineplot"):
        p1 = emit_report(report, fmt, tmp_path)
        first = p1.read_bytes()
        p2 = emit_report(report, fmt, tmp_path)
        assert p2 == p1
        assert p2.read_bytes() == first
    svg = (tmp_path / "bd_dt.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_manifest_lists_files_and_hash(tmp_path):
    cfg = ExperimentConfig()
    files = [tmp_path / "a.csv", tmp_path / "b.svg"]
    path = write_manifest(tmp_path, cfg, files)
    import json
    manifest = json.loads(path.read_text())
    assert manifest["files"] == ["a.csv", "b.svg"]
    assert manifest["config_hash"] == config_hash(cfg)


def test_cli_manifest_records_flags_and_hash(tmp_path):
    from blochstep.cli import main
    out = tmp_path / "bands"
    assert main(["bands", "--eps", "0.25", "--R", "8", "--M", "2",
                 "--Lambda", "8", "--out", str(out)]) == 0
    import json
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest) == ["config", "config_hash", "files"]
    assert manifest["files"] == ["bands.bin", "bands.csv"]
    assert manifest["config"]["command"] == "bands"
    assert "func" not in manifest["config"]
    assert manifest["config_hash"] == config_hash(manifest["config"])


def test_cli_bands_rejects_m_below_one(tmp_path, capsys):
    from blochstep.cli import main
    assert main(["bands", "--eps", "0.25", "--R", "8", "--M", "0",
                 "--Lambda", "8", "--out", str(tmp_path / "bands")]) == 2
    assert capsys.readouterr().err == \
        "blochstep bands: ValueError: M must be >= 1\n"


_SMALL = ["--eps", "0.25", "--R", "8", "--M", "2", "--Lambda", "8"]


@pytest.mark.parametrize("argv,error", [
    (["bands", "--M", "0"], "ValueError: M must be >= 1"),
    (["evolve", "--eps", "0.3"], "NonIntegerCellCount: "),
    (["compare", "--lattice", "bogus"],
     "ValueError: unknown lattice potential spec 'bogus'"),
    (["wkb", "--external", "linear:nan"], "NonFinite: "),
    (["convergence", "--config", "missing.cfg"], "IoFailure: "),
    (["bands", "--eps", "0"], "NonIntegerCellCount: "),
    (["bands", "--eps", "nan"], "NonIntegerCellCount: "),
    (["convergence", "--dt", "0"], "ValueError: steps must be > 0"),
    (["wkb", "--t-end", "-1"] + _SMALL,
     "ValueError: t_end = -1.0 must be finite and > 0"),
    (["wkb", "--t-end", "inf"] + _SMALL,
     "ValueError: t_end = inf must be finite and > 0"),
    (["evolve", "--T", "nan"] + _SMALL,
     "ValueError: T = nan must be finite and > 0"),
    (["convergence", "--T", "-1"], "ValueError: T = -1.0 must be finite and > 0"),
    (["compare", "--T", "nan"] + _SMALL,
     "ValueError: T = nan must be finite and > 0"),
    (["convergence", "--eps", "0.25", "--Lambda", "8", "--R", "2"],
     "ValueError: R = 2 gives no level of a spatial study"),
    (["convergence", "--eps", "0.25", "--Lambda", "8", "--R", "8", "--T",
      "1e308"], "ValueError: T / dt = inf steps is not a"),
    (["evolve", "--T", "1e308", "--steps", "1"] + _SMALL,
     "ValueError: dt = 1e+308 gives a phase of "),
    (["compare", "--T", "1e308", "--bd-steps", "1"] + _SMALL,
     "ValueError: dt = 1e+308 gives a phase of "),
    (["evolve", "--T", "1e308"] + _SMALL,
     "ValueError: dt = 1e+306 gives a phase of "),
    (["compare", "--T", "1e308"] + _SMALL,
     "ValueError: dt = 1e+306 gives a phase of "),
    (["evolve", "--external", "linear:1e308", "--T", "0.01"] + _SMALL,
     "NonFinite: linear external potential strength 1e+308 overflows"),
    (["evolve", "--external", "linear:1e307", "--T", "0.01"] + _SMALL,
     "ValueError: dt = 0.0001 gives a phase of "),
], ids=["bands", "evolve", "compare", "wkb", "convergence", "bands-eps-0",
        "bands-eps-nan", "convergence-dt-0", "wkb-t-end-negative",
        "wkb-t-end-inf", "evolve-T-nan", "convergence-T-negative",
        "compare-T-nan", "convergence-R-2", "convergence-T-overflow",
        "evolve-T-overflow", "compare-T-overflow",
        "evolve-T-overflow-default-steps", "compare-T-overflow-default-steps",
        "evolve-linear-overflow", "evolve-linear-1e307-lost-phase"])
@pytest.mark.filterwarnings("error")
def test_cli_rejected_input_is_one_line_and_status_2(tmp_path, capsys,
                                                     monkeypatch, argv, error):
    """Each subcommand ends rejected input with one line on stderr, naming
    the subcommand and the error, and status 2, with no traceback and no
    warning, and leaves no --out directory behind."""
    from blochstep.cli import main
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"blochstep {argv[0]}: {error}")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


def test_cli_refusal_removes_the_out_parents_it_made(tmp_path, capsys,
                                                    monkeypatch):
    """A refused run makes no directory for --out, nor any of its missing
    parents, and keeps a parent that was there before it."""
    from blochstep.cli import main
    monkeypatch.chdir(tmp_path)
    (tmp_path / "kept").mkdir()
    for out in ("a/b/c", "kept/d/e"):
        assert main(["bands", "--M", "0", "--out", out]) == 2
        assert capsys.readouterr().err == \
            "blochstep bands: ValueError: M must be >= 1\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["kept"]


@pytest.mark.parametrize("argv", [
    ["evolve", "--steps", "0"],
    ["compare", "--bd-steps", "0"],
    ["compare", "--ts-steps", "0"],
    ["wkb", "--compare", "--steps", "0"],
    ["wkb", "--nx", "0"],
    ["wkb", "--nx", "-2"],
    ["evolve", "--steps", "1.5"],
    ["evolve", "--snapshot-every", "-1"],
], ids=lambda argv: " ".join(argv))
def test_cli_rejects_counts_below_one_through_argparse(tmp_path, capsys, argv):
    """A step or point count below 1, or a snapshot interval below 0, is
    refused while the flags are parsed, with argparse's usage line and
    status 2, before anything divides by it."""
    from blochstep.cli import main
    with pytest.raises(SystemExit) as info:
        main(argv + ["--out", str(tmp_path / "out")])
    assert info.value.code == 2
    err = capsys.readouterr().err
    low = 0 if "--snapshot-every" in argv else 1
    assert f"is not an integer >= {low}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_evolve_names_final_field_after_end_time(tmp_path):
    from blochstep.cli import main
    out = tmp_path / "evolve"
    assert main(["evolve", "--scheme", "ts", "--eps", "0.125", "--R", "16",
                 "--steps", "10", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("psi_t*")) == ["psi_t1.bin",
                                                          "psi_t1.csv"]


_COMPARE = ["compare", "--T", "0.02", "--bd-steps", "2", "--ts-steps", "2"]
_WKB = ["wkb", "--nx", "32", "--t-end", "0.02"]


@pytest.mark.parametrize("argv,csv", [
    (["bands"], "bands.csv"),
    (_COMPARE, "compare.csv"),
    (_WKB, "wkb_phase.csv"),
    (_WKB + ["--compare", "--steps", "10"], "wkb_compare.csv"),
    (["bands"], None),
    (["evolve", "--steps", "2"], None),
    (_COMPARE, None),
    (_WKB, None),
    (["convergence", "--T", "0.02"], None),
], ids=["bands", "compare", "wkb", "wkb-compare", "bands-out-is-file",
        "evolve-out-is-file", "compare-out-is-file", "wkb-out-is-file",
        "convergence-out-is-file"])
def test_cli_csv_write_failure_is_io_failure(tmp_path, capsys, argv, csv):
    # a directory where the CSV goes, or (csv None) an --out that is a file;
    # main reports the IoFailure in one line and returns 2
    from blochstep.cli import main
    if csv is None:
        out = tmp_path / "out"
        out.write_text("")
    else:
        out = tmp_path
        (tmp_path / csv).mkdir(parents=True)
    assert main(argv + _SMALL + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"blochstep {argv[0]}: IoFailure: ")


def test_manifest_write_failure_is_io_failure(tmp_path):
    (tmp_path / "manifest.json").mkdir()
    with pytest.raises(IoFailure):
        write_manifest(tmp_path, {"command": "bands"}, [])
    # an output directory that is an existing file
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    with pytest.raises(IoFailure):
        write_manifest(blocker, {"command": "bands"}, [])
    report = ErrorReport(scheme="bd", label="dt", levels=[0.1], l2=[1e-2],
                         linf=[2e-2], orders=[], wall_clock=[0.5],
                         mass_drift=[0.0])
    with pytest.raises(IoFailure):
        emit_report(report, "csv", blocker)


def test_config_file_roundtrip(tmp_path):
    text = """
# temporal study at coarse scale
scenario = temporal
epsilon = 0.125
R = 16
M = 6
lattice = mathieu
external = harmonic
schemes = bd,ts
dt_list = 0.02,0.01,0.005
T = 0.1
"""
    path = tmp_path / "study.cfg"
    path.write_text(text)
    cfg = parse_config_file(path)
    assert cfg.scenario == "temporal"
    assert cfg.epsilon == 0.125
    assert cfg.schemes == ("bd", "ts")
    assert cfg.dt_list == (0.02, 0.01, 0.005)


def test_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("scenario = spatial\nwavelength = 3\n")
    with pytest.raises(IoFailure, match=r"bad\.cfg:2: unknown key 'wavelength'"):
        parse_config_file(path)


@pytest.mark.parametrize("text,message", [
    ("scenario = spatial\n\nR 16\n", r"bad\.cfg:3: expected key=value"),
    ("# study\nR = sixteen\n", r"bad\.cfg:2: bad value for 'R'"),
    ("dt_list = 0.02, x\n", r"bad\.cfg:1: bad value for 'dt_list'"),
], ids=["no-equals", "int", "float-list"])
def test_config_file_malformed_line_is_io_failure(tmp_path, text, message):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(IoFailure, match=message):
        parse_config_file(path)


@pytest.mark.parametrize("contents", [None, b"scenario = spatial\nT = 0.1\xff\n"],
                         ids=["missing", "not-utf8"])
def test_config_file_read_failure_is_io_failure(tmp_path, contents):
    path = tmp_path / "study.cfg"
    if contents is not None:
        path.write_bytes(contents)
    with pytest.raises(IoFailure):
        parse_config_file(path)


def test_config_rejects_nondecreasing_dt_list():
    with pytest.raises(ValueError, match="decreasing"):
        ExperimentConfig(scenario="temporal", dt_list=(0.01, 0.02))


@pytest.mark.parametrize("steps", [
    {"dt": 0.0}, {"dt": -0.01}, {"dt": float("nan")},
    {"scenario": "temporal", "dt_list": (0.1, -1.0)},
    {"scenario": "temporal", "dt_list": (0.1, 0.0)},
    {"dt": float("inf")},
])
def test_config_rejects_non_positive_steps(steps):
    # dt = 0 used to end in ZeroDivisionError, and a dt list of 0.1, -1 in
    # a silent one-step study
    with pytest.raises(ValueError, match="steps must be > 0"):
        ExperimentConfig(**steps)


@pytest.mark.parametrize("kwargs, message", [
    ({"R": 3}, "R = 3 gives no level"),
    ({"R": -4}, "R = -4 gives no level"),
    ({"T": 1e308}, r"T / dt = inf steps"),
    ({"T": 1e300}, r"T / dt = 1e\+303 steps"),
    ({"scenario": "temporal", "dt_list": (0.1, 1e-300)},
     r"T / dt = 1e\+300 steps"),
])
def test_config_refuses_a_study_it_cannot_run(kwargs, message):
    # R < 4 used to end in an IndexError on the empty level list, and a T/dt
    # that overflows in an OverflowError from the reference's step count
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**kwargs)
    ExperimentConfig(R=4, T=1e10)  # one level, 1e13 reference steps


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_times_must_be_finite_and_positive(mathieu_table, bad):
    # a NaN dt passed "dt <= 0", and a NaN or infinite T ran into NonFinite
    with pytest.raises(ValueError, match="T = .* must be finite and > 0"):
        ExperimentConfig(T=bad)
    with pytest.raises(ValueError, match="dt = .* must be finite and > 0"):
        StepperConfig("bd", "strang", bad, bands=mathieu_table)
    cfg = StepperConfig("bd", "strang", 0.01, bands=mathieu_table)
    with pytest.raises(ValueError, match="finite T > 0"):
        evolve(sample_gaussian(mathieu_table.grid), cfg, bad, 2)


def test_config_rejects_unknown_scheme(tmp_path):
    # an unknown name used to run as TS and be reported under its own name
    with pytest.raises(ValueError, match="unknown scheme"):
        ExperimentConfig(schemes=("bd", "tss"))
    path = tmp_path / "study.cfg"
    path.write_text("schemes = bd, tss\n")
    with pytest.raises(ValueError, match="unknown scheme"):
        parse_config_file(path)


def test_cli_convergence_flags_parse_like_config_file(tmp_path, monkeypatch):
    from blochstep import cli
    seen = []
    monkeypatch.setattr(cli.harness, "run_convergence_study",
                        lambda config: seen.append(config) or [])
    argv = ["convergence", "--scenario", "temporal", "--schemes", "bd, ts",
            "--dt-list", "0.02, 0.01,", "--out", str(tmp_path / "flags")]
    assert cli.main(argv) == 0
    path = tmp_path / "study.cfg"
    path.write_text("scenario = temporal\nschemes = bd, ts\n"
                    "dt_list = 0.02, 0.01,\n")
    assert cli.main(["convergence", "--config", str(path),
                     "--out", str(tmp_path / "file")]) == 0
    assert seen[0].schemes == seen[1].schemes == ("bd", "ts")
    assert seen[0].dt_list == seen[1].dt_list == (0.02, 0.01)


def test_cli_ts_evolve_solves_no_bands(tmp_path, monkeypatch):
    from blochstep import cli
    calls = []
    solve = cli.solve_bands
    monkeypatch.setattr(cli, "solve_bands",
                        lambda *a: calls.append(a) or solve(*a))
    for scheme, n_solves in (("ts", 0), ("bd", 1)):
        calls.clear()
        assert cli.main(["evolve", "--scheme", scheme, "--steps", "2"]
                        + _SMALL + ["--out", str(tmp_path / scheme)]) == 0
        assert len(calls) == n_solves


def _reads_of_args(node) -> set:
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name) and n.value.id == "args"}


def test_every_cli_flag_is_read():
    # each option of a subcommand must be read as args.<dest> by its cmd_*
    # function or by a cli helper it hands args to; _settings, which records
    # every flag in the manifest, does not count
    import argparse
    import inspect

    from blochstep import cli
    funcs = {n.name: n for n in ast.parse(inspect.getsource(cli)).body
             if isinstance(n, ast.FunctionDef)}

    def reads(name, seen):
        seen.add(name)
        out = _reads_of_args(funcs[name])
        for call in ast.walk(funcs[name]):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id in funcs and call.func.id not in seen
                    and call.func.id != "_settings"
                    and any(isinstance(a, ast.Name) and a.id == "args"
                            for a in call.args)):
                out |= reads(call.func.id, seen)
        return out

    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    unread = []
    for command, sub in subparsers.choices.items():
        read = reads(sub.get_default("func").__name__, set())
        unread += [f"{command} {a.option_strings[0]}" for a in sub._actions
                   if a.option_strings and a.dest != "help"
                   and a.dest not in read]
    assert unread == []


# flag values for the sweep below, (accepted, refused) per flag: tiny grids
# (1/eps <= 8, R <= 16, Lambda <= 64, nx <= 64) and short accepted runs; a
# huge value only where it is refused, as an accepted wkb --t-end 1e10
# would march about 5e11 steps
_TIMES = (["0.01", "0.02"], ["1e308", "0", "-1", "nan", "inf"])
_EXTERNALS = (["none", "harmonic", "step", "linear:1"], ["linear:nan", "bogus"])
_PROBLEM = {"--eps": (["0.25", "0.125"], ["0.3", "0", "-0.25", "nan"]),
            "--R": (["4", "8", "16"], ["2", "6", "-8"]),
            "--M": (["1", "2", "40"], ["0", "-1"]),
            "--Lambda": (["2", "8", "64", "-3"], []),
            "--lattice": (["mathieu", "kronig_penney"],
                          ["bogus", "file:missing.txt"])}
_SWEEP = {
    "bands": {},
    "evolve": {"--external": _EXTERNALS, "--scheme": (["bd", "ts"], []),
               "--order": (["lie", "strang"], []), "--T": _TIMES,
               "--steps": (["1", "3"], []),
               "--snapshot-every": (["0", "1"], [])},
    "compare": {"--external": _EXTERNALS, "--T": _TIMES,
                "--bd-steps": (["1", "2"], []),
                "--ts-steps": (["1", "4"], [])},
    "wkb": {"--external": _EXTERNALS, "--band": (["1", "2"], ["0", "9"]),
            "--phi0": (["zero", "neg-cos"], []), "--t-end": _TIMES,
            "--nx": (["8", "64"], []), "--compare": ([False, True], []),
            "--steps": (["10", "20"], ["7"])},
    "convergence": {"--external": _EXTERNALS,
                    "--scenario": (["spatial", "temporal"], []),
                    "--schemes": (["bd", "ts", "bd,ts"], ["tss"]),
                    "--dt": (["0.01", "0.005"], ["0", "nan", "-1"]),
                    "--dt-list": (["", "0.02,0.01"],
                                  ["0.01,0.02", "0.02,-1"]),
                    "--T": (["0.02"], ["1e308", "-1", "nan", "0"])},
}
# cases the sweep must hold, with the status each must end in
_PINNED = {
    # a bare OverflowError from the step count, and its --out left behind
    ("wkb", "--t-end", "1e308", *_SMALL): 2,
    # the harness sized its lattice by a rule of its own: TruncationTooSmall
    ("convergence", "--M", "40", "--Lambda", "8", "--R", "8", "--eps",
     "0.25", "--T", "0.02"): 0,
}


@st.composite
def _cli_argv(draw):
    """A subcommand with every flag of _PROBLEM and _SWEEP drawn, each from
    its accepted values but for at most one, drawn from its refused ones."""
    command = draw(st.sampled_from(sorted(_SWEEP)))
    flags = {**_PROBLEM, **_SWEEP[command]}
    broken = draw(st.sampled_from(
        [None] + [f for f, (_, refused) in flags.items() if refused]))
    argv = [command]
    for flag, (accepted, refused) in flags.items():
        value = draw(st.sampled_from(refused if flag == broken else accepted))
        if value is True:
            argv.append(flag)
        elif value is not False:
            argv += [flag, value]
    return argv


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_cli_argv())
@example(list(_PINNED)[0])
@example(list(_PINNED)[1])
def test_cli_sweep_exits_0_or_2_with_one_line(argv):
    """Any mix of valid and refused flag values ends in status 0, or in
    status 2 with exactly one stderr line, no traceback, no warning and no
    --out directory."""
    import contextlib
    import io
    import tempfile
    import warnings
    from pathlib import Path

    from blochstep.cli import main
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        out = Path(tmp) / "out"
        status = main(list(argv) + ["--out", str(out)])
        made = out.exists()
    assert [str(w.message) for w in caught] == []
    assert status == _PINNED.get(tuple(argv), status)
    assert status in (0, 2)
    if status == 2:
        assert err.getvalue().startswith(f"blochstep {argv[0]}: ")
        assert err.getvalue().count("\n") == 1
        assert not made
