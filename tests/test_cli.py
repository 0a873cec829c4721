"""CLI: exit-code contract, config precedence, byte-identical outputs."""

import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cylstable
from cylstable import cli, picard
from cylstable.cli import main
from cylstable.reporting import format_value


def read_bytes(path):
    return path.read_bytes()


def test_constants_subcommand(tmp_path, capsys):
    code = main(["constants", "--alpha", "1.5", "--p", "1.2", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "c_alpha=2.50662827463" in out
    assert (tmp_path / "constants.summary").exists()
    text = (tmp_path / "constants.csv").read_text()
    assert text.startswith("# cylstable version=")
    assert "c2," in text


def test_noise_dimension_extension_keeps_the_narrower_lines(tmp_path):
    # the j <= 3 lines of an m=7 file are the m=3 file's lines, byte for byte
    def data_lines(m):
        out = tmp_path / f"m{m}"
        assert main(["noise", "--alpha", "1.5", "--m", str(m), "--T", "1", "--M", "16",
                     "--seed", "5", "--out", str(out)]) == 0
        lines = (out / "noise.csv").read_bytes().splitlines()
        return lines[lines.index(b"t_start,t_end,j,increment") + 1:]

    narrow, wide = data_lines(3), data_lines(7)
    assert len(narrow) == 16 * 3 and len(wide) == 16 * 7
    assert [line for line in wide if int(line.split(b",")[2]) <= 3] == narrow


def test_seed_required_for_stochastic_commands(tmp_path, capsys):
    code = main(["noise", "--alpha", "1.5", "--out", str(tmp_path)])
    assert code == 2
    assert "--seed is required" in capsys.readouterr().err


def test_noise_and_sample_outputs(tmp_path):
    assert main(["noise", "--alpha", "1.5", "--m", "2", "--T", "1", "--M", "4",
                 "--seed", "3", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "noise.csv").read_text().splitlines()
    assert any(line == "t_start,t_end,j,increment" for line in lines)
    assert main(["sample", "--kind", "isotropic", "--alpha", "1.5", "--n", "3",
                 "--N", "100", "--seed", "4", "--out", str(tmp_path)]) == 0
    header = [l for l in (tmp_path / "samples.csv").read_text().splitlines()
              if not l.startswith("#")][0]
    assert header == "x_1,x_2,x_3"


def test_solve_subcommand_residual(tmp_path, capsys):
    code = main(["solve", "--preset", "heat", "--T", "0.05", "--M", "200",
                 "--seed", "7", "--out", str(tmp_path)])
    assert code == 0
    summary = (tmp_path / "mild_path.summary").read_text()
    residual = float([l for l in summary.splitlines() if l.startswith("residual=")][0]
                     .split("=")[1])
    assert residual < 1e-10
    trailer = (tmp_path / "mild_path.csv").read_text().splitlines()[-1]
    assert trailer.startswith("# iteration_count=")


def test_glue_subcommand(tmp_path):
    code = main(["glue", "--preset", "heat", "--T-total", "0.15", "--M", "120",
                 "--seed", "7", "--out", str(tmp_path)])
    assert code == 0
    summary = (tmp_path / "glued_path.summary").read_text()
    assert "pieces=3" in summary or "pieces=4" in summary


# tiny passing arguments of every command whose seed has no default
TINY_STOCHASTIC = {
    "sample": ["--kind", "isotropic", "--alpha", "1.5", "--n", "2", "--N", "200"],
    "noise": ["--alpha", "1.5", "--m", "2", "--M", "8"],
    "integrate": ["--alpha", "1.5", "--gamma", "1,0.5", "--M", "8"],
    "solve": ["--n", "3", "--T", "0.01", "--M", "20"],
    "glue": ["--n", "3", "--T-total", "0.15", "--M", "24"],
    "tail": ["--alpha", "1.5", "--gamma", "1", "--N", "40000", "--r-min", "10",
             "--r-max", "40", "--r-count", "5"],
    "moment": ["--alpha", "1.5", "--N", "500", "--M", "4"],
    "picard": ["--n", "3", "--M", "20", "--replicas", "3", "--iters", "3"],
    "uniqueness": ["--n", "3", "--M", "20", "--replicas", "2"],
    "gronwall": ["--case", "random", "--count", "3", "--M", "200"],
    "gof": ["--alpha", "1.5", "--n", "2", "--N", "500", "--count", "3"],
}


def test_tiny_arguments_cover_every_stochastic_command():
    stochastic = {name for name, (_, spec, *_) in cli._COMMANDS.items()
                  if "seed" in spec and spec["seed"][1] is None}
    assert stochastic == set(TINY_STOCHASTIC)


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


@pytest.mark.parametrize("command", sorted(TINY_STOCHASTIC))
def test_stochastic_command_byte_identical_reruns(tmp_path, command):
    argv = [command, *TINY_STOCHASTIC[command], "--seed", "7", "--out", str(tmp_path)]
    assert main(argv) == 0
    first = _snapshot(tmp_path)
    assert first
    assert main(argv) == 0
    assert _snapshot(tmp_path) == first


@pytest.mark.parametrize("argv", [
    ["noise", "--alpha", "1.5", "--M", "abc", "--seed", "1"],
    ["tail", "--alpha", "1.5", "--gamma", "1,x", "--seed", "1"],
    ["noise", "--alpha", "1.5", "--seed", "1.5"],
    ["tail", "--alpha", "1.5", "--t", "0", "--seed", "1"],
    ["constants", "--alpha", "1.5", "--p", "1.2", "--c-f", "nan"],
    ["moment", "--alpha", "1.5", "--p-list", "1,x", "--seed", "1"],
    ["moment", "--alpha", "1.5", "--N", "1e4", "--seed", "1"],
    ["tail", "--alpha", "1.5", "--integrand", "const", "--T", "0", "--seed", "1"],
    ["tail", "--alpha", "1.5", "--r-min", "-1", "--seed", "1"],
    ["tail", "--alpha", "1.5", "--r-min", "50", "--r-max", "10", "--seed", "1"],
    ["check-model", "--deltas", "0.5,0.5"],
    ["tail", "--alpha", "1.5", "--r-count", "1000000000", "--seed", "1"],
])
def test_malformed_values_are_usage_errors(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "usage error:" in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("line", [
    "kappa_rule=power:1", "f_rule=const", "kappa_rule=power:1:2:3", "lambda_rule=dirichlet:5",
    "f_rule=zero:1", "kappa_rule=const:nan", "lambda_rule=const:inf", "f_rule=power:1:nan",
    "kappa_rule=power:1:abc", "lambda_rule=power:1e300:200",
])
@pytest.mark.parametrize("command", [
    ["check-model"], ["solve", "--T", "0.01", "--M", "20", "--seed", "1"],
], ids=["check-model", "solve"])
def test_malformed_model_rules_are_usage_errors(tmp_path, capsys, command, line):
    model_file, out = tmp_path / "model.cfg", tmp_path / "out"
    model_file.write_text(f"n=4\n{line}\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*command, "--model-config", str(model_file), "--out", str(out)]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "usage error:" in err and line.split("=")[0] in err
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("seed", ["-1", "4294967296"])
@pytest.mark.parametrize("command", sorted(TINY_STOCHASTIC))
def test_seeds_outside_32_bits_are_usage_errors(tmp_path, capsys, command, seed):
    out = tmp_path / "out"
    assert main([command, *TINY_STOCHASTIC[command], "--seed", seed, "--out", str(out)]) == 2
    assert "usage error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    ("picard", ["--replicas", "0"]),
    ("picard", ["--replicas", "1"]),
    ("picard", ["--iters", "0"]),
    ("uniqueness", ["--replicas", "0"]),
    ("integrate", ["--refinement-levels", "0"]),
    ("integrate", ["--refinement-levels", "3", "--replicas", "0"]),
    ("moment", ["--N", "0"]),
    ("gof", ["--N", "0"]),
    ("gronwall", ["--count", "0"]),
    ("gronwall", ["--count", "-3"]),
])
def test_counts_below_their_minimum_are_usage_errors(tmp_path, capsys, command, extra):
    out = tmp_path / "out"
    argv = [command, *TINY_STOCHASTIC[command], *extra, "--seed", "1", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any numpy reduction warns
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert "usage error:" in err
    assert "Traceback" not in err
    assert not any(out.rglob("*"))


def test_tail_inconclusive_exit_code(tmp_path):
    code = main(["tail", "--alpha", "1.5", "--gamma", "1", "--N", "2000",
                 "--r-min", "100", "--r-max", "500", "--r-count", "4",
                 "--seed", "7", "--out", str(tmp_path)])
    assert code == 3


# the files that the cases below name by these placeholders
CASE_FILES = {
    "MODEL": "n=3\n", "OTHER_MODEL": "n=3\nkappa_rule=const:0.5\n",
    "UVW": "t,u,v,w\n" + "".join(f"{t},{t * t / 4},0,1\n" for t in np.linspace(0, 1, 101)),
    "OTHER_UVW": "t,u,v,w\n" + "".join(f"{t},{t * t / 8},0,1\n" for t in np.linspace(0, 1, 101)),
}
# one run of every command in each of its modes, at tiny sizes
MODE_CASES = {
    "constants": ["constants", "--alpha", "1.5", "--p", "1.2"],
    **{f"sample {kind}": ["sample", "--kind", kind, "--alpha", "1.5", "--N", "50", "--seed", "3"]
       for kind in ("sas", "positive")},
    "sample isotropic": ["sample", "--kind", "isotropic", "--alpha", "1.5", "--n", "2",
                         "--N", "50", "--seed", "3"],
    "noise": ["noise", "--alpha", "1.5", "--m", "2", "--M", "8", "--seed", "3"],
    "integrate": ["integrate", "--alpha", "1.5", "--gamma", "1,0.5", "--M", "8", "--seed", "3"],
    # a saturation guard: with the const profile no replica exceeds epsilon at these sizes, so
    # every option of the mode would look unread
    "integrate refinement": ["integrate", "--alpha", "1.5", "--profile", "linear", "--M", "4",
                             "--refinement-levels", "3", "--replicas", "50", "--seed", "3"],
    "tail": ["tail", "--alpha", "1.5", "--N", "2000", "--r-min", "1", "--r-max", "4",
             "--r-count", "4", "--seed", "3"],
    "tail const": ["tail", "--alpha", "1.5", "--integrand", "const", "--N", "2000",
                   "--r-min", "1", "--r-max", "4", "--r-count", "4", "--seed", "3"],
    "moment": ["moment", "--alpha", "1.5", "--N", "500", "--M", "4", "--seed", "3"],
    "gronwall near-equality": ["gronwall", "--case", "near-equality"],
    "gronwall random": ["gronwall", "--case", "random", "--count", "3", "--M", "200",
                        "--seed", "3"],
    "gronwall input": ["gronwall", "--input", "UVW", "--p", "0.5"],
    "gof": ["gof", "--alpha", "1.5", "--n", "2", "--N", "500", "--count", "3", "--seed", "3"],
    **{f"{command} {model}": [command, *args, *model_args] for command, args in (
        ("solve", ["--T", "0.01", "--M", "20", "--seed", "3"]),
        ("glue", ["--T-total", "0.15", "--M", "24", "--seed", "3"]),
        ("picard", ["--M", "20", "--replicas", "3", "--iters", "3", "--seed", "3"]),
        ("uniqueness", ["--M", "20", "--replicas", "2", "--seed", "3"]),
        ("check-model", []),
    ) for model, model_args in (("preset", ["--n", "3"]),
                                ("model-config", ["--model-config", "MODEL"]))},
}
# other values of each option: a case takes the first that differs from its own
OTHER_VALUES = {
    "alpha": ("1.3",), "p": ("1.1",), "c_f": ("2",), "c_g": ("2",), "c_convention": ("2",),
    "n": ("4",), "m": ("2", "3"), "kind": ("positive", "sas"), "scale": ("2",), "N": ("60",),
    "seed": ("4",), "T": ("0.02",), "M": ("12",), "gamma": ("1,0.25",),
    "profile": ("linear", "const"), "refinement_levels": ("3", "4"), "replicas": ("4",),
    "epsilon": ("0.05",), "t": ("2",), "r_min": ("1.5",), "r_max": ("5",), "r_count": ("5",),
    "integrand": ("const", "bogus"), "p_list": ("1,1.1",),
    "iters": ("2",), "count": ("2",), "case": ("random", "near-equality"),
    "input": ("OTHER_UVW",), "deltas": ("0.5",), "preset": ("bogus",),
    "model_config": ("OTHER_MODEL",), "x0": ("1,0,0",), "T_total": ("0.2",),
}
# the header lines that _model_from writes from a model file, in place of the flags
MODEL_DERIVED = {"model_sha256", "n"}


def _without(argv, flag):
    if flag not in argv:
        return list(argv)
    i = argv.index(flag)
    return argv[:i] + argv[i + 2:]


def _split_header(path):
    """The leading ``# `` lines of an artifact, and the lines after them."""
    lines = path.read_text().splitlines()
    size = next((i for i, line in enumerate(lines) if not line.startswith("# ")), len(lines))
    return lines[:size], lines[size:]


def _run_content(argv, out, capsys):
    """Exit code, stderr, and every byte the run writes but its header and param. lines."""
    code = main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    stdout = [line.replace(str(out), "OUT") for line in captured.out.splitlines()
              if not line.startswith("runtime ")]
    files = {path.name: [line for line in _split_header(path)[1] if not line.startswith("param.")]
             for path in (sorted(out.iterdir()) if out.exists() else ())}
    return code, captured.err, (stdout, files)


def test_mode_cases_cover_every_command():
    assert {argv[0] for argv in MODE_CASES.values()} == set(cli._COMMANDS)


@pytest.mark.parametrize("case", sorted(MODE_CASES))
def test_every_option_is_read_or_refused(tmp_path, capsys, case):
    # changing any one option, from a flag or from --config, changes a byte that is not a
    # header byte, or the exit code, or is refused before anything is written
    for name, text in CASE_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / arg) if arg in CASE_FILES else arg for arg in MODE_CASES[case]]
    spec = cli._COMMANDS[argv[0]][1]
    base_code, base_err, base = _run_content(argv, tmp_path / "base", capsys)
    assert base_code != 2, base_err
    refused, unread = set(), set()
    for i, key in enumerate(key for key in spec if key != "out"):
        flag = f"--{key.replace('_', '-')}"
        own = argv[argv.index(flag) + 1] if flag in argv else format_value(spec[key][1])
        value = next(value for value in OTHER_VALUES[key] if value != own)
        value = str(tmp_path / value) if value in CASE_FILES else value
        config = tmp_path / f"{i}.cfg"
        config.write_text(f"{key}={value}\n")
        code, err, content = _run_content([*_without(argv, flag), flag, value],
                                          tmp_path / f"{i}flag", capsys)
        from_config = _run_content([*_without(argv, flag), "--config", str(config)],
                                   tmp_path / f"{i}config", capsys)
        assert (from_config[0], from_config[2]) == (code, content), f"{case}: {key} in --config"
        if code == 2:
            assert "usage error:" in err
            assert not any((tmp_path / f"{i}{route}").exists() for route in ("flag", "config"))
            refused.add(key)
            if f"{flag} is not read" in err:
                unread.add(key)
        else:
            assert (code, content) != (base_code, base), f"{case}: {flag} {value} changes nothing"
    # the headers and param. lines hold no option that the mode refuses as unread, and an
    # option that the headers leave out is refused (by its own name, or for the mode it asks for)
    artifacts = [_split_header(path) for path in (tmp_path / "base").iterdir()]
    keys = {line[2:].partition("=")[0] for header, _ in artifacts
            for line in header} - {"cylstable version"}
    params = {line[6:].partition("=")[0] for _, body in artifacts
              for line in body if line.startswith("param.")}
    assert keys.isdisjoint(unread - MODEL_DERIVED) and set(spec) - keys <= refused
    assert params.isdisjoint(unread - MODEL_DERIVED)


def test_config_file_and_flag_precedence(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("alpha=1.5\np=1.2\nc_f=2.0\n")
    code = main(["constants", "--config", str(config), "--p", "1.0",
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "p=1" in out.splitlines()[1] or any(l == "p=1" for l in out.splitlines())
    assert any(l == "c_F=2" for l in out.splitlines())


def test_unknown_config_key_rejected(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("alpha=1.5\nwibble=3\n")
    code = main(["constants", "--config", str(config), "--p", "1.0",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["directory", "missing"])
@pytest.mark.parametrize("argv", [
    ["solve", "--T", "0.01", "--seed", "1", "--config"],
    ["solve", "--T", "0.01", "--seed", "1", "--model-config"],
    ["gronwall", "--input"],
], ids=lambda argv: argv[-1])
def test_unreadable_input_file_is_a_usage_error(tmp_path, capsys, argv, target):
    # exit 1 is a failed verdict: a file that cannot be read is a usage error naming its
    # option, raised before any artifact is written
    path = tmp_path if target == "directory" else tmp_path / "missing.cfg"
    out = tmp_path / "out"
    assert main([*argv, str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {argv[-1]} {path}: ") and "Traceback" not in err
    assert not out.exists()


def test_gronwall_cases(tmp_path):
    assert main(["gronwall", "--case", "near-equality", "--out", str(tmp_path)]) == 0
    assert main(["gronwall", "--case", "random", "--count", "10", "--M", "2000",
                 "--seed", "5", "--out", str(tmp_path)]) == 0


def test_gronwall_input_file(tmp_path):
    t = np.linspace(0.0, 1.0, 101)
    path = tmp_path / "uvw.csv"
    rows = ["t,u,v,w"] + [
        f"{tt},{tt * tt / 4.0},0.0,1.0" for tt in t
    ]
    path.write_text("\n".join(rows) + "\n")
    assert main(["gronwall", "--input", str(path), "--p", "0.5",
                 "--out", str(tmp_path)]) == 0


def test_gronwall_input_reads_the_packages_own_csv(tmp_path, capsys):
    from cylstable.reporting import write_csv

    t = np.linspace(0.0, 1.0, 101)
    path = tmp_path / "uvw.csv"
    write_csv(path, {"t": t, "u": t**2 / 4.0, "v": np.zeros_like(t), "w": np.ones_like(t)},
              {"case": "near-equality"})
    assert path.read_text().startswith("# cylstable version=")
    assert main(["gronwall", "--input", str(path), "--p", "0.5",
                 "--out", str(tmp_path)]) == 0
    assert "usage error" not in capsys.readouterr().err


def test_check_model_subcommand(tmp_path):
    assert main(["check-model", "--preset", "heat", "--n", "8",
                 "--out", str(tmp_path)]) == 0
    summary = (tmp_path / "check_model.summary").read_text()
    assert "verdict.norm_continuity_delta=0.25=pass" in summary
    assert "verdict.A2_bounded=pass" in summary


def test_check_model_fails_a_series_whose_squares_overflow(tmp_path, capsys):
    # k^300 is finite at k <= 8, so the model is valid, but its A2 series is not
    model_file = tmp_path / "model.cfg"
    model_file.write_text("n=8\nkappa_rule=power:1:-300\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["check-model", "--model-config", str(model_file),
                     "--out", str(tmp_path)]) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "usage error" not in capsys.readouterr().err
    summary = (tmp_path / "check_model.summary").read_text()
    assert "verdict.A2_bounded=fail" in summary
    assert "envelope_sup=inf" in summary


def test_check_model_names_each_delta_by_its_exact_value(tmp_path):
    assert main(["check-model", "--n", "3", "--deltas", "0.999999999999,1",
                 "--out", str(tmp_path)]) == 0
    summary = (tmp_path / "check_model.summary").read_text()
    assert "verdict.norm_continuity_delta=0.99999999999900002=pass" in summary
    assert "verdict.norm_continuity_delta=1=pass" in summary


def test_gof_subcommand(tmp_path):
    assert main(["gof", "--alpha", "1.5", "--n", "3", "--N", "30000",
                 "--seed", "9", "--out", str(tmp_path)]) == 0


def test_glue_config_file_rejects_T(tmp_path, capsys):
    config = tmp_path / "glue.cfg"
    config.write_text("T=0.1\n")
    code = main(["glue", "--config", str(config), "--T-total", "0.15", "--M", "120",
                 "--seed", "7", "--out", str(tmp_path)])
    assert code == 2
    assert "unknown config key 'T'" in capsys.readouterr().err


def test_flags_are_not_abbreviated(tmp_path):
    # glue has no T: --T must not silently set --T-total
    with pytest.raises(SystemExit) as exc:
        main(["glue", "--T", "0.15", "--M", "120", "--seed", "7", "--out", str(tmp_path)])
    assert exc.value.code == 2


def _data_rows(path):
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


@pytest.mark.parametrize("command, table", [("picard", "picard_convergence.csv"),
                                            ("uniqueness", "uniqueness.csv")])
def test_ensemble_commands_accept_x0(tmp_path, command, table):
    args = [command, "--n", "3", "--M", "20", "--replicas", "3", "--seed", "5"]
    assert main([*args, "--out", str(tmp_path / "default")]) == 0
    assert main([*args, "--x0", "1,0,0", "--out", str(tmp_path / "x0")]) == 0
    text = (tmp_path / "x0" / table).read_text()
    assert "# x0=1,0,0\n" in text
    assert _data_rows(tmp_path / "x0" / table) != _data_rows(tmp_path / "default" / table)


def _solve_states(tmp_path, name, model_text, *extra):
    model_file = tmp_path / f"{name}.cfg"
    model_file.write_text(model_text)
    out = tmp_path / name
    assert main(["solve", "--model-config", str(model_file), "--T", "0.01", "--M", "40",
                 "--seed", "1", "--out", str(out), *extra]) == 0
    return _data_rows(out / "mild_path.csv")


def test_model_file_noise_dimension_is_used(tmp_path):
    from_file = _solve_states(tmp_path, "file", "n=4\nm=2\n")
    assert from_file == _solve_states(tmp_path, "flag", "n=4\nm=2\n", "--m", "2")
    assert from_file != _solve_states(tmp_path, "none", "n=4\n")


def test_m_flag_overrides_model_file(tmp_path):
    overridden = _solve_states(tmp_path, "file", "n=4\nm=2\n", "--m", "3")
    assert overridden == _solve_states(tmp_path, "flag", "n=4\n", "--m", "3")
    assert overridden != _solve_states(tmp_path, "plain", "n=4\nm=2\n")


def test_headers_record_the_dimensions_solved(tmp_path):
    model_file = tmp_path / "model.cfg"
    model_file.write_text("n=4\nm=2\n")
    assert main(["solve", "--model-config", str(model_file), "--T", "0.01", "--M", "20",
                 "--seed", "1", "--out", str(tmp_path / "file")]) == 0
    assert main(["solve", "--n", "3", "--T", "0.01", "--M", "20", "--seed", "1",
                 "--out", str(tmp_path / "preset")]) == 0
    for name, n, m in [("file", 4, 2), ("preset", 3, 3)]:
        for artifact in ["mild_path.csv", "mild_path.summary"]:
            text = (tmp_path / name / artifact).read_text()
            assert f"# n={n}\n" in text
            assert f"# m={m}\n" in text


def _header(path):
    return [line for line in path.read_text().splitlines() if line.startswith("# ")]


def test_headers_record_the_model_file_content(tmp_path):
    model_file, out = tmp_path / "model.cfg", tmp_path / "out"
    headers = []
    for delta in ("0.25", "0.5"):
        model_file.write_text(f"n=4\nm=2\ndelta={delta}\n")
        assert main(["solve", "--model-config", str(model_file), "--T", "0.01", "--M", "20",
                     "--seed", "1", "--out", str(out)]) == 0
        assert main(["check-model", "--model-config", str(model_file), "--out", str(out)]) == 0
        digest = hashlib.sha256(model_file.read_bytes()).hexdigest()
        for artifact in ["mild_path.csv", "mild_path.summary", "check_model.summary"]:
            assert f"# model_sha256={digest}" in _header(out / artifact)
        headers.append(_header(out / "mild_path.summary"))
    # same path and flags: only the content digest tells the two problems apart
    changed = [(a, b) for a, b in zip(*headers, strict=True) if a != b]
    assert len(changed) == 1 and changed[0][0].startswith("# model_sha256=")
    assert main(["solve", "--n", "3", "--T", "0.01", "--M", "20", "--seed", "1",
                 "--out", str(tmp_path / "preset")]) == 0
    assert not any("model_sha256" in line
                   for line in _header(tmp_path / "preset" / "mild_path.summary"))


@pytest.mark.parametrize("argv", [
    ["constants", "--p", "0.5"],
    ["solve", "--T", "0.01", "--M", "20", "--seed", "1"],
    ["uniqueness", "--M", "20", "--replicas", "3", "--seed", "1"],
], ids=["constants", "solve", "uniqueness"])
def test_alpha_next_to_one_runs(tmp_path, argv):
    assert main([*argv, "--alpha", "1.000000000001", "--out", str(tmp_path)]) == 0


def test_model_config_file(tmp_path):
    model_file = tmp_path / "model.cfg"
    model_file.write_text("n=4\nlambda_rule=dirichlet\ndelta=0.25\n"
                          "kappa_rule=power:1:1.5\nf_rule=power:1:1.5\nshape=tanh\n")
    assert main(["solve", "--model-config", str(model_file), "--T", "0.01",
                 "--M", "40", "--seed", "1", "--out", str(tmp_path)]) == 0


def test_moment_subcommand(tmp_path):
    code = main(["moment", "--alpha", "1.5", "--p-list", "1,1.2", "--N", "4000", "--gamma", "1",
                 "--M", "8", "--seed", "21", "--out", str(tmp_path)])
    assert code == 0
    summary = (tmp_path / "moment.summary").read_text()
    # 1 and 1.2 lie at or above alpha/2: noted, not judged
    assert "verdict." not in summary and "passed=true" in summary
    assert "=stability_p=1 not judged (p >= alpha/2, infinite variance)" in summary
    assert "=stability_p=1.2 not judged" in summary
    assert "homogeneity" not in summary and "scale_factor" not in summary


def test_moment_default_p_list_is_judged(tmp_path):
    # alpha/3 and 7 alpha/15, the benchmark's 0.5 and 0.7 at alpha = 1.5: both below alpha/2
    assert main(["moment", "--alpha", "1.5", "--N", "4000", "--gamma", "1", "--M", "8",
                 "--seed", "21", "--out", str(tmp_path)]) == 0
    summary = (tmp_path / "moment.summary").read_text()
    assert "verdict.stability_p=0.5=pass" in summary
    assert "verdict.stability_p=0.7=pass" in summary
    assert "not judged" not in summary


def test_moment_without_a_judged_p_notes_it_and_passes(tmp_path, capsys):
    assert main(["moment", "--alpha", "1.5", "--p-list", "1.3,1.4", "--N", "500", "--M", "4",
                 "--seed", "21", "--out", str(tmp_path)]) == 0
    assert "note: no stability verdict" in capsys.readouterr().out
    summary = (tmp_path / "moment.summary").read_text()
    assert "verdict." not in summary and "=no stability verdict" in summary


def test_picard_and_uniqueness_subcommands(tmp_path):
    assert main(["picard", "--preset", "heat", "--n", "6", "--M", "50",
                 "--replicas", "30", "--iters", "6", "--seed", "31",
                 "--out", str(tmp_path)]) == 0
    assert main(["uniqueness", "--preset", "heat", "--n", "4", "--M", "40",
                 "--replicas", "8", "--seed", "32", "--out", str(tmp_path)]) == 0


def test_integrate_subcommand(tmp_path):
    assert main(["integrate", "--alpha", "1.5", "--gamma", "1,0.5", "--profile",
                 "linear", "--T", "1", "--M", "16", "--seed", "41",
                 "--out", str(tmp_path)]) == 0
    header = [l for l in (tmp_path / "integral.csv").read_text().splitlines()
              if not l.startswith("#")][0]
    assert header == "t,coord_1,coord_2"


def test_usage_error_unknown_kind(tmp_path, capsys):
    out = tmp_path / "out"
    for argv in (["sample", "--kind", "bogus", "--alpha", "1.5", "--seed", "1"],
                 ["gronwall", "--case", "bogus"],
                 ["integrate", "--profile", "bogus", "--alpha", "1.5", "--seed", "1"],
                 ["integrate", "--profile", "bogus", "--refinement-levels", "2", "--alpha", "1.5",
                  "--seed", "1"]):
        assert main([*argv, "--out", str(out)]) == 2
        assert not out.exists()  # refused before --out is created
    # both integrate modes read the one profile table
    assert capsys.readouterr().err.count("profile='bogus': not one of const | linear") == 2


def test_integrate_refinement_mode(tmp_path):
    code = main(["integrate", "--alpha", "1.5", "--gamma", "1", "--profile", "linear",
                 "--M", "8", "--refinement-levels", "4", "--replicas", "400",
                 "--epsilon", "0.02", "--seed", "51", "--out", str(tmp_path)])
    assert code == 0
    lines = [l for l in (tmp_path / "refinement.csv").read_text().splitlines()
             if not l.startswith("#")]
    assert lines[0] == "level,epsilon,exceedance,stderr"


def test_solve_accepts_initial_condition(tmp_path):
    assert main(["solve", "--preset", "heat", "--n", "4", "--T", "0.01", "--M", "20",
                 "--x0", "1,0,0,0", "--seed", "2", "--out", str(tmp_path)]) == 0
    rows = [l for l in (tmp_path / "mild_path.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert rows[1].split(",")[1] == "1"  # x_1(0) = 1


def test_verdict_failure_exit_code(tmp_path, capsys):
    # one Picard iteration leaves the first gap, of the size of the noise, far above 1e-3
    code = main(["picard", "--preset", "heat", "--M", "50", "--replicas", "4", "--iters", "1",
                 "--seed", "7", "--out", str(tmp_path)])
    assert code == 1
    summary = (tmp_path / "picard_convergence.summary").read_text()
    assert "verdict.final_below_1e-3=fail" in summary
    assert "passed=false" in summary
    assert capsys.readouterr().out.splitlines()[-1].startswith("runtime ")



@pytest.fixture
def moved_pass(monkeypatch):
    """Every exponential-Euler pass moves its first path's terminal state by 1e-6."""
    causal_pass = picard._causal_pass

    def moved(*args):
        states = causal_pass(*args)
        states[0, -1, 0] += 1e-6
        return states

    monkeypatch.setattr(picard, "_causal_pass", moved)


CERTIFICATE_FAILS = ("Picard certificate 1.000e-06 of the exponential-Euler pass is not below "
                     "TOL=1e-12")


def _fails_and_writes_nothing(argv, failure, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*argv, "--preset", "heat", "--seed", "7", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"FAIL: {failure}"]
    assert not out.exists()


@pytest.mark.usefixtures("moved_pass")
def test_uniqueness_nonconvergence_fails_and_writes_nothing(tmp_path, capsys):
    _fails_and_writes_nothing(["uniqueness", "--M", "50", "--replicas", "4"], CERTIFICATE_FAILS,
                              tmp_path, capsys)


@pytest.mark.usefixtures("moved_pass")
def test_solve_nonconvergence_fails_and_writes_nothing(tmp_path, capsys):
    _fails_and_writes_nothing(["solve", "--T", "0.05", "--M", "200"], CERTIFICATE_FAILS,
                              tmp_path, capsys)


@pytest.mark.usefixtures("moved_pass")
def test_glue_nonconvergence_fails_and_writes_nothing(tmp_path, capsys):
    _fails_and_writes_nothing(["glue", "--T-total", "0.15", "--M", "120"],
                              f"piece 0 of 3: {CERTIFICATE_FAILS}", tmp_path, capsys)


@pytest.mark.usefixtures("moved_pass")
def test_failing_solve_beyond_the_horizon_bound_keeps_its_warning(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["solve", "--preset", "heat", "--T", "0.2", "--M", "200", "--seed", "3",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert err[0].startswith("warning: horizon T=0.2 exceeds the binding admissible bound ")
    assert err[1].startswith("FAIL: Picard certificate ")
    assert not out.exists()


def test_uniqueness_without_noise_in_the_path_passes(tmp_path, capsys):
    # the heat preset's G(0) = F(0) = 0, so from x0 = 0 every path, on any noise, stays 0: the
    # fresh-noise distance is 0, a note and not a failure
    assert main(["uniqueness", "--preset", "heat", "--n", "3", "--x0", "0,0,0", "--M", "50",
                 "--replicas", "4", "--seed", "3", "--out", str(tmp_path)]) == 0
    assert "note: fresh-noise distance" in capsys.readouterr().out
    summary = (tmp_path / "uniqueness.summary").read_text()
    assert "verdict." not in summary and "passed=true" in summary
    rows = _data_rows(tmp_path / "uniqueness.csv")
    assert rows[0] == "replica,x0_perturbed,fresh_noise"
    assert [row.split(",")[2] for row in rows[1:]] == ["0"] * 4


@pytest.mark.parametrize("argv", [
    ["tail", "--alpha", "0"],
    ["tail", "--alpha", "2.5"],
    ["tail", "--alpha", "1.5", "--gamma", ","],
    ["moment", "--alpha", "2.5", "--p-list", "0.5"],
    ["moment", "--alpha", "1.5", "--gamma", ","],
    ["sample", "--alpha", "2.5"],
    ["integrate", "--alpha", "2.5"],
    # an option that the tail mode does not read
    ["tail", "--alpha", "1.5", "--integrand", "const", "--t", "1"],
    *(["tail", "--alpha", "1.5", *extra] for extra in (["--M", "16"], ["--T", "1"])),
    *(["integrate", "--refinement-levels", "2", "--replicas", "10", *extra] for extra in (
        ["--alpha", "0"], ["--alpha", "1.5", "--M", "0"], ["--alpha", "2.5"], ["--alpha", "-1"],
        ["--alpha", "nan"], ["--alpha", "1.5", "--T", "-1"], ["--alpha", "1.5", "--epsilon", "nan"],
    )),
    # a list option with no number
    ["solve", "--T", "0.01", "--x0", ","],
    ["moment", "--alpha", "1.5", "--p-list", ","],
    ["check-model", "--deltas", ","],
    # an initial state whose length is not the model's n
    ["solve", "--T", "0.01", "--n", "3", "--x0", "1,2"],
    ["glue", "--T-total", "0.01", "--n", "3", "--x0", "1,2"],
    ["glue", "--T-total", "1", "--M", "4"],  # more pieces than M // 2
    # an initial state that is not finite
    *([*command, "--n", "2", "--x0", x0] for x0 in ("nan,0", "inf,0") for command in (
        ["solve", "--T", "0.01"], ["glue", "--T-total", "0.01"],
        ["picard", "--M", "20", "--replicas", "2"], ["uniqueness", "--M", "20", "--replicas", "2"],
    )),
    # a moment order outside (0, alpha)
    *(["picard", "--M", "20", "--replicas", "2", "--p", p] for p in ("0", "-1", "nan", "1.5")),
], ids=" ".join)
def test_out_of_domain_arguments_are_refused_before_any_draw(tmp_path, capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a draw at an invalid alpha warns before it fails
        assert main([*argv, "--seed", "1", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "usage error:" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["solve", "--T", "0.01", "--x0", ","],
    ["moment", "--alpha", "1.5", "--p-list", ","],
    ["check-model", "--deltas", ","],
], ids=" ".join)
def test_empty_list_options_are_refused_from_config(tmp_path, capsys, argv):
    config = tmp_path / "run.cfg"
    config.write_text(f"{argv[-2][2:].replace('-', '_')}={argv[-1]}\n")
    out = tmp_path / "out"
    assert main([*argv[:-2], "--config", str(config), "--seed", "1", "--out", str(out)]) == 2
    assert "needs at least one number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra", [["--T", "inf"], ["--T", "nan"]])
def test_solve_rejects_non_finite_values(tmp_path, capsys, extra):
    code = main(["solve", "--preset", "heat", "--M", "20", "--seed", "7",
                 "--out", str(tmp_path), *extra])
    assert code == 2
    assert "must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "mild_path.csv").exists()


def _run_python(code: str, *args: str, environ=os.environ) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter, in ``environ``, that imports this checkout's package."""
    src = str(Path(cylstable.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, environ.get("PYTHONPATH")]))
    env = dict(environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=300)


def test_cli_import_loads_no_scipy():
    # the runtime is numpy alone; scipy is a test-only oracle.  The package
    # itself loads none of its modules: each command imports the ones it calls
    result = _run_python("import sys, cylstable\n"
                         "print(sorted(m for m in sys.modules if m.startswith('cylstable.')))\n"
                         "import cylstable.cli\n"
                         "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "[]"]


@pytest.mark.parametrize("argv", [
    ["tail", "--alpha", "1.5", "--integrand", "const"],
    ["moment", "--alpha", "1.5"],
    ["integrate", "--alpha", "1.5"],
    ["noise", "--alpha", "1.5"],
], ids=" ".join)
def test_a_non_finite_horizon_is_refused_before_its_grid_is_built(tmp_path, argv):
    # in a child process, where numpy's RuntimeWarnings would reach stderr
    out = tmp_path / "out"
    result = _run_python("import sys; from cylstable.cli import main; sys.exit(main(sys.argv[1:]))",
                         *argv, "--T", "inf", "--seed", "3", "--out", str(out))
    assert result.stderr == "usage error: --T must be positive and finite, got inf\n"
    assert result.returncode == 2
    assert not out.exists()


def test_cli_runs_openblas_on_one_thread_unless_told_otherwise():
    # importing the CLI sets the default before numpy starts OpenBLAS, which then starts no
    # worker thread; a value already in the environment is kept
    code = "import os, cylstable.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    default = _run_python(f"{code}; print(len(os.listdir('/proc/self/task')))",
                          environ=environ)
    assert default.stdout.splitlines() == ["1", "1"], default.stderr
    kept = _run_python(code, environ={**environ, "OPENBLAS_NUM_THREADS": "3"})
    assert kept.stdout.splitlines() == ["3"], kept.stderr


# modules of the package that a command must leave unloaded
NOT_LOADED = {
    "noise": ("picard", "experiments", "integral", "constants", "hilbert"),
    "solve": ("experiments", "integral"),
    "glue": ("experiments", "integral"),
    "integrate": ("picard", "experiments"),
    "tail": ("picard",),
    "moment": ("picard",),
    "gof": ("picard", "integral", "constants", "hilbert"),
}


def _run_cli_fresh(argv: list[str]) -> tuple[int, list[bool], list[str]]:
    """Exit code of one CLI run in a fresh interpreter, whether it loaded numpy.random,
    hashlib and _hashlib, and the modules of the package it loaded."""
    code = ("import json, sys\n"
            "from cylstable.cli import main\n"
            "code = main(json.loads(sys.argv[1]))\n"
            "loaded = [m for m in sys.modules if m.startswith('cylstable.')]\n"
            "print(json.dumps([code, [name in sys.modules for name in\n"
            "                         ('numpy.random', 'hashlib', '_hashlib')], loaded]))\n")
    result = _run_python(code, json.dumps(argv))
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv", [
    ["noise", *TINY_STOCHASTIC["noise"]],
    ["solve", *TINY_STOCHASTIC["solve"]],
    ["glue", *TINY_STOCHASTIC["glue"]],
    ["picard", *TINY_STOCHASTIC["picard"]],
    ["uniqueness", *TINY_STOCHASTIC["uniqueness"]],
    ["integrate", *TINY_STOCHASTIC["integrate"]],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_noise_commands_never_import_numpy_random(tmp_path, argv):
    # their streams come from the port, which keeps numpy.random's memory out of
    # these runs; OpenSSL's (hashlib) is loaded only to hash a --model-config file
    code, imported, loaded = _run_cli_fresh([*argv, "--seed", "7", "--out", str(tmp_path)])
    assert [code, imported] == [0, [False, False, False]]
    assert not {f"cylstable.{name}" for name in NOT_LOADED.get(argv[0], ())} & set(loaded)


def test_refinement_mode_draws_generator_streams_and_loads_no_solver_code(tmp_path):
    # its replicas come from Monte-Carlo chunk streams, as tail's and gof's do, so it loads
    # numpy.random; it never compiles the Picard solver or the experiments
    code, imported, loaded = _run_cli_fresh(["integrate", "--alpha", "1.5", "--M", "8",
                                             "--refinement-levels", "2", "--replicas", "20",
                                             "--seed", "7", "--out", str(tmp_path)])
    assert code == 0 and imported[0]
    assert not {f"cylstable.{name}" for name in NOT_LOADED["integrate"]} & set(loaded)


@pytest.mark.parametrize("command", ["tail", "moment", "gof"])
def test_monte_carlo_commands_load_no_solver_code(tmp_path, command):
    # each experiment imports the solver modules it calls, so a cold Monte-Carlo run never
    # compiles the Picard solver (nor, for gof, the model and integrand modules)
    code, _, loaded = _run_cli_fresh([command, *TINY_STOCHASTIC[command], "--seed", "7",
                                      "--out", str(tmp_path)])
    assert code == 0 and "cylstable.experiments" in loaded
    assert not {f"cylstable.{name}" for name in NOT_LOADED[command]} & set(loaded)


def test_monte_carlo_commands_never_import_numpy_ma(tmp_path):
    # numpy's own percentile and median import numpy.ma (through np.unique and the median's
    # NaN check): 13 ms of a cold run
    runs = [[command, *TINY_STOCHASTIC[command], "--seed", "7", "--out", str(tmp_path / command)]
            for command in ("tail", "moment", "gof", "uniqueness")]
    code = ("import json, sys\n"
            "from cylstable.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, 'numpy.ma' in sys.modules]))\n")
    result = _run_python(code, json.dumps(runs))
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == [[0, 0, 0, 0], False]


def test_every_command_runs_with_scipy_blocked(tmp_path):
    runs = [[command, *args, "--seed", "7"] for command, args in TINY_STOCHASTIC.items()]
    runs += [["constants", "--alpha", "1.5", "--p", "1.2"],
             ["check-model", "--n", "3"],
             # a radonified tail: its plateau is judged against the Levy mass
             ["tail", "--alpha", "1.5", "--gamma", "1,0.5,0.25", "--N", "40000",
              "--r-min", "10", "--r-max", "40", "--r-count", "5", "--seed", "7"]]
    runs = [[*argv, "--out", str(tmp_path / str(i))] for i, argv in enumerate(runs)]
    code = ("import json, sys\n"
            "sys.modules['scipy'] = None  # any scipy import raises ImportError\n"
            "from cylstable.cli import main\n"
            "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))\n")
    result = _run_python(code, json.dumps(runs))
    assert result.returncode == 0, result.stderr
    assert "Error" not in result.stderr
    codes = json.loads(result.stdout.splitlines()[-1])
    # every tiny run passes; the 3-vector tail may also report a verdict (1) or be inconclusive (3)
    assert codes[:-1] == [0] * (len(runs) - 1)
    assert codes[-1] in (0, 1, 3)
