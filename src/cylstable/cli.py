"""Command-line front end.

Subcommands: constants | sample | noise | integrate | solve | glue | tail
| moment | picard | uniqueness | gronwall | check-model | gof.

Each subcommand declares its options once, as ``key -> (caster, default)``;
the flags (``--key-with-dashes``), the keys accepted by the optional flat
key=value ``--config`` file and the keys of every artifact header all come
from that table.  Flags override the config file, which overrides the
defaults; unknown config keys and malformed values are usage errors.
Each handler imports the modules it calls, so a command loads only those.

Exit codes: 0 all verdicts pass, 1 verdict failure (or non-convergence),
2 usage error, 3 inconclusive (under-resolved) experiment; a failed
verdict outranks an inconclusive one.  A run's wall time goes to stdout,
never into an artifact.  ``--seed`` is mandatory for every
stochastic subcommand: there is no silent entropy.  A seed is an integer in
[0, 2**32), the first word of every stream name (see :mod:`cylstable.rng`);
any other value is a usage error.  Outputs are byte-identical across
identical invocations.
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import __version__
from .reporting import (
    RunFailed,
    format_value,
    header_lines,
    parse_key_values,
    write_csv,
    write_report,
    write_summary,
)
from .rng import stream_word, substream

if TYPE_CHECKING:  # annotations only; the handlers import what they call
    from .experiments import ExperimentReport
    from .picard import SolverConfig

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


class UsageError(Exception):
    pass


# subcommand name -> (handler, spec); the spec maps each option key to (caster, default)
_COMMANDS: dict[str, tuple[Callable[[dict], int], dict[str, tuple]]] = {}


def _command(name: str, spec: dict[str, tuple]):
    def register(handler):
        _COMMANDS[name] = (handler, spec)
        return handler
    return register


def _resolve(args: argparse.Namespace, spec: dict[str, tuple]) -> dict:
    """Layer resolution: built-in default < config file < explicit flag, one caster for both."""
    raw: dict[str, str] = {}
    if args.config is not None:
        raw = parse_key_values(Path(args.config).read_text(encoding="utf-8"), spec, "config")
    flags = vars(args)
    raw.update((key, flags[key]) for key in spec if flags[key] is not None)
    resolved = {}
    for key, (caster, default) in spec.items():
        if key not in raw:
            resolved[key] = default
            continue
        try:
            resolved[key] = caster(raw[key])
        except ValueError as exc:
            raise UsageError(f"{key}={raw[key]!r}: {exc}") from None
    return resolved


def _require(resolved: dict, *keys: str) -> None:
    for key in keys:
        if resolved.get(key) is None:
            raise UsageError(f"--{key.replace('_', '-')} is required for this subcommand")


def _seed(text: str) -> int:
    """A master seed: the first word of every stream name, an integer in [0, 2**32)."""
    return stream_word(int(text))


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x != "")


def _out_dir(resolved: dict) -> Path:
    out = Path(resolved["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _report_exit(report: ExperimentReport, out_dir: Path, resolved: dict) -> int:
    paths = write_report(report, out_dir, resolved)
    for verdict in report.verdicts:
        status = "PASS" if verdict.passed else "FAIL"
        print(f"[{status}] {report.name}.{verdict.name}: {verdict.observed} ({verdict.threshold})")
    for note in report.notes:
        print(f"note: {note}")
    print(f"wrote: {', '.join(str(p) for p in paths)}")
    if not all(v.passed for v in report.verdicts):
        return EXIT_FAIL  # a failed verdict outranks "inconclusive"
    return EXIT_INCONCLUSIVE if report.inconclusive else EXIT_PASS


_R_COUNT_MAX = 10_000  # radii of the tail grid; each is one binary search per sorted block


def _r_grid(resolved: dict) -> np.ndarray:
    if not 2 <= resolved["r_count"] <= _R_COUNT_MAX:
        raise UsageError(f"--r-count must lie in [2, {_R_COUNT_MAX}], got {resolved['r_count']}")
    with np.errstate(invalid="ignore"):  # tail_experiment refuses the NaN radii of r_min < 0
        return np.geomspace(resolved["r_min"], resolved["r_max"], resolved["r_count"])


# ----------------------------------------------------------------- handlers

@_command("constants", {
    "alpha": (float, None), "p": (float, None), "c_f": (float, 1.0), "c_g": (float, 1.0),
    "n": (int, 1), "c_convention": (float, 1.0), "out": (str, "."),
})
def cmd_constants(resolved: dict) -> int:
    from .constants import constants_report

    _require(resolved, "alpha", "p")
    report = constants_report(resolved["alpha"], resolved["p"], resolved["c_f"],
                              resolved["c_g"], resolved["n"], resolved["c_convention"])
    out = _out_dir(resolved)
    for key, value in report.items():
        print(f"{key}={format_value(value)}")
    write_summary(out / "constants.summary", report, resolved)
    write_csv(out / "constants.csv", {"key": list(report), "value": list(report.values())},
              resolved)
    return EXIT_PASS


@_command("sample", {
    "kind": (str, "sas"), "alpha": (float, None), "scale": (float, 1.0), "n": (int, 1),
    "N": (int, 10000), "seed": (_seed, None), "out": (str, "."),
})
def cmd_sample(resolved: dict) -> int:
    from .sampling import AlphaParams, sample_isotropic, sample_positive_stable, sample_scalar_sas

    _require(resolved, "alpha", "seed")
    kind = resolved["kind"]
    out = _out_dir(resolved)
    if kind == "sas":
        draws = sample_scalar_sas(AlphaParams(resolved["alpha"], resolved["scale"]),
                                  resolved["seed"], size=resolved["N"])
        cols = {"x": draws}
    elif kind == "positive":
        draws = sample_positive_stable(resolved["alpha"] / 2.0, resolved["seed"],
                                       size=resolved["N"])
        cols = {"x": draws}
    elif kind == "isotropic":
        draws = sample_isotropic(resolved["alpha"], resolved["n"], resolved["seed"],
                                 size=resolved["N"])
        cols = {f"x_{j + 1}": draws[:, j] for j in range(resolved["n"])}
    else:
        raise UsageError(f"unknown sample kind {kind!r} (sas | positive | isotropic)")
    write_csv(out / "samples.csv", cols, resolved)
    print(f"wrote {out / 'samples.csv'} ({resolved['N']} draws)")
    return EXIT_PASS


@_command("noise", {
    "alpha": (float, None), "m": (int, 1), "T": (float, 1.0), "M": (int, 100),
    "seed": (_seed, None), "out": (str, "."),
})
def cmd_noise(resolved: dict) -> int:
    from .sampling import generate_noise_path, noise_csv_lines

    _require(resolved, "alpha", "seed")
    grid = np.linspace(0.0, resolved["T"], resolved["M"] + 1)
    path = generate_noise_path(resolved["alpha"], resolved["m"], grid, resolved["seed"])
    out = _out_dir(resolved)
    with open(out / "noise.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(noise_csv_lines(path, header_lines(resolved)))
    print(f"wrote {out / 'noise.csv'} ({path.steps} steps x {path.m} coordinates)")
    return EXIT_PASS


# integrate's time profiles: the integrand is Psi(s) = profile(s) * diag(gamma)
_PROFILES = {"const": np.ones_like, "linear": lambda s: s}


@_command("integrate", {
    "alpha": (float, None), "gamma": (_parse_floats, (1.0,)), "profile": (str, "const"),
    "T": (float, 1.0), "M": (int, 100), "seed": (_seed, None), "out": (str, "."),
    "refinement_levels": (int, None), "replicas": (int, 2000), "epsilon": (float, 0.02),
})
def cmd_integrate(resolved: dict) -> int:
    from .hilbert import HSMatrix
    from .integral import StepIntegrand, integrate, refinement_experiment
    from .sampling import generate_noise_path

    _require(resolved, "alpha", "seed")
    profile = _PROFILES.get(resolved["profile"])
    if profile is None:
        raise UsageError(f"unknown profile {resolved['profile']!r} (const | linear)")
    gamma = np.asarray(resolved["gamma"], dtype=float)
    grid = np.linspace(0.0, resolved["T"], resolved["M"] + 1)
    psi = HSMatrix.diagonal(gamma)
    out = _out_dir(resolved)

    if resolved["refinement_levels"] is not None:
        # refinement-convergence experiment for the selected profile
        result = refinement_experiment(
            profile, psi, resolved["alpha"], resolved["T"], resolved["M"],
            resolved["refinement_levels"], resolved["replicas"], resolved["epsilon"],
            resolved["seed"],
        )
        write_csv(out / "refinement.csv", result["table"], resolved)
        write_summary(out / "refinement.summary",
                      {"monotone": result["monotone"], "replicas": result["replicas"]},
                      resolved)
        print(f"wrote {out / 'refinement.csv'} (monotone={result['monotone']})")
        return EXIT_PASS if result["monotone"] else EXIT_FAIL

    integrand = StepIntegrand(grid, profile(grid[:-1])[:, None, None] * psi.entries)
    noise = generate_noise_path(resolved["alpha"], gamma.size, grid, resolved["seed"])
    path = integrate(integrand, noise)
    cols = {"t": grid}
    cols.update({f"coord_{j + 1}": path[:, j] for j in range(path.shape[1])})
    write_csv(out / "integral.csv", cols, resolved)
    print(f"wrote {out / 'integral.csv'}")
    return EXIT_PASS


# the keys _model_from reads
_MODEL_SPEC = {
    "preset": (str, "heat"), "model_config": (str, None), "n": (int, 8), "m": (int, None),
}
# solver options shared by solve, glue, picard and uniqueness; each adds its horizon key
_SOLVER_SPEC = {
    "alpha": (float, 1.5), **_MODEL_SPEC, "M": (int, 200), "N_max": (int, 64),
    "tol": (float, 1e-12), "seed": (_seed, None), "out": (str, "."), "x0": (_parse_floats, None),
}


def _model_from(resolved: dict):
    """The preset or model file; an explicit ``m`` overrides the file's noise dimension.

    ``n`` and ``m`` of ``resolved`` become the dimensions solved, and a model
    file's content is recorded as ``model_sha256``, so every artifact header
    pins the problem solved, not only the file's path.
    """
    from .hilbert import heat_preset, parse_model_config

    if resolved["model_config"]:
        import hashlib  # here, not at the top: it maps OpenSSL into every command

        content = Path(resolved["model_config"]).read_bytes()
        resolved["model_sha256"] = hashlib.sha256(content).hexdigest()
        model = parse_model_config(content.decode("utf-8"))
        if resolved["m"] is not None:
            model = replace(model, m=resolved["m"])
    else:
        preset = resolved["preset"] or "heat"
        if preset != "heat":
            raise UsageError(f"unknown preset {preset!r}; available: heat")
        model = heat_preset(n=resolved["n"], m=resolved["m"])
    resolved["n"], resolved["m"] = model.n, model.noise_dim
    return model


def _config_from(resolved: dict, model, horizon: float) -> SolverConfig:
    from .picard import SolverConfig

    x0 = np.asarray(resolved["x0"], float) if resolved["x0"] else None
    return SolverConfig(alpha=resolved["alpha"], T=horizon, M=resolved["M"], n=model.n,
                        m=model.m, N_max=resolved["N_max"], tol=resolved["tol"],
                        seed=resolved["seed"], x0=x0)


def _ensemble_setup(resolved: dict):
    """Model and config of picard and uniqueness; the horizon defaults to 0.9 T_bound."""
    from .picard import binding_time_bound

    _require(resolved, "seed")
    model = _model_from(resolved)
    if resolved["T"] is None:
        resolved["T"] = 0.9 * binding_time_bound(model, resolved["alpha"])
    return model, _config_from(resolved, model, resolved["T"])


def _write_mild_path(path, file: Path, resolved: dict) -> None:
    write_csv(file, {"t": path.grid, **{f"x_{j + 1}": x for j, x in enumerate(path.states.T)}},
              resolved)
    with open(file, "a", newline="\n") as fh:
        fh.write(
            f"# iteration_count={path.iteration_count} "
            f"gap={format_value(path.final_picard_gap)} "
            f"residual={format_value(path.residual)}\n"
        )


@_command("solve", {**_SOLVER_SPEC, "T": (float, None)})
def cmd_solve(resolved: dict) -> int:
    from .picard import binding_time_bound, solve

    _require(resolved, "T", "seed")
    model = _model_from(resolved)
    config = _config_from(resolved, model, resolved["T"])
    out = _out_dir(resolved)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        path = solve(model, config)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    _write_mild_path(path, out / "mild_path.csv", resolved)
    write_summary(out / "mild_path.summary",
                  {"iteration_count": path.iteration_count,
                   "final_picard_gap": path.final_picard_gap,
                   "residual": path.residual,
                   "T_bound": binding_time_bound(model, config.alpha)},
                  resolved)
    print(f"solved in {path.iteration_count} iterations, gap={path.final_picard_gap:.3e}, "
          f"residual={path.residual:.3e}")
    return EXIT_PASS


@_command("glue", {**_SOLVER_SPEC, "T_total": (float, None)})
def cmd_glue(resolved: dict) -> int:
    from .picard import glue_solve

    _require(resolved, "T_total", "seed")
    model = _model_from(resolved)
    config = _config_from(resolved, model, resolved["T_total"])
    out = _out_dir(resolved)
    path = glue_solve(model, config)
    _write_mild_path(path, out / "glued_path.csv", resolved)
    entries = {"pieces": len(path.piece_residuals), "residual": path.residual}
    for i, res in enumerate(path.piece_residuals):
        entries[f"piece_residual.{i}"] = res
    write_summary(out / "glued_path.summary", entries, resolved)
    print(f"glued {len(path.piece_residuals)} pieces, worst residual {path.residual:.3e}")
    return EXIT_PASS


# the defaults of the options that only one tail mode reads: with --integrand const, or without
_TAIL_MODE_DEFAULTS = {"const": {"M": 16, "T": 1.0, "scale_factor": 2.0}, None: {"t": 1.0}}


@_command("tail", {
    "alpha": (float, None), "t": (float, None), "gamma": (_parse_floats, (1.0,)),
    "N": (int, 100_000), "r_min": (float, 10.0), "r_max": (float, 100.0),
    "r_count": (int, 13), "seed": (_seed, None), "out": (str, "."),
    "integrand": (str, None), "M": (int, None), "T": (float, None),
    "scale_factor": (float, None),
})
def cmd_tail(resolved: dict) -> int:
    from .experiments import tail_experiment
    from .hilbert import HSMatrix
    from .integral import constant_integrand

    _require(resolved, "alpha", "seed")
    mode = resolved["integrand"]
    if mode not in _TAIL_MODE_DEFAULTS:
        raise UsageError("only --integrand const is supported")
    # an option of the other mode would go unread, yet into every header: refuse it
    for other, defaults in _TAIL_MODE_DEFAULTS.items():
        for key, default in defaults.items():
            if other == mode:
                if resolved[key] is None:
                    resolved[key] = default
            elif resolved.pop(key) is not None:
                raise UsageError(f"--{key.replace('_', '-')} is read only "
                                 f"{'with' if other else 'without'} --integrand const")
    gamma = np.asarray(resolved["gamma"], dtype=float)
    if mode == "const":
        grid = np.linspace(0.0, resolved["T"], resolved["M"] + 1)
        report = tail_experiment(constant_integrand(HSMatrix.diagonal(gamma), grid),
                                 resolved["alpha"], n_samples=resolved["N"],
                                 r_grid=_r_grid(resolved), seed=resolved["seed"],
                                 scale_factor=resolved["scale_factor"])
    else:
        report = tail_experiment(HSMatrix.diagonal(gamma), resolved["alpha"], t=resolved["t"],
                                 n_samples=resolved["N"], r_grid=_r_grid(resolved),
                                 seed=resolved["seed"])
    return _report_exit(report, Path(resolved["out"]), resolved)


@_command("moment", {
    "alpha": (float, None), "p_list": (_parse_floats, None), "N": (int, 10_000),
    "gamma": (_parse_floats, (1.0,)), "T": (float, 1.0), "M": (int, 16),
    "seed": (_seed, None), "out": (str, "."),
})
def cmd_moment(resolved: dict) -> int:
    from .experiments import moment_experiment
    from .hilbert import HSMatrix
    from .integral import constant_integrand

    _require(resolved, "alpha", "seed")
    if resolved["p_list"] is None:
        resolved["p_list"] = (1.0, resolved["alpha"] - 0.3)
    grid = np.linspace(0.0, resolved["T"], resolved["M"] + 1)
    integrand = constant_integrand(HSMatrix.diagonal(np.asarray(resolved["gamma"])), grid)
    report = moment_experiment(integrand, resolved["alpha"], resolved["p_list"], resolved["N"],
                               seed=resolved["seed"])
    return _report_exit(report, Path(resolved["out"]), resolved)


@_command("picard", {**_SOLVER_SPEC, "T": (float, None), "iters": (int, 8), "p": (float, 1.0),
                     "replicas": (int, 200)})
def cmd_picard(resolved: dict) -> int:
    from .experiments import picard_convergence_experiment

    model, config = _ensemble_setup(resolved)
    report = picard_convergence_experiment(model, config, n_iters=resolved["iters"],
                                           p=resolved["p"], replicas=resolved["replicas"],
                                           seed=resolved["seed"])
    return _report_exit(report, Path(resolved["out"]), resolved)


@_command("uniqueness", {**_SOLVER_SPEC, "T": (float, None), "replicas": (int, 100)})
def cmd_uniqueness(resolved: dict) -> int:
    from .experiments import uniqueness_experiment

    model, config = _ensemble_setup(resolved)
    report = uniqueness_experiment(model, config, replicas=resolved["replicas"],
                                   seed=resolved["seed"])
    return _report_exit(report, Path(resolved["out"]), resolved)


@_command("gronwall", {
    "case": (str, "near-equality"), "M": (int, 10_000), "count": (int, 100),
    "p": (float, 0.5), "seed": (_seed, None), "out": (str, "."), "input": (str, None),
})
def cmd_gronwall(resolved: dict) -> int:
    from .experiments import ExperimentReport, random_hypothesis_triples, willet_wong_check

    if resolved["case"] == "random" and not resolved["input"]:
        _require(resolved, "seed")
    if resolved["seed"] is None:
        resolved["seed"] = 0
    out = _out_dir(resolved)
    report = ExperimentReport(name="gronwall", parameters={k: v for k, v in resolved.items()
                                                           if k not in ("out", "input")},
                              seed=resolved["seed"])
    if resolved["input"]:
        with open(resolved["input"], encoding="utf-8") as fh:
            # genfromtxt would take a leading "# ..." line (write_csv's header) for the names
            lines = [line for line in fh if not line.startswith("#")]
        data = np.genfromtxt(lines, delimiter=",", names=True)
        result = willet_wong_check(data["u"], data["v"], data["w"], resolved["p"], t=data["t"])
        report.add_verdict("margin_nonnegative", result["holds"],
                           "margin >= -1e-6", f"{result['margin']:.3e}")
    elif resolved["case"] == "near-equality":
        t = np.linspace(0.0, 1.0, resolved["M"] + 1)
        result = willet_wong_check(t**2 / 4.0, np.zeros_like(t), np.ones_like(t), 0.5, t=t)
        report.add_verdict("near_equality_margin", abs(result["margin"]) < 1e-4,
                           "|margin| < 1e-4", f"{result['margin']:.3e}")
    elif resolved["case"] == "random":
        results = [willet_wong_check(u, v, w, p, t=t) for t, u, v, w, p in
                   random_hypothesis_triples(resolved["count"], resolved["M"], resolved["seed"])]
        margins = np.array([result["margin"] for result in results])
        report.tables["margins"] = {"trial": np.arange(margins.size), "margin": margins}
        report.add_verdict("margins_nonnegative", all(result["holds"] for result in results),
                           "all margins >= -1e-6", f"min={margins.min():.3e}")
    else:
        raise UsageError(f"unknown case {resolved['case']!r} (near-equality | random)")
    return _report_exit(report, out, resolved)


@_command("check-model", {
    **_MODEL_SPEC, "deltas": (_parse_floats, (0.25, 0.5, 1.0)), "out": (str, "."),
    "seed": (_seed, 0), "T": (float, 1.0),
})
def cmd_check_model(resolved: dict) -> int:
    from .experiments import ExperimentReport
    from .hilbert import check_A2, check_A3, check_norm_continuity

    deltas = resolved["deltas"]
    if len(set(deltas)) != len(deltas):
        raise UsageError(f"--deltas repeats a value: {format_value(deltas)}")
    model = _model_from(resolved)
    report = ExperimentReport(name="check_model",
                              parameters={"model": model.name, "n": model.n,
                                          "deltas": deltas},
                              seed=resolved["seed"])
    t_grid = np.geomspace(1e-6, resolved["T"], 25)
    for delta in deltas:
        result = check_norm_continuity(model, delta, t_grid)
        report.add_verdict(f"norm_continuity_delta={format_value(delta)}",
                           result["worst_ratio"] <= 1.0 + 1e-6,
                           "worst ratio <= 1 + 1e-6", f"{result['worst_ratio']:.12f}")
    rng = substream(resolved["seed"])
    trials = [rng.standard_normal(model.n) for _ in range(8)] + [np.zeros(model.n)]
    a2 = check_A2(model, np.geomspace(1e-4, resolved["T"], 12), trials)
    report.add_verdict("A2_bounded", not a2["divergent"],
                       "fractional bound finite as t -> 0",
                       f"M0={a2['M0']:.6g} envelope_sup={a2['series_envelope_sup']:.6g}")
    pairs = [(rng.standard_normal(model.n), rng.standard_normal(model.n)) for _ in range(16)]
    a3 = check_A3(model, pairs, t_grid=(0.0, 0.01, 0.1))
    ok = a3["C_F"] <= a3["bound_C_F"] + 1e-9 and a3["C_G"] <= a3["bound_C_G"] + 1e-9
    report.add_verdict("A3_lipschitz", ok,
                       "estimates below the diagonal bounds",
                       f"C_F={a3['C_F']:.4f}<={a3['bound_C_F']:.4f}, "
                       f"C_G={a3['C_G']:.4f}<={a3['bound_C_G']:.4f}")
    return _report_exit(report, Path(resolved["out"]), resolved)


@_command("gof", {
    "alpha": (float, None), "n": (int, 3), "N": (int, 100_000), "count": (int, 10),
    "seed": (_seed, None), "out": (str, "."),
})
def cmd_gof(resolved: dict) -> int:
    from .experiments import isotropic_gof_report

    _require(resolved, "alpha", "seed")
    report = isotropic_gof_report(resolved["alpha"], resolved["n"], resolved["N"],
                                  resolved["seed"], count=resolved["count"])
    return _report_exit(report, Path(resolved["out"]), resolved)


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cylstable",
                                     description="alpha-stable cylindrical noise laboratory")
    parser.add_argument("--version", action="version", version=f"cylstable {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, spec) in _COMMANDS.items():
        sp = sub.add_parser(name, allow_abbrev=False)  # only the flags of the table
        sp.add_argument("--config", help="flat key=value config file")
        for key in spec:
            sp.add_argument(f"--{key.replace('_', '-')}", dest=key)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, spec = _COMMANDS[args.command]
    start = time.perf_counter()
    try:
        code = handler(_resolve(args, spec))
    except (UsageError, ValueError, FileNotFoundError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RunFailed as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        code = EXIT_FAIL
    print(f"runtime {time.perf_counter() - start:.2f}s")
    return code


if __name__ == "__main__":
    sys.exit(main())
