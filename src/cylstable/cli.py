"""Command-line front end.

Subcommands: constants | sample | noise | integrate | solve | glue | tail
| moment | picard | uniqueness | gronwall | check-model | gof.

Each subcommand declares its options once, as ``key -> (caster, default)``;
the flags (``--key-with-dashes``), the keys accepted by the optional flat
key=value ``--config`` file and the keys of every artifact header all come
from that table.  Flags override the config file, which overrides the
defaults; unknown config keys and malformed values are usage errors.  A
subcommand with modes also names the keys that only some of its modes read:
such a key is refused in the other modes and never reaches a header there.
Each handler imports the modules it calls, and each experiment of
:mod:`cylstable.experiments` the solver modules it calls, so a command
loads only those.

Exit codes: 0 all verdicts pass, 1 verdict failure (or a solved path that
fails its certificate), 2 usage error (an input file that cannot be read
included), 3 inconclusive (under-resolved) experiment; a failed verdict
outranks an inconclusive one.  A run's wall time goes to stdout, never into
an artifact.  Every CSV artifact is one :func:`reporting.write_csv` call: the
``# `` header, a column line, then one row per step or grid time, so
``noise.csv`` holds ``t_start,t_end,x_1..x_m`` rows and ``mild_path.csv`` and
``glued_path.csv`` hold ``t,x_1..x_n`` rows, with nothing after them.
``--seed`` is mandatory for every stochastic subcommand: there is no silent
entropy.  A seed is an integer in [0, 2**32), the first word of
every stream name (see :mod:`cylstable.rng`); any other value is a usage
error.  Outputs are byte-identical across identical invocations.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable

# no call is large enough for an OpenBLAS thread pool; its idle workers spin on a second core
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402  (after the thread setting, which numpy reads on import)

from . import __version__
from .reporting import (
    RunFailed,
    format_value,
    parse_key_values,
    write_csv,
    write_report,
    write_summary,
)
from .rng import stream_word, substream

if TYPE_CHECKING:  # annotations only; the handlers import what they call
    from .experiments import ExperimentReport

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


class UsageError(Exception):
    pass


# subcommand name -> (handler, spec, mode, only); the spec maps each option key to
# (caster, default), mode(resolved) names the active mode, and only maps a mode to the
# keys that only it reads (a key that no mode lists is read by every mode)
_COMMANDS: dict[str, tuple[Callable[[dict], int], dict[str, tuple], Callable, dict]] = {}


def _command(name: str, spec: dict[str, tuple], mode: Callable[[dict], str] = lambda _: "",
             only: dict[str, tuple[str, ...]] | None = None):
    def register(handler):
        _COMMANDS[name] = (handler, spec, mode, only or {})
        return handler
    return register


def _flag(key: str) -> str:
    return f"--{key.replace('_', '-')}"


def _given(key: str) -> Callable[[dict], str]:
    """The mode of a command whose option ``key`` switches it on when given."""
    return lambda resolved: f"{'without' if resolved[key] is None else 'with'} {_flag(key)}"


def _read_file(key: str, path: str) -> bytes:
    """The bytes of the file that option ``key`` names; one that cannot be read is a usage error."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise UsageError(f"{_flag(key)} {path}: {exc.strerror or exc}") from None


def _resolve(args: argparse.Namespace, spec: dict[str, tuple], mode: Callable[[dict], str],
             only: dict[str, tuple[str, ...]]) -> dict:
    """Layer resolution: built-in default < config file < explicit flag, one caster for both.

    A key that only other modes read is refused if set, and left out of the result,
    so that the headers record what was read and nothing else.
    """
    raw: dict[str, str] = {}
    if args.config is not None:
        raw = parse_key_values(_read_file("config", args.config).decode("utf-8"), spec, "config")
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
    active = mode(resolved)
    modal = {key for keys in only.values() for key in keys}.difference(only.get(active, ()))
    for key in filter(modal.__contains__, spec):  # in spec order: one argv, one message
        if key in raw:
            raise UsageError(f"{_flag(key)} is not read {active}")
        del resolved[key]
    return resolved


def _require(resolved: dict, *keys: str) -> None:
    for key in keys:
        if resolved.get(key) is None:
            raise UsageError(f"{_flag(key)} is required for this subcommand")


def _seed(text: str) -> int:
    """A master seed: the first word of every stream name, an integer in [0, 2**32)."""
    return stream_word(int(text))


def _parse_floats(text: str) -> tuple[float, ...]:
    """A comma-separated list of at least one number; empty items are skipped."""
    values = tuple(float(x) for x in text.split(",") if x != "")
    if not values:
        raise ValueError("needs at least one number")
    return values


def _choice(*names: str) -> Callable[[str], str]:
    """A caster that accepts only ``names``."""
    def cast(text: str) -> str:
        if text not in names:
            raise ValueError(f"not one of {' | '.join(names)}")
        return text
    return cast


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


def _grid(resolved: dict) -> np.ndarray:
    """np.linspace(0, T, M + 1), refusing a T that is not positive and finite.

    The refusal comes first: the grid's arithmetic on such a T prints numpy's warnings.
    """
    if not 0.0 < resolved["T"] < np.inf:
        raise UsageError(f"--T must be positive and finite, got {resolved['T']}")
    return np.linspace(0.0, resolved["T"], resolved["M"] + 1)


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
    "kind": (_choice("sas", "positive", "isotropic"), "sas"), "alpha": (float, None),
    "scale": (float, 1.0), "n": (int, 1), "N": (int, 10000), "seed": (_seed, None),
    "out": (str, "."),
}, mode=lambda r: f"with --kind {r['kind']}",
   only={"with --kind sas": ("scale",), "with --kind isotropic": ("n",)})
def cmd_sample(resolved: dict) -> int:
    from .sampling import AlphaParams, sample_isotropic, sample_positive_stable, sample_scalar_sas

    _require(resolved, "alpha", "seed")
    alpha, seed, size = resolved["alpha"], resolved["seed"], resolved["N"]
    if resolved["kind"] == "sas":
        cols = {"x": sample_scalar_sas(AlphaParams(alpha, resolved["scale"]), seed, size=size)}
    elif resolved["kind"] == "positive":
        cols = {"x": sample_positive_stable(alpha / 2.0, seed, size=size)}
    else:
        draws = sample_isotropic(alpha, resolved["n"], seed, size=size)
        cols = {f"x_{j + 1}": draws[:, j] for j in range(resolved["n"])}
    out = _out_dir(resolved)
    write_csv(out / "samples.csv", cols, resolved)
    print(f"wrote {out / 'samples.csv'} ({resolved['N']} draws)")
    return EXIT_PASS


@_command("noise", {
    "alpha": (float, None), "m": (int, 1), "T": (float, 1.0), "M": (int, 100),
    "seed": (_seed, None), "out": (str, "."),
})
def cmd_noise(resolved: dict) -> int:
    from .sampling import generate_noise_path

    _require(resolved, "alpha", "seed")
    grid = _grid(resolved)
    path = generate_noise_path(resolved["alpha"], resolved["m"], grid, resolved["seed"])
    out = _out_dir(resolved)
    write_csv(out / "noise.csv", path.columns(), resolved)
    print(f"wrote {out / 'noise.csv'} ({path.steps} steps x {path.m} coordinates)")
    return EXIT_PASS


# integrate's time profiles: the integrand is Psi(s) = profile(s) * diag(gamma)
_PROFILES = {"const": np.ones_like, "linear": lambda s: s}


@_command("integrate", {
    "alpha": (float, None), "gamma": (_parse_floats, (1.0,)),
    "profile": (_choice(*_PROFILES), "const"), "T": (float, 1.0), "M": (int, 100),
    "seed": (_seed, None), "out": (str, "."), "refinement_levels": (int, None),
    "replicas": (int, 2000), "epsilon": (float, 0.02),
}, mode=_given("refinement_levels"), only={"with --refinement-levels": ("replicas", "epsilon")})
def cmd_integrate(resolved: dict) -> int:
    from .hilbert import HSMatrix
    from .integral import StepIntegrand, integrate, refinement_experiment
    from .sampling import generate_noise_path

    _require(resolved, "alpha", "seed")
    profile = _PROFILES[resolved["profile"]]
    gamma = np.asarray(resolved["gamma"], dtype=float)
    grid = _grid(resolved)
    psi = HSMatrix.diagonal(gamma)

    if resolved["refinement_levels"] is not None:
        result = refinement_experiment(profile, psi, resolved["alpha"], resolved["T"],
                                       resolved["M"], resolved["refinement_levels"],
                                       resolved["replicas"], resolved["epsilon"], resolved["seed"])
        out = _out_dir(resolved)
        write_csv(out / "refinement.csv", result["table"], resolved)
        write_summary(out / "refinement.summary", {"monotone": result["monotone"],
                                                   "replicas": result["replicas"]}, resolved)
        print(f"wrote {out / 'refinement.csv'} (monotone={result['monotone']})")
        return EXIT_PASS if result["monotone"] else EXIT_FAIL

    integrand = StepIntegrand(grid, profile(grid[:-1])[:, None, None] * psi.entries)
    noise = generate_noise_path(resolved["alpha"], gamma.size, grid, resolved["seed"])
    path = integrate(integrand, noise)
    out = _out_dir(resolved)
    cols = {"t": grid}
    cols.update({f"coord_{j + 1}": path[:, j] for j in range(path.shape[1])})
    write_csv(out / "integral.csv", cols, resolved)
    print(f"wrote {out / 'integral.csv'}")
    return EXIT_PASS


# the keys _model_from reads; a model file defines the preset's n
_MODEL_SPEC = {"preset": (_choice("heat"), "heat"), "model_config": (str, None), "n": (int, 8)}
_MODEL_MODE = {"mode": _given("model_config"), "only": {"without --model-config": ("preset", "n")}}
# solver options shared by solve, glue, picard and uniqueness; each adds its horizon key
_SOLVER_SPEC = {
    "alpha": (float, 1.5), **_MODEL_SPEC, "m": (int, None), "M": (int, 200),
    "seed": (_seed, None), "out": (str, "."), "x0": (_parse_floats, None),
}


def _model_from(resolved: dict):
    """The preset or model file; an explicit ``m`` overrides the file's noise dimension.

    ``n`` (and ``m``, where the command takes it) of ``resolved`` become the
    dimensions solved, and a model file's content is recorded as
    ``model_sha256``, so every artifact header pins the problem solved, not
    only the file's path.
    """
    from .hilbert import heat_preset, parse_model_config

    m = resolved.get("m")
    if resolved["model_config"] is not None:
        import hashlib  # here, not at the top: it maps OpenSSL into every command

        content = _read_file("model_config", resolved["model_config"])
        resolved["model_sha256"] = hashlib.sha256(content).hexdigest()
        model = parse_model_config(content.decode("utf-8"))
        if m is not None:
            model = replace(model, m=m)
    else:
        model = heat_preset(n=resolved["n"], m=m)
    resolved["n"] = model.n
    if "m" in resolved:
        resolved["m"] = model.noise_dim
    return model


def _solver_setup(resolved: dict, horizon: str = "T") -> tuple:
    """Model and solver config; a horizon left unset is 0.9 T_bound (picard, uniqueness)."""
    from .picard import SolverConfig, binding_time_bound

    _require(resolved, "seed")
    model = _model_from(resolved)
    if resolved[horizon] is None:
        resolved[horizon] = 0.9 * binding_time_bound(model, resolved["alpha"])
    return model, SolverConfig(alpha=resolved["alpha"], T=resolved[horizon], M=resolved["M"],
                               n=model.n, m=model.m, seed=resolved["seed"], x0=resolved["x0"])


@_command("solve", {**_SOLVER_SPEC, "T": (float, None)}, **_MODEL_MODE)
def cmd_solve(resolved: dict) -> int:
    from .picard import binding_time_bound, solve

    _require(resolved, "T", "seed")
    model, config = _solver_setup(resolved)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            path = solve(model, config)
        finally:  # a failing solve keeps its warnings too
            for warning in caught:
                print(f"warning: {warning.message}", file=sys.stderr)
    out = _out_dir(resolved)
    write_csv(out / "mild_path.csv", path.columns(), resolved)
    write_summary(out / "mild_path.summary", {
        "residual": path.residual, "T_bound": binding_time_bound(model, config.alpha)}, resolved)
    print(f"solved, residual={path.residual:.3e}")
    return EXIT_PASS


@_command("glue", {**_SOLVER_SPEC, "T_total": (float, None)}, **_MODEL_MODE)
def cmd_glue(resolved: dict) -> int:
    from .picard import glue_solve

    _require(resolved, "T_total", "seed")
    model, config = _solver_setup(resolved, "T_total")
    path = glue_solve(model, config)
    out = _out_dir(resolved)
    write_csv(out / "glued_path.csv", path.columns(), resolved)
    entries = {"pieces": len(path.piece_residuals), "residual": path.residual}
    for i, res in enumerate(path.piece_residuals):
        entries[f"piece_residual.{i}"] = res
    write_summary(out / "glued_path.summary", entries, resolved)
    print(f"glued {len(path.piece_residuals)} pieces, worst residual {path.residual:.3e}")
    return EXIT_PASS


@_command("tail", {
    "alpha": (float, None), "t": (float, 1.0), "gamma": (_parse_floats, (1.0,)),
    "N": (int, 100_000), "r_min": (float, 10.0), "r_max": (float, 100.0),
    "r_count": (int, 13), "seed": (_seed, None), "out": (str, "."),
    "integrand": (_choice("const"), None), "M": (int, 16), "T": (float, 1.0),
}, mode=_given("integrand"),
   only={"without --integrand": ("t",), "with --integrand": ("M", "T")})
def cmd_tail(resolved: dict) -> int:
    from .experiments import tail_experiment
    from .hilbert import HSMatrix
    from .integral import constant_integrand

    _require(resolved, "alpha", "seed")
    psi = HSMatrix.diagonal(np.asarray(resolved["gamma"], dtype=float))
    if resolved["integrand"]:
        psi = constant_integrand(psi, _grid(resolved))
    # an integrand's own grid sets its horizon: only the operator mode resolves, and reads, t
    report = tail_experiment(psi, resolved["alpha"], t=resolved.get("t", 1.0),
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
        # the benchmark's 0.5, 0.7 at alpha = 1.5, scaled: both below alpha/2, so both judged
        resolved["p_list"] = (resolved["alpha"] / 3.0, 7.0 * resolved["alpha"] / 15.0)
    grid = _grid(resolved)
    integrand = constant_integrand(HSMatrix.diagonal(np.asarray(resolved["gamma"])), grid)
    report = moment_experiment(integrand, resolved["alpha"], resolved["p_list"], resolved["N"],
                               seed=resolved["seed"])
    return _report_exit(report, Path(resolved["out"]), resolved)


@_command("picard", {**_SOLVER_SPEC, "T": (float, None), "iters": (int, 8), "p": (float, 1.0),
                     "replicas": (int, 200)}, **_MODEL_MODE)
def cmd_picard(resolved: dict) -> int:
    from .experiments import picard_convergence_experiment

    model, config = _solver_setup(resolved)
    report = picard_convergence_experiment(model, config, n_iters=resolved["iters"],
                                           p=resolved["p"], replicas=resolved["replicas"],
                                           seed=resolved["seed"])
    return _report_exit(report, Path(resolved["out"]), resolved)


@_command("uniqueness", {**_SOLVER_SPEC, "T": (float, None),
                         "replicas": (int, 100)}, **_MODEL_MODE)
def cmd_uniqueness(resolved: dict) -> int:
    from .experiments import uniqueness_experiment

    model, config = _solver_setup(resolved)
    report = uniqueness_experiment(model, config, replicas=resolved["replicas"],
                                   seed=resolved["seed"])
    return _report_exit(report, Path(resolved["out"]), resolved)


_NEAR_EQUALITY_M = 10_000  # its margin is 0 on every grid: the trapezoid is exact for it


@_command("gronwall", {
    "case": (_choice("near-equality", "random"), "near-equality"), "M": (int, 10_000),
    "count": (int, 100), "p": (float, 0.5), "seed": (_seed, None), "out": (str, "."),
    "input": (str, None),
}, mode=lambda r: "with --input" if r["input"] is not None else f"with --case {r['case']}",
   only={"with --input": ("input", "p"), "with --case near-equality": ("case",),
         "with --case random": ("case", "M", "count", "seed")})
def cmd_gronwall(resolved: dict) -> int:
    from .experiments import ExperimentReport, random_hypothesis_triples, willet_wong_check

    case = resolved.get("case")
    if case == "random":
        _require(resolved, "seed")
    parameters = {k: v for k, v in resolved.items() if k not in ("out", "input")}
    report = ExperimentReport("gronwall", parameters, seed=resolved.get("seed", 0))  # 0: no draw
    if case is None:
        text = io.StringIO(_read_file("input", resolved["input"]).decode("utf-8"), newline=None)
        # genfromtxt would take a leading "# ..." line (write_csv's header) for the names
        lines = [line for line in text if not line.startswith("#")]
        data = np.genfromtxt(lines, delimiter=",", names=True)
        result = willet_wong_check(data["u"], data["v"], data["w"], resolved["p"], t=data["t"])
        report.add_verdict("margin_nonnegative", result["holds"],
                           "margin >= -1e-6", f"{result['margin']:.3e}")
    elif case == "near-equality":
        t = np.linspace(0.0, 1.0, _NEAR_EQUALITY_M + 1)
        result = willet_wong_check(t**2 / 4.0, np.zeros_like(t), np.ones_like(t), 0.5, t=t)
        report.add_verdict("near_equality_margin", abs(result["margin"]) < 1e-4,
                           "|margin| < 1e-4", f"{result['margin']:.3e}")
    else:
        results = [willet_wong_check(u, v, w, p, t=t) for t, u, v, w, p in
                   random_hypothesis_triples(resolved["count"], resolved["M"], resolved["seed"])]
        margins = np.array([result["margin"] for result in results])
        report.tables["margins"] = {"trial": np.arange(margins.size), "margin": margins}
        report.add_verdict("margins_nonnegative", all(result["holds"] for result in results),
                           "all margins >= -1e-6", f"min={margins.min():.3e}")
    return _report_exit(report, Path(resolved["out"]), resolved)


@_command("check-model", {
    **_MODEL_SPEC, "deltas": (_parse_floats, (0.25, 0.5, 1.0)), "out": (str, "."),
    "seed": (_seed, 0), "T": (float, 1.0),
}, **_MODEL_MODE)
def cmd_check_model(resolved: dict) -> int:
    from .experiments import ExperimentReport
    from .hilbert import check_A2, check_A3, check_norm_continuity

    deltas = resolved["deltas"]
    if len(set(deltas)) != len(deltas):
        raise UsageError(f"--deltas repeats a value: {format_value(deltas)}")
    model = _model_from(resolved)
    report = ExperimentReport("check_model", {"model": model.name, "n": model.n,
                                              "deltas": deltas}, seed=resolved["seed"])
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
    for name, (_, spec, *_) in _COMMANDS.items():
        sp = sub.add_parser(name, allow_abbrev=False)  # only the flags of the table
        sp.add_argument("--config", help="flat key=value config file")
        for key in spec:
            sp.add_argument(_flag(key), dest=key)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, *table = _COMMANDS[args.command]
    start = time.perf_counter()
    try:
        code = handler(_resolve(args, *table))
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RunFailed as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        code = EXIT_FAIL
    print(f"runtime {time.perf_counter() - start:.2f}s")
    return code


if __name__ == "__main__":
    sys.exit(main())
