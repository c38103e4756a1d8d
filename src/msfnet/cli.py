"""Command-line interface.

Subcommands: ``msf grid``, ``msf interval``, ``design weighted|binary|matching``,
``sweep norm``, ``verify``, ``prob stability``.  Every file is written
atomically (temp file + rename) and a ``run-manifest.txt`` beside ``--out``,
else ``--report``, records the full flag set and library versions, so identical
invocations produce byte-identical artifacts.  ``main`` loads the model, runs
the handler and writes the manifest; a run that fails writes no manifest.

Exit codes: 0 success; 1 infeasible/unstable verdict (outputs still
written); 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .design import design_binary, design_matching, design_weighted, norm_sweep
from .errors import BadParameter, DimensionMismatch, Infeasible, MsfnetError, NoStableInterval, TimedOut
from .graphs import _parse_spec, adjacency_csv_text, custom_network, network_from_spec
from .model import PlantModel, load_model_config
from .msf import sigma_grid, stable_interval
from .verify import build_closed_loop, simulate, spectral_verdict, stability_probability

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------

# flags whose values may start with '-' (ranges like -10:10, negative
# eigenvalues); fused with '=' so argparse does not mistake them for options
_VALUE_FLAGS = {"--lambda", "--mu", "--n"}


def _fuse_value_flags(argv: list[str]) -> list[str]:
    fused, i = [], 0
    while i < len(argv):
        token = argv[i]
        if token in _VALUE_FLAGS and i + 1 < len(argv):
            fused.append(token + "=" + argv[i + 1])
            i += 2
        else:
            fused.append(token)
            i += 1
    return fused


def _parse_range(text: str, cast=float) -> tuple:
    parts = text.split(":")
    if len(parts) != 2:
        raise BadParameter(f"range must be 'low:high', got {text!r}")
    try:
        return cast(parts[0]), cast(parts[1])
    except ValueError as exc:
        raise BadParameter(f"range must be {cast.__name__} 'low:high', got {text!r}") from exc


def _eigenvalue(text: str) -> float | complex:
    """A plant eigenvalue: a float, or a complex ``a+bj`` when b is nonzero."""
    try:
        value = complex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number such as 7 or 3+1j, "
                                         f"got {text!r}") from None
    return value.real if value.imag == 0 else value


def _load_network(value: str, *, coupling: float = 1.0):
    """A network argument is a kind spec, a bare CSV path, or file:PATH."""
    if ":" in value:
        return network_from_spec(value, coupling=coupling)
    return network_from_spec(f"file:{value}", coupling=coupling)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _atomic_write(path, text: str) -> None:
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(target.parent or "."),
                               prefix=target.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_manifest(args: argparse.Namespace, primary_out) -> None:
    import scipy
    directory = Path(primary_out).parent
    skip = {"func", "command", "subcommand"}
    command = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
    lines = [f"command = {command}"]
    for key in sorted(vars(args)):
        if key in skip:
            continue
        lines.append(f"flag.{key} = {getattr(args, key)}")
    lines.append(f"version.msfnet = {__version__}")
    lines.append(f"version.numpy = {np.__version__}")
    lines.append(f"version.python = {sys.version.split()[0]}")
    lines.append(f"version.scipy = {scipy.__version__}")
    _atomic_write(directory / "run-manifest.txt", "\n".join(lines) + "\n")


def _print_report(report: dict, path=None) -> None:
    """Print the JSON report and, given a path, write the same text there."""
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if path:
        _atomic_write(path, text + "\n")


def _gains_for_report(gains) -> list:
    if gains is None:
        return []
    if np.iscomplexobj(gains):
        return [[float(g.real), float(g.imag)] for g in gains]
    return [float(g) for g in gains]


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_msf_grid(args: argparse.Namespace, model: PlantModel) -> int:
    lams, mus, values = sigma_grid(model, _parse_range(args.lam), _parse_range(args.mu), args.steps)
    lines = ["lambda,mu,sigma"]
    lines += [f"{lam},{mu},{value}" for lam, row in zip(lams.tolist(), values.tolist())
              for mu, value in zip(mus.tolist(), row)]
    _atomic_write(args.out, "\n".join(lines) + "\n")
    print(f"wrote {values.size} grid points to {args.out} "
          f"(sigma range [{values.min():.6g}, {values.max():.6g}])")
    return EXIT_OK


def _cmd_msf_interval(args: argparse.Namespace, model: PlantModel) -> int:
    rows = ["lambda_re,lambda_im,f_l,f_u"]
    exit_code = EXIT_OK
    for lam in args.lam:
        try:
            iv = stable_interval(model, lam)
        except NoStableInterval as exc:
            print(f"lambda={lam}: no stable interval ({exc})")
            rows.append(f"{lam.real},{lam.imag},nan,nan")
            exit_code = EXIT_VERDICT
            continue
        print(f"lambda={lam}: stable mu interval [{iv.lower}, {iv.upper}]")
        rows.append(f"{lam.real},{lam.imag},{iv.lower},{iv.upper}")
    if args.out:
        _atomic_write(args.out, "\n".join(rows) + "\n")
    return exit_code


def _cmd_design(args: argparse.Namespace, model: PlantModel) -> int:
    network = _load_network(args.network, coupling=args.coupling)
    report: dict = {"method": args.method, "network": args.network, "N": network.size}
    try:
        if args.method == "weighted":
            result = design_weighted(model, network, args.margin)
        elif args.method == "binary":
            result = design_binary(model, network, symmetric=args.symmetric,
                                   time_limit=args.time_limit)
        else:
            result = design_matching(model, network)
    except (Infeasible, TimedOut) as exc:
        report.update(status="infeasible", detail=str(exc))
        _print_report(report, args.report)
        return EXIT_VERDICT

    report.update(
        status="ok",
        frobenius_norm=result.frobenius_norm,
        links=result.links,
        margin=result.margin,
        mode_gains=_gains_for_report(result.mode_gains),
        verified=result.verified,
        max_real_part=result.max_real_part,
        optimal=result.optimal,
    )
    if args.method == "weighted":
        report["trace"] = float(np.trace(result.feedback))
    if args.method == "matching":
        report["matching_residual"] = result.matching_residual
        report["matching_exact"] = result.matching_residual <= 1e-9

    _print_report(report, args.report)
    if args.out:
        _atomic_write(args.out, adjacency_csv_text(result.feedback))
    return EXIT_OK if result.verified else EXIT_VERDICT


def _cmd_sweep_norm(args: argparse.Namespace, model: PlantModel) -> int:
    rows = norm_sweep(model, args.family, _parse_range(args.n, int),
                      margin=args.margin, coupling=args.coupling)
    lines = ["N,weighted_norm,matching_norm,status"]
    lines += [f"{r.N},{r.weighted_norm},{r.matching_norm},{r.status}" for r in rows]
    _atomic_write(args.out, "\n".join(lines) + "\n")
    bad = sum(1 for r in rows if r.status != "ok")
    print(f"wrote {len(rows)} sweep rows to {args.out} ({bad} infeasible or unverified)")
    return EXIT_VERDICT if bad else EXIT_OK


def _parse_x0(spec: str, size: int) -> np.ndarray:
    if spec == "ones":
        return np.ones(size)
    kind, _, seed = spec.partition(":")
    if kind == "random" and seed.isdecimal():
        return np.random.default_rng(int(seed)).standard_normal(size)
    raise BadParameter(f"x0 must be 'ones' or 'random:SEED' with SEED >= 0, got {spec!r}")


def _cmd_verify(args: argparse.Namespace, model: PlantModel) -> int:
    plant = _load_network(args.plant)
    if args.feedback == "zero":
        feedback = custom_network(np.zeros((plant.size, plant.size)))
    else:
        feedback = _load_network(args.feedback)
    system = build_closed_loop(model, plant, feedback)
    verdict = spectral_verdict(system)
    report = {
        "N": system.N,
        "n": system.n,
        "max_real_part": verdict.max_real_part,
        "stable": verdict.stable,
    }

    if args.simulate:
        x0 = _parse_x0(args.x0, system.N * system.n)
        result = simulate(system, x0, args.t_end, args.dt)
        report["diverged"] = result.diverged
        report["final_norm"] = float(np.linalg.norm(result.x[-1]))
        report["final_time"] = float(result.t[-1])
        if args.out:
            header = "t," + ",".join(f"x_{i + 1}" for i in range(system.N * system.n))
            lines = [header]
            # row by row: one .tolist() of the whole trajectory would hold
            # every entry as a Python float at once
            lines += [f"{t}," + ",".join(map(str, x.tolist()))
                      for t, x in zip(result.t.tolist(), result.x)]
            _atomic_write(args.out, "\n".join(lines) + "\n")

    _print_report(report)
    return EXIT_OK if verdict.stable else EXIT_VERDICT


def _cmd_prob_stability(args: argparse.Namespace, model: PlantModel) -> int:
    estimate = stability_probability(
        model, args.family, args.trials, args.designer, seed=args.seed,
        margin=args.margin)
    p_value = _parse_spec(args.family, omit="seed")[1]["p"]
    report = {
        "family": args.family,
        "trials": estimate.trials,
        "stable_fraction": estimate.fraction,
        "ci_low": estimate.ci_low,
        "ci_high": estimate.ci_high,
        "stable_count": estimate.stable_count,
    }
    _print_report(report)
    if args.out:
        lines = ["p,trials,stable_fraction,ci_low,ci_high",
                 f"{p_value},{estimate.trials},{estimate.fraction},"
                 f"{estimate.ci_low},{estimate.ci_high}"]
        _atomic_write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msfnet",
        description="Stability analysis and minimal-norm feedback design "
                    "for networks of identical LTI plants.")
    parser.add_argument("--version", action="version", version=f"msfnet {__version__}")
    top = parser.add_subparsers(dest="command", metavar="COMMAND")
    with_model = argparse.ArgumentParser(add_help=False)
    with_model.add_argument("--model", required=True, help="model config file")

    msf = top.add_parser("msf", help="stability function evaluation")
    msf_sub = msf.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    grid = msf_sub.add_parser("grid", parents=[with_model],
                              help="evaluate sigma over a (lambda, mu) grid")
    grid.add_argument("--lambda", dest="lam", required=True, help="lambda range low:high")
    grid.add_argument("--mu", required=True, help="mu range low:high")
    grid.add_argument("--steps", type=int, default=101, help="grid steps per axis")
    grid.add_argument("--out", required=True, help="output CSV (lambda,mu,sigma)")
    grid.set_defaults(func=_cmd_msf_grid)

    interval = msf_sub.add_parser("interval", parents=[with_model],
                                  help="stable mu interval per mode")
    interval.add_argument("--lambda", dest="lam", type=_eigenvalue, required=True,
                          action="append", help="plant eigenvalue, real or a+bj (repeatable)")
    interval.add_argument("--out", help="optional CSV output")
    interval.set_defaults(func=_cmd_msf_interval)

    design = top.add_parser("design", help="synthesize a feedback network")
    design_sub = design.add_subparsers(dest="subcommand", metavar="METHOD")
    for method in ("weighted", "binary", "matching"):
        sub = design_sub.add_parser(method, parents=[with_model], help=f"{method} design")
        sub.add_argument("--network", required=True,
                         help="plant network: complete:N | ring:N:k | er:N:p:seed | CSV path")
        sub.add_argument("--coupling", type=float, default=1.0,
                         help="scale factor folded into the plant network")
        sub.add_argument("--out", help="adjacency CSV for the designed network")
        sub.add_argument("--report", help="optional JSON report path")
        if method == "weighted":
            sub.add_argument("--margin", type=float, default=0.01,
                             help="interior stability margin (default 0.01)")
        if method == "binary":
            sub.add_argument("--symmetric", action="store_true",
                             help="restrict to symmetric feedback")
            sub.add_argument("--time-limit", type=float, default=60.0,
                             help="branch-and-bound budget in seconds")
        sub.set_defaults(func=_cmd_design, method=method)

    sweep = top.add_parser("sweep", help="design comparisons over network size")
    sweep_sub = sweep.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    norm = sweep_sub.add_parser("norm", parents=[with_model],
                                help="weighted vs matching Frobenius norms")
    norm.add_argument("--family", required=True, help="complete | ring:k | er:p:seed")
    norm.add_argument("--n", required=True, help="inclusive size range low:high")
    norm.add_argument("--margin", type=float, default=0.01)
    norm.add_argument("--coupling", type=float, default=1.0)
    norm.add_argument("--out", required=True, help="output CSV")
    norm.set_defaults(func=_cmd_sweep_norm)

    verify = top.add_parser("verify", parents=[with_model],
                            help="full-spectrum verdict for given networks")
    verify.add_argument("--plant", required=True, help="plant network spec or CSV path")
    verify.add_argument("--feedback", required=True,
                        help="feedback network spec, CSV path, or 'zero'")
    verify.add_argument("--simulate", action="store_true",
                        help="also simulate the closed loop")
    verify.add_argument("--t-end", type=float, default=10.0)
    verify.add_argument("--dt", type=float, default=None,
                        help="sample step (default 1e-3 / spectral radius)")
    verify.add_argument("--x0", default="ones", help="'ones' or 'random:SEED'")
    verify.add_argument("--out", help="trajectory CSV when simulating")
    verify.set_defaults(func=_cmd_verify)

    prob = top.add_parser("prob", help="Monte Carlo studies")
    prob_sub = prob.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    stab = prob_sub.add_parser("stability", parents=[with_model],
                               help="stability probability over random networks")
    stab.add_argument("--family", required=True, help="er:N:p")
    stab.add_argument("--trials", type=int, required=True)
    stab.add_argument("--seed", type=int, required=True,
                      help="master seed; trial k uses seed + k")
    stab.add_argument("--designer", default="weighted",
                      choices=("weighted", "binary", "matching"))
    stab.add_argument("--margin", type=float, default=0.01)
    stab.add_argument("--out", help="output CSV")
    stab.set_defaults(func=_cmd_prob_stability)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_fuse_value_flags(argv))
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        code = args.func(args, load_model_config(args.model))
        primary = args.out or getattr(args, "report", None)
        if primary:
            _write_manifest(args, primary)
        return code
    except (BadParameter, DimensionMismatch, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MsfnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERDICT


if __name__ == "__main__":
    sys.exit(main())
