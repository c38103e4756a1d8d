"""The benchmark's workloads: inputs made from a seed, the calls into msfnet
that are timed, and independent checks of every output.

Each workload runs its operations as a closed loop with one caller, split
into two tasks (``a`` and ``b``) that are timed separately.  Every library
call is looked up through the ``msfnet`` namespace at call time, so the
tracer's wrappers see it.  Only the interface that survives the planned
interval and verdict rewrites is used: no ``scan_points``, ``tol`` or
``workers`` arguments, no ``--scan``/``--tol`` flags, and grid and
trajectory results are read from the CLI's CSV files.

The checks never pin a scan-plus-bisection artifact (interval endpoints,
Monte Carlo counts): they recompute spectra with numpy/scipy, compare
against stored exhaustive optima, or recount with the library itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg

import msfnet
import msfnet.cli
from exhaustive import BINARY_OPTIMA, closed_loop

#: Relative tolerance for recomputed spectra and norms.
_RTOL = 1e-6
#: Spectra closer than this to the imaginary axis are not judged for sign.
_AXIS_GUARD = 1e-9


class Op(NamedTuple):
    """One timed call: ``call()`` returns a result, ``check(result)`` returns
    a list of problems and ``failed(result)`` flags a failed operation."""

    task: str
    name: str
    call: Callable[[], object]
    check: Callable[[object], list]
    failed: Callable[[object], bool] = lambda result: False


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _close(a: float, b: float, rtol: float = _RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def dense_max_real(F, H, G, B, A) -> float:
    """Largest real part of the full closed-loop spectrum, via numpy only."""
    return float(np.max(np.linalg.eigvals(closed_loop(B, A, F, H, G)).real))


def check_design(model, network, result, *, G=None, must_stabilize: bool) -> list[str]:
    """Dense-spectrum audit of a weighted or matching design, plus the
    identity ||A||_F = ||mode_gains||_2 of a feedback in the plant basis."""
    label = f"{result.method} design on {network.kind} N={network.size}"
    problems = []
    A = np.asarray(result.feedback)
    top = dense_max_real(model.F, model.H, model.G if G is None else G,
                         network.adjacency, A)
    if not _close(top, result.max_real_part):
        problems.append(f"{label}: max real part {result.max_real_part} "
                        f"but the dense spectrum gives {top}")
    if abs(top) > _AXIS_GUARD and result.verified != (top < 0.0):
        problems.append(f"{label}: verified={result.verified} but dense max real part {top}")
    if must_stabilize and not top < 0.0:
        problems.append(f"{label}: dense max real part {top} is not negative")
    fro = float(np.linalg.norm(A, "fro"))
    gains = float(np.linalg.norm(np.asarray(result.mode_gains)))
    if not _close(fro, gains, 1e-9):
        problems.append(f"{label}: ||A||_F = {fro} but ||mode_gains||_2 = {gains}")
    if not _close(fro, result.frobenius_norm, 1e-12):
        problems.append(f"{label}: reported norm {result.frobenius_norm}, actual {fro}")
    return problems


def _design_digest(result) -> str:
    gains = None if result.mode_gains is None else np.asarray(result.mode_gains).tobytes()
    return _digest(np.asarray(result.feedback).tobytes(), gains, result.max_real_part,
                   result.verified, result.optimal)


def _median(values) -> float:
    return float(np.median(values))


class Workload:
    """Base class; subclasses define ``name``, ``setup``, ``ops`` and ``rates``."""

    name = ""
    #: True when the timed work runs in child processes, whose memory is measured.
    in_children = False

    def __init__(self, root: Path, seed: int, workdir: Path, in_process: bool = False):
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.in_process = in_process
        self.config = root / "paper.cfg"

    def setup(self) -> None:
        self.model = msfnet.load_model_config(self.config)

    def warmup(self) -> None:
        pass

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def fingerprint(self, op: Op, result) -> str:
        return _design_digest(result)

    def rates(self, times: dict[str, list[float]]) -> dict[str, tuple[float, str]]:
        """Workload-specific throughput figures from per-round op times."""
        return {}

    def layer_counts(self) -> dict[str, tuple[int, str]]:
        """Counters read from outputs rather than spans."""
        return {"cli.bytes_written": (0, "B"), "verify.simulate.steps": (0, "count")}


class DesignScale(Workload):
    """Weighted and matching designs on a large ring and a seeded ER network."""

    name = "design-scale"

    def setup(self) -> None:
        super().setup()
        self.networks = {"a": msfnet.network_from_spec("ring:384:4"),
                         "b": msfnet.network_from_spec(f"er:128:0.08:{self.seed}")}
        self.matching_G = self.model.R @ np.linalg.lstsq(self.model.R, self.model.H,
                                                         rcond=None)[0]

    def warmup(self) -> None:
        small = msfnet.network_from_spec("ring:16:4")
        msfnet.design_weighted(self.model, small)
        msfnet.design_matching(self.model, small)
        ring = self.networks["a"]
        msfnet.spectral_verdict(msfnet.build_closed_loop(
            self.model, ring, np.zeros((ring.size, ring.size))))

    def ops(self) -> list[Op]:
        ops = []
        for task, net in self.networks.items():
            ops.append(Op(task, f"weighted:{task}",
                          lambda net=net: msfnet.design_weighted(self.model, net),
                          lambda r, net=net: check_design(self.model, net, r,
                                                          must_stabilize=True)))
            ops.append(Op(task, f"matching:{task}",
                          lambda net=net: msfnet.design_matching(self.model, net),
                          lambda r, net=net: check_design(self.model, net, r,
                                                          G=self.matching_G,
                                                          must_stabilize=False)))
        return ops

    def rates(self, times):
        per_round = [2.0 / (a + b) for a, b in zip(times["weighted:a"], times["weighted:b"])]
        return {"weighted_designs_per_s": (_median(per_round), "1/s")}


class McSmall(Workload):
    """Monte Carlo stabilizability over ER:8 networks and a ring norm sweep."""

    name = "mc-small"
    trials = 40
    family = "er:8:0.5"
    sweep = ("ring:4", (5, 30))

    def warmup(self) -> None:
        msfnet.stability_probability(self.model, self.family, 2, seed=self.seed)
        msfnet.norm_sweep(self.model, self.sweep[0], (5, 6))

    def ops(self) -> list[Op]:
        return [
            Op("a", "mc", lambda: msfnet.stability_probability(
                self.model, self.family, self.trials, seed=self.seed), self._check_mc),
            Op("b", "sweep", lambda: msfnet.norm_sweep(self.model, *self.sweep),
               self._check_sweep),
        ]

    def fingerprint(self, op, result) -> str:
        return _digest(result)

    def _check_mc(self, estimate) -> list[str]:
        problems = []
        if estimate.trials != self.trials or not 0 <= estimate.stable_count <= self.trials:
            problems.append(f"monte carlo: bad tally {estimate}")
        if not (0.0 <= estimate.ci_low <= estimate.fraction <= estimate.ci_high <= 1.0
                and estimate.fraction == estimate.stable_count / estimate.trials):
            problems.append(f"monte carlo: inconsistent estimate {estimate}")
        # recount with the designer itself; trial k uses seed + k
        N, p = int(self.family.split(":")[1]), float(self.family.split(":")[2])
        recount = 0
        for trial in range(self.trials):
            network = msfnet.make_network("er", N, p=p, seed=self.seed + trial)
            try:
                design = msfnet.design_weighted(self.model, network)
            except (msfnet.Infeasible, msfnet.NoStableInterval, msfnet.NumericalFailure):
                continue
            problems += check_design(self.model, network, design, must_stabilize=False)
            recount += bool(design.verified)
        if recount != estimate.stable_count:
            problems.append(f"monte carlo: {estimate.stable_count} stable trials reported, "
                            f"{recount} on recount")
        return problems

    def _check_sweep(self, rows) -> list[str]:
        family, (lo, hi) = self.sweep
        k = int(family.split(":")[1])
        problems = []
        if [r.N for r in rows] != list(range(lo, hi + 1)):
            return [f"sweep: sizes {[r.N for r in rows]}"]
        for row in rows:
            network = msfnet.make_network("ring", row.N, k=k)
            if not _close(row.matching_norm, math.sqrt(k * row.N), 1e-12):
                problems.append(f"sweep N={row.N}: matching norm {row.matching_norm}")
            try:
                design = msfnet.design_weighted(self.model, network)
            except msfnet.Infeasible:
                if row.status != "infeasible" or not math.isnan(row.weighted_norm):
                    problems.append(f"sweep N={row.N}: infeasible on recheck, row {row}")
                continue
            if row.status != "ok" or not _close(row.weighted_norm, design.frobenius_norm, 1e-12):
                problems.append(f"sweep N={row.N}: row {row}, design norm "
                                f"{design.frobenius_norm}")
            problems += check_design(self.model, network, design, must_stabilize=True)
        return problems

    def rates(self, times):
        sizes = self.sweep[1][1] - self.sweep[1][0] + 1
        return {
            "mc_trials_per_s": (_median([self.trials / t for t in times["mc"]]), "1/s"),
            "sweep_sizes_per_s": (_median([sizes / t for t in times["sweep"]]), "1/s"),
        }


class BinaryBnb(Workload):
    """Exact branch and bound on the two paper-sized binary instances."""

    name = "binary-bnb"

    def setup(self) -> None:
        super().setup()
        self.networks = {"a": ("ring:6:4", msfnet.network_from_spec("ring:6:4")),
                         "b": ("complete:6", msfnet.network_from_spec("complete:6"))}

    def warmup(self) -> None:
        msfnet.design_binary(self.model, msfnet.network_from_spec("complete:3"), symmetric=True)

    def ops(self) -> list[Op]:
        return [Op(task, f"binary:{task}",
                   lambda net=net: msfnet.design_binary(self.model, net, symmetric=True),
                   lambda r, spec=spec, net=net: self._check(spec, net, r),
                   lambda r: not r.optimal)
                for task, (spec, net) in self.networks.items()]

    def _check(self, spec, network, result) -> list[str]:
        problems = []
        A = np.asarray(result.feedback)
        if result.optimal and int(A.sum()) != BINARY_OPTIMA[spec]:
            problems.append(f"binary {spec}: {int(A.sum())} links, exhaustive optimum "
                            f"{BINARY_OPTIMA[spec]}")
        if not (np.isin(A, (0.0, 1.0)).all() and np.array_equal(A, A.T)
                and not np.diag(A).any()):
            problems.append(f"binary {spec}: feedback is not a symmetric 0/1 off-diagonal matrix")
        top = dense_max_real(self.model.F, self.model.H, self.model.G, network.adjacency, A)
        if not top < 0.0 or not _close(top, result.max_real_part):
            problems.append(f"binary {spec}: dense max real part {top}, "
                            f"reported {result.max_real_part}")
        return problems

    def rates(self, times):
        totals = [a + b for a, b in zip(times["binary:a"], times["binary:b"])]
        return {"binary_time_to_optimal_s": (_median(totals), "s")}


class CliAnalysis(Workload):
    """``msf grid`` and ``verify --simulate`` as whole CLI processes."""

    name = "cli-analysis"
    in_children = True
    steps = 201
    window = (-10.0, 10.0)
    plant = "complete:16"
    t_end = 10.0

    def setup(self) -> None:
        super().setup()
        network = msfnet.network_from_spec(self.plant)
        feedback = msfnet.design_weighted(self.model, network).feedback
        self.feedback_csv = self.workdir / "feedback.csv"
        self.feedback_csv.write_text(msfnet.adjacency_csv_text(feedback))
        self.B = network.adjacency
        self.bytes_written: dict[str, int] = {}
        self.sim_steps = 0

    def _argv(self, op: str) -> list[str]:
        span = f"{self.window[0]}:{self.window[1]}"
        if op == "grid":
            return ["msf", "grid", "--model", str(self.config), "--lambda", span,
                    "--mu", span, "--steps", str(self.steps),
                    "--out", str(self.workdir / "grid.csv")]
        return ["verify", "--model", str(self.config), "--plant", self.plant,
                "--feedback", str(self.feedback_csv), "--simulate",
                "--t-end", str(self.t_end), "--x0", f"random:{self.seed}",
                "--out", str(self.workdir / "traj.csv")]

    def _cli(self, argv: list[str]) -> int:
        if self.in_process:
            with contextlib.redirect_stdout(io.StringIO()):
                return msfnet.cli.main(argv)
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        return subprocess.run([sys.executable, "-m", "msfnet", *argv], cwd=self.workdir,
                              env=env, stdout=subprocess.DEVNULL, timeout=150,
                              check=False).returncode

    def warmup(self) -> None:
        if self.in_process:
            argv = self._argv("grid")
            argv[argv.index("--steps") + 1] = "3"
            self._cli(argv)

    def ops(self) -> list[Op]:
        return [
            Op("a", "grid", lambda: self._cli(self._argv("grid")),
               self._check_grid, lambda code: code != 0),
            Op("b", "verify", lambda: self._cli(self._argv("verify")),
               self._check_traj, lambda code: code != 0),
        ]

    def fingerprint(self, op, result) -> str:
        out = self.workdir / ("grid.csv" if op.name == "grid" else "traj.csv")
        return _digest(result, out.read_bytes() if out.exists() else b"")

    def _record_bytes(self, op: str, out: Path) -> None:
        manifest = self.workdir / "run-manifest.txt"
        self.bytes_written[op] = out.stat().st_size + manifest.stat().st_size

    def _check_grid(self, code) -> list[str]:
        out = self.workdir / "grid.csv"
        if code != 0 or not out.exists():
            return [f"msf grid: exit code {code}"]
        self._record_bytes("grid", out)
        lines = out.read_text().splitlines()
        if lines[0] != "lambda,mu,sigma" or len(lines) != 1 + self.steps ** 2:
            return [f"msf grid: header {lines[0]!r}, {len(lines) - 1} rows"]
        axis = np.linspace(*self.window, self.steps)
        rng = np.random.default_rng(self.seed)
        F, H, G = self.model.F, self.model.H, self.model.G
        problems = []
        for index in rng.choice(self.steps ** 2, size=256, replace=False):
            lam, mu, value = (float(x) for x in lines[1 + index].split(","))
            expect = float(np.max(np.linalg.eigvals(F + lam * H + mu * G).real))
            if not (_close(lam, axis[index // self.steps], 1e-12)
                    and _close(mu, axis[index % self.steps], 1e-12)
                    and _close(value, expect, 1e-9)):
                problems.append(f"msf grid row {index + 1}: {lines[1 + index]}, "
                                f"expected sigma {expect}")
        return problems

    def _check_traj(self, code) -> list[str]:
        out = self.workdir / "traj.csv"
        if code != 0 or not out.exists():
            return [f"verify: exit code {code}"]
        self._record_bytes("verify", out)
        lines = out.read_text().splitlines()
        self.sim_steps = len(lines) - 2
        first = np.array([float(x) for x in lines[1].split(",")])
        last = np.array([float(x) for x in lines[-1].split(",")])
        A = np.loadtxt(self.feedback_csv, delimiter=",")
        Ftilde = closed_loop(self.B, A, self.model.F, self.model.H, self.model.G)
        t_final, x0, x_final = last[0], first[1:], last[1:]
        expect = scipy.linalg.expm(Ftilde * t_final) @ x0
        error = float(np.linalg.norm(x_final - expect))
        problems = []
        if first[0] != 0.0 or not self.t_end - 1e-2 < t_final <= self.t_end:
            problems.append(f"verify: trajectory spans t={first[0]}..{t_final}")
        if error > _RTOL * float(np.linalg.norm(x0)):
            problems.append(f"verify: final state differs from expm by {error}")
        return problems

    def rates(self, times):
        return {
            "grid_points_per_s": (_median([self.steps ** 2 / t for t in times["grid"]]), "1/s"),
            "sim_steps_per_s": (_median([self.sim_steps / t for t in times["verify"]]), "1/s"),
        }

    def layer_counts(self):
        return {"cli.bytes_written": (sum(self.bytes_written.values()), "B"),
                "verify.simulate.steps": (self.sim_steps, "count")}


WORKLOADS = {w.name: w for w in (DesignScale, McSmall, BinaryBnb, CliAnalysis)}
