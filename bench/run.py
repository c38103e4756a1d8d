"""msfnet benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload design-scale --seed 1 --seconds 15 --trace 0

Runs one workload (see ``workloads.py`` and ``BENCHMARK.json``) from the
repository root it sits in, as a closed loop with one caller, for
``--seconds`` of measured time, checking every output independently.  It
prints every metric by name with its unit, then, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is a separate
run that alternates untraced and traced rounds and reports the per-layer
metrics from the traced ones, together with the tracing overhead; its
spans are written to ``bench/out/<workload>.trace.npz``.

End-to-end times are CPU seconds of the process that does the work (this
process for library calls, the child for CLI calls), which leaves out the
time a shared virtual machine is descheduled.  Threads are pinned to one,
so on an idle machine CPU time equals wall time.  The times are then scaled
to a reference machine speed: between the timed operations of a round (and
between set-ups) the run times a fixed numpy/Python kernel that does not
touch msfnet (:func:`reference_seconds`), and the round's times are
multiplied by ``REFERENCE_S`` over the mean kernel time of that round.  This
cancels the drift in speed, tens of percent within minutes, that all code on
a shared machine sees alike.  Unscaled CPU and wall times are printed as
``info`` lines.
Everything the run writes stays under ``bench/out/``.
"""

from __future__ import annotations

import os

THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
WORKLOAD_NAMES = ("design-scale", "mc-small", "binary-bnb", "cli-analysis")

#: Set-up repetitions per run; set-up time is their median.
SETUP_REPS = 5
#: Fresh-process import measurements per traced run.
IMPORT_REPS = 3
#: Nominal time of the reference kernel; scaled times are seconds at that speed.
REFERENCE_S = 0.2
#: Modules of src/msfnet whose line counts are reported.
SRC_MODULES = ("__init__", "__main__", "cli", "design", "errors", "graphs", "model",
               "msf", "verify")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def python_child(args: list[str], cwd: Path) -> str:
    """Run a fresh interpreter on the program; its stdout, or RuntimeError."""
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=child_env(),
                          capture_output=True, text=True, timeout=150, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{args} exited {done.returncode}: {done.stderr.strip()}")
    return done.stdout


def commit() -> str:
    """HEAD commit when the root is a git checkout, else 'none'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def src_lines() -> dict[str, tuple[int, str]]:
    src = ROOT / "src" / "msfnet"
    counts = {}
    for module in SRC_MODULES:
        path = src / f"{module}.py"
        counts[f"{module.strip('_')}.src_lines"] = (
            len(path.read_text().splitlines()) if path.exists() else 0, "lines")
    total = sum(len(p.read_text().splitlines()) for p in src.rglob("*.py"))
    counts["total.src_lines"] = (total, "lines")
    return counts


def environment(args) -> dict:
    import scipy

    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "threads": THREADS, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "commit": commit(), "src_sha256": src.hexdigest(),
    }


def _reference_inputs() -> tuple:
    rng = np.random.default_rng(0)
    shapes = ((3200, 2, 2), (480, 12, 12), (240, 240), (2400, 32))
    return tuple(rng.standard_normal(shape) for shape in shapes)


_REFERENCE_INPUTS = _reference_inputs()


def cpu_seconds() -> float:
    """CPU time of this process plus that of its finished children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def reference_seconds() -> float:
    """CPU time of a fixed kernel shaped like msfnet's work: small eigensolves
    in a Python loop, Kronecker blocks, one dense eigensolve, float formatting."""
    small, blocks, dense, rows = _REFERENCE_INPUTS
    start = time.process_time()
    for block in small:
        float(np.max(np.linalg.eigvals(block).real))
    for block in blocks:
        np.linalg.eigvals(np.kron(np.eye(6), block[:2, :2]) + block)
    np.linalg.eigvals(dense)
    "\n".join(",".join(str(float(v)) for v in row) for row in rows)
    return time.process_time() - start


class Round:
    """Timings and outcomes of one pass over a workload's operations."""

    def __init__(self):
        self.times: dict[str, float] = {}  # op name -> CPU seconds
        self.cpu = {"a": 0.0, "b": 0.0}
        self.wall = {"a": 0.0, "b": 0.0}
        self.references: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @property
    def elapsed(self) -> float:
        return self.wall["a"] + self.wall["b"]

    def scaled(self, task: str) -> float:
        """CPU seconds of a task at the reference machine speed."""
        return self.cpu[task] * REFERENCE_S / statistics.fmean(self.references)


def run_round(workload, checked: set, tracer=None) -> Round:
    """Time each operation; check outputs not already checked, untimed."""
    result = Round()
    for op in workload.ops():
        result.references.append(reference_seconds())
        if tracer is not None:
            tracer.install()
        start, start_cpu = time.perf_counter(), cpu_seconds()
        try:
            output, error = op.call(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            output, error = None, exc
        cpu = cpu_seconds() - start_cpu
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        result.times[op.name] = cpu
        result.cpu[op.task] += cpu
        result.wall[op.task] += wall
        result.attempted += 1
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
            result.failed += 1
            continue
        result.failed += bool(op.failed(output))
        key = (op.name, workload.fingerprint(op, output))
        if key not in checked:
            try:
                result.problems += op.check(output)
            except Exception as exc:  # a check that cannot complete is a failed check
                traceback.print_exception(exc, file=sys.stderr)
                result.problems.append(f"{op.name}: check raised {exc!r}")
            checked.add(key)
    result.references.append(reference_seconds())
    return result


def median(values) -> float:
    return float(statistics.median(values))


def measure(workload, seconds: float) -> tuple[dict, list[Round]]:
    """End-to-end run: repeated set-up, warm-up, then timed rounds."""
    setup_cpu, setup_references = [], [reference_seconds()]
    for _ in range(SETUP_REPS):
        start = cpu_seconds()
        version = python_child(["-m", "msfnet", "--version"], workload.workdir)
        workload.setup()
        setup_cpu.append(cpu_seconds() - start)
        setup_references.append(reference_seconds())
        if not version.startswith("msfnet "):
            raise RuntimeError(f"unexpected --version output {version!r}")
    workload.warmup()
    rounds, checked = [], set()
    while not rounds or sum(r.elapsed for r in rounds) < seconds:
        rounds.append(run_round(workload, checked))
    who = resource.RUSAGE_CHILDREN if workload.in_children else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    setup_scale = REFERENCE_S / statistics.fmean(setup_references)
    references = setup_references + [t for r in rounds for t in r.references]
    print(f"info reference_s = {median(references):.6g} s (median of {len(references)})")
    print(f"info unscaled setup_s = {median(setup_cpu):.6g} s (median of {len(setup_cpu)})")
    for task in ("a", "b"):
        print(f"info unscaled task_{task}_s = {median([r.cpu[task] for r in rounds]):.6g} s, "
              f"wall {median([r.wall[task] for r in rounds]):.6g} s; scaled per round "
              f"{[round(r.scaled(task), 4) for r in rounds]}")
    metrics = {
        "setup_s": (median(setup_cpu) * setup_scale, "s", len(setup_cpu)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "task_a_s": (median([r.scaled("a") for r in rounds]), "s", len(rounds)),
        "task_b_s": (median([r.scaled("b") for r in rounds]), "s", len(rounds)),
    }
    return metrics, rounds


def measure_traced(workload, seconds: float, trace_path: Path) -> tuple[dict, list[Round]]:
    """Traced run: traced set-up, then alternating untraced and traced rounds."""
    from tracer import Tracer, combine, layer_metrics

    import_s = [float(python_child(
        ["-c", "import time; t = time.perf_counter(); import msfnet.cli; "
               "print(time.perf_counter() - t)"], workload.workdir))
        for _ in range(IMPORT_REPS)]
    tracer = Tracer()
    tracer.install()
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    setup_window = dict(tracer.window)
    workload.warmup()
    plain, traced, windows, spans, checked = [], [], [], [], set()
    while not traced or sum(r.elapsed for r in plain + traced) < seconds:
        plain.append(run_round(workload, checked))
        tracer.reset()
        before = tracer.span_count
        traced.append(run_round(workload, checked, tracer))
        windows.append(dict(tracer.window))
        spans.append(tracer.span_count - before)
    tracer.save(trace_path)

    metrics = {name: (value, unit, len(traced))
               for name, (value, unit) in layer_metrics(combine(setup_window, windows)).items()}
    metrics.update({name: (value, unit, 1)
                    for name, (value, unit) in workload.layer_counts().items()})
    metrics["cli.import_s"] = (median(import_s), "s", len(import_s))
    untraced_s = median([r.scaled("a") + r.scaled("b") for r in plain])
    overhead = median([r.scaled("a") + r.scaled("b") for r in traced]) - untraced_s
    metrics["trace.overhead_s"] = (overhead, "s", len(traced))
    metrics["trace.overhead_share"] = (overhead / untraced_s, "ratio", len(traced))
    metrics["trace.spans"] = (spans[0], "count", 1)
    metrics.update({name: (value, unit, 1) for name, (value, unit) in src_lines().items()})
    return metrics, plain + traced


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "msfnet" / "__init__.py").is_file() or \
            not (ROOT / "paper.cfg").is_file():
        print(f"error: {ROOT} lacks src/msfnet or paper.cfg; run from an msfnet checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](ROOT, args.seed, workdir,
                                            in_process=bool(args.trace))
        print("env", json.dumps(environment(args), sort_keys=True))
        if args.trace:
            metrics, rounds = measure_traced(workload, args.seconds,
                                             OUT / f"{args.workload}.trace.npz")
        else:
            metrics, rounds = measure(workload, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    problems = [p for r in rounds for p in r.problems]
    for problem in problems:
        print("check failed:", problem)
    if args.trace:
        metrics["failed_fraction"] = (failed / attempted, "ratio", attempted)
        metrics["check_failures"] = (len(problems), "count", 1)
    else:
        times = {name: [r.times[name] for r in rounds] for name in rounds[0].times}
        for name, (value, unit) in workload.rates(times).items():
            print(f"info {name} = {value:.6g} {unit} (median of {len(rounds)})")
        print(f"info failed_fraction = {failed / attempted:.6g} ({failed}/{attempted})")
        print(f"info check_failures = {len(problems)}")
    for name, (value, unit, samples) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (n={samples})")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
