"""Span tracer that measures msfnet's layers from outside the library.

While installed, it replaces every public function of ``msfnet.model``,
``graphs``, ``msf``, ``design`` and ``verify``, and ``cli.main`` (in every
msfnet namespace that bound them), and the numpy/scipy eigen-solvers, with
wrappers that record one span per call: name, start, end, parent span and
root span, which identifies the top-level operation the benchmark called.
Spans stay in memory, in compact columns, until :meth:`Tracer.save`.

Per-name call counts, inclusive time and self time (duration minus the time
covered by child spans) are aggregated as spans close, together with the
layer counters the benchmark reports.  The tracer assumes one calling
thread: the benchmark never passes ``workers``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("model", "graphs", "msf", "design", "verify", "cli")
#: Layers traced through named entry points only: the CLI's own helpers
#: (argument parsing, formatting, writing) stay inside ``cli.main``'s self time.
ENTRY_POINTS = {"cli": ("main",)}

#: (module, span prefix, solver names); scipy's Schur form is an eigensolve too.
EIGEN_SOLVERS = (
    ("numpy.linalg", "linalg.", ("eig", "eigvals", "eigh", "eigvalsh")),
    ("scipy.linalg", "linalg.scipy.", ("eig", "eigvals", "eigh", "eigvalsh", "schur")),
)

#: Exceptions stability_probability folds into "not stable", plus "unverified".
TRIAL_FAILURE_REASONS = ("Infeasible", "NoStableInterval", "NumericalFailure", "unverified")

EIG_BUCKETS = ((16, "le16"), (64, "le64"), (256, "le256"))


def eig_bucket(dim: int) -> str:
    for limit, label in EIG_BUCKETS:
        if dim <= limit:
            return label
    return "gt256"


class Tracer:
    """Records spans and layer counters for calls made while installed."""

    def __init__(self):
        self._t0 = time.perf_counter()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_root = array("q")
        self._stack: list[list] = []  # [span index, name id, child time]
        self._patches: list[tuple[object, str, object]] = []
        self._hook_table = self._hooks()
        self.reset()

    # -- aggregation -------------------------------------------------------

    def reset(self) -> None:
        """Start a fresh aggregation window; recorded spans are kept."""
        self.window: dict[str, float] = defaultdict(int)

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> list:
        index = len(self.span_name)
        parent = self._stack[-1][0] if self._stack else -1
        self.span_name.append(name_id)
        self.span_parent.append(parent)
        self.span_root.append(self.span_root[parent] if parent >= 0 else index)
        self.span_end.append(0.0)
        frame = [index, name_id, 0.0]
        self._stack.append(frame)
        self.span_start.append(time.perf_counter() - self._t0)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter() - self._t0
        index, name_id, child = frame
        self._stack.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        name = self.names[name_id]
        self.window["calls:" + name] += 1
        self.window["total:" + name] += duration
        self.window["self:" + name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def inside(self, name: str) -> bool:
        """True when a span called ``name`` is open on the stack."""
        name_id = self._name_ids.get(name)
        return any(frame[1] == name_id for frame in self._stack)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = self._intern(name)
        hook = self._hook_table.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open(name_id)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                tracer._close(frame)
                if hook is not None:
                    hook(args, kwargs, result, error)

        return traced

    def install(self) -> None:
        """Patch the layer functions and eigen-solvers; idempotent."""
        if self._patches:
            return
        by_id = {}
        for layer in LAYERS:
            module = importlib.import_module(f"msfnet.{layer}")
            names = ENTRY_POINTS.get(layer)
            for attr, fn in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__
                        and (names is None or attr in names)):
                    by_id[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for module_name, module in list(sys.modules.items()):
            if module_name != "msfnet" and not module_name.startswith("msfnet."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in by_id:
                    self._patch(module, attr, by_id[id(value)])
        for module_name, prefix, solvers in EIGEN_SOLVERS:
            module = importlib.import_module(module_name)
            for solver in solvers:
                fn = getattr(module, solver)
                self._patch(module, solver, self._wrap(prefix + solver, fn))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- layer counters ----------------------------------------------------

    def _hooks(self) -> dict:
        def eigensolve(args, kwargs, result, error):
            shape = np.shape(args[0] if args else kwargs["a"])
            dim = int(shape[-1])
            batch = int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) > 2 else 1
            self.window[f"count:linalg.eig.calls.{eig_bucket(dim)}"] += 1
            self.window["count:linalg.eig.flops_computed"] += 25 * dim ** 3 * batch

        def build_closed_loop(args, kwargs, result, error):
            model, plant = args[0], args[1]
            N = np.shape(getattr(plant, "adjacency", plant))[0]
            self.window["count:verify.build_closed_loop.bytes_computed"] += 8 * (N * model.n) ** 2

        def spectral_verdict(args, kwargs, result, error):
            system = args[0]
            key = "max:verify.spectral_verdict.dim"
            self.window[key] = max(self.window[key], system.N * system.n)
            if self.inside("design.design_binary"):
                self.window["count:design.binary.leaves"] += 1
                if error is None and result.stable:
                    self.window["count:design.binary.stable_leaves"] += 1

        def stable_interval(args, kwargs, result, error):
            if self.inside("design.design_weighted"):
                self.window["count:design.weighted.interval_calls"] += 1

        def designer(args, kwargs, result, error):
            if self.inside("verify.stability_probability"):
                if error is not None:
                    reason = type(error).__name__
                elif not result.verified:
                    reason = "unverified"
                else:
                    return
                self.window[f"count:verify.trial_failures.{reason}"] += 1

        def design_weighted(args, kwargs, result, error):
            self.window["count:design.weighted.modes"] += args[1].size
            designer(args, kwargs, result, error)

        hooks = {
            "verify.build_closed_loop": build_closed_loop,
            "verify.spectral_verdict": spectral_verdict,
            "msf.stable_interval": stable_interval,
            "design.design_weighted": design_weighted,
            "design.design_binary": designer,
            "design.design_matching": designer,
        }
        for _, prefix, solvers in EIGEN_SOLVERS:
            for solver in solvers:
                hooks[prefix + solver] = eigensolve
        return hooks

    # -- output ------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.span_name)

    def save(self, path) -> None:
        """Write every recorded span as compressed numpy columns."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            root=np.frombuffer(self.span_root, dtype=np.int64),
        )


def combine(setup: dict, rounds: list[dict]) -> dict:
    """One aggregation window from a traced set-up and traced rounds.

    Counts come from the first round, which repeats exactly on one seed;
    times are the median over rounds.  Set-up work is added to both.
    """
    combined = defaultdict(int)
    for key in set(setup).union(*rounds):
        if key.startswith(("total:", "self:")):
            value = float(np.median([r.get(key, 0.0) for r in rounds]))
        else:
            value = rounds[0].get(key, 0)
        if key.startswith("max:"):
            combined[key] = max(value, setup.get(key, 0))
        else:
            combined[key] = value + setup.get(key, 0)
    return combined


def _ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def layer_metrics(w: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from an aggregation window."""
    def calls(name):
        return (int(w["calls:" + name]), "count")

    def total(name):
        return (w["total:" + name], "s")

    def own(name):
        return (w["self:" + name], "s")

    def count(key, unit="count"):
        return (int(w["count:" + key]), unit)

    sigma_calls, interval_calls = w["calls:msf.sigma"], w["calls:msf.stable_interval"]
    modes = w["count:design.weighted.modes"]
    leaves = w["count:design.binary.leaves"]
    metrics = {
        "msf.sigma.calls": calls("msf.sigma"),
        "msf.sigma.self_s": own("msf.sigma"),
        "msf.stable_interval.calls": calls("msf.stable_interval"),
        "msf.stable_interval.self_s": own("msf.stable_interval"),
        "msf.sigma_per_interval": (_ratio(sigma_calls, interval_calls), "ratio"),
        "msf.sigma_grid.s": total("msf.sigma_grid"),
        "graphs.spectrum.calls": calls("graphs.spectrum"),
        "graphs.spectrum.s": total("graphs.spectrum"),
        "graphs.make_network.s": total("graphs.make_network"),
        "design.design_weighted.self_s": own("design.design_weighted"),
        "design.weighted.modes": count("design.weighted.modes"),
        "design.interval_hit_ratio": (
            _ratio(modes - w["count:design.weighted.interval_calls"], modes), "ratio"),
        "design.design_binary.self_s": own("design.design_binary"),
        "design.binary.leaves": count("design.binary.leaves"),
        "design.binary.feasible_leaf_ratio": (
            _ratio(w["count:design.binary.stable_leaves"], leaves), "ratio"),
        "design.norm_sweep.self_s": own("design.norm_sweep"),
        "verify.build_closed_loop.calls": calls("verify.build_closed_loop"),
        "verify.build_closed_loop.s": total("verify.build_closed_loop"),
        "verify.build_closed_loop.bytes_computed": count(
            "verify.build_closed_loop.bytes_computed", "B"),
        "verify.spectral_verdict.calls": calls("verify.spectral_verdict"),
        "verify.spectral_verdict.s": total("verify.spectral_verdict"),
        "verify.spectral_verdict.max_dim": (int(w["max:verify.spectral_verdict.dim"]), "count"),
        "verify.simulate.s": total("verify.simulate"),
        "verify.stability_probability.self_s": own("verify.stability_probability"),
        "cli.main.self_s": own("cli.main"),
        "model.load_model_config.s": total("model.load_model_config"),
    }
    for reason in TRIAL_FAILURE_REASONS:
        metrics[f"verify.trial_failures.{reason}"] = count(f"verify.trial_failures.{reason}")
    for _, label in EIG_BUCKETS + ((None, "gt256"),):
        metrics[f"linalg.eig.calls.{label}"] = count(f"linalg.eig.calls.{label}")
    metrics["linalg.eig.flops_computed"] = count("linalg.eig.flops_computed", "flop")
    return metrics
