"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them) and enforcing its
runtime budget."""

import time

import numpy as np
import pytest

import msfnet
import oracles
from msfnet.cli import main as cli_main


def _criterion(num: int, description: str, limit_s, body) -> None:
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"[criterion {num}] FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    if limit_s is not None and elapsed > limit_s:
        print(f"[criterion {num}] FAIL  {description} "
              f"(runtime {elapsed:.2f}s > {limit_s}s)")
        raise AssertionError(f"criterion {num} exceeded its {limit_s}s budget")
    print(f"[criterion {num}] PASS  {description} ({elapsed:.2f}s)")


def test_criterion_1_msf_oracle_equivalence(paper_model):
    def body():
        rng = np.random.default_rng(1001)
        for lam, mu in rng.uniform(-10.0, 10.0, (1000, 2)):
            expected = oracles.sigma_closed(lam - mu)
            assert abs(msfnet.sigma(paper_model, lam, mu) - expected) <= 1e-8

        steps = 101
        _, _, grid = msfnet.sigma_grid(paper_model, (-10.0, 10.0), (-10.0, 10.0), steps)
        lams = np.linspace(-10.0, 10.0, steps)
        mus = np.linspace(-10.0, 10.0, steps)
        cell = mus[1] - mus[0]
        for lam, row in zip(lams, grid):
            nonneg = row >= 0.0
            if not nonneg.any():
                assert lam - 2.0 <= mus[0]
                continue
            crossings = np.flatnonzero(nonneg[:-1] & ~nonneg[1:])
            assert len(crossings) == 1
            k = crossings[0]
            assert mus[k] - cell <= lam - 2.0 <= mus[k + 1] + cell

    _criterion(1, "sigma matches the quadratic-root oracle to 1e-8 on 1000 "
                  "points; grid zero-level set tracks mu = lambda - 2", 5.0, body)


def test_criterion_2_matching_baseline_norm(paper_model, complete8):
    def body():
        result = msfnet.design_matching(paper_model, complete8)
        assert abs(result.frobenius_norm - np.sqrt(56.0)) <= 1e-9

    _criterion(2, "matching baseline on the complete 8-node network has "
                  "Frobenius norm sqrt(56)", 1.0, body)


def test_criterion_3_weighted_complete8(paper_model, complete8):
    def body():
        result = msfnet.design_weighted(paper_model, complete8, 0.01)
        gains = result.mode_gains
        eigenvalues = msfnet.spectrum(complete8).eigenvalues
        assert np.count_nonzero(gains) == 1
        nonzero = int(np.flatnonzero(gains)[0])
        assert abs(eigenvalues[nonzero].real - 7.0) <= 1e-9
        assert abs(gains[nonzero] - 5.01) <= 1e-6
        assert abs(result.frobenius_norm - 5.01) <= 1e-6
        assert result.verified
        assert result.max_real_part <= -1e-4

    _criterion(3, "weighted design on complete:8 needs one gain of 5.01 on "
                  "the lambda = 7 mode and verifies stable", 5.0, body)


def test_criterion_4_ring_sweep(paper_model):
    def body():
        rows = msfnet.norm_sweep(paper_model, "ring:4", (5, 50))
        assert [r.N for r in rows] == list(range(5, 51))
        for row in rows:
            assert row.status == "ok"
            assert abs(row.matching_norm - 2.0 * np.sqrt(row.N)) <= 1e-9
            assert row.weighted_norm < row.matching_norm
        by_n = {r.N: r for r in rows}
        assert abs(by_n[8].weighted_norm - 2.01) <= 1e-6

    _criterion(4, "ring k=4 sweep N=5..50: weighted norm beats matching "
                  "norm 2*sqrt(N) everywhere; N=8 gives 2.01", 60.0, body)


def test_criterion_5_spectrum_union_suite():
    def body():
        rng = np.random.default_rng(404)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, n + 1))
            model = msfnet.build_plant_model(*oracles.random_plant(rng, n, m))
            N = int(rng.integers(2, 9))
            network = msfnet.custom_network(oracles.random_symmetric_adjacency(rng, N))
            mode_gains = rng.uniform(-2.0, 2.0, N)
            deviation = msfnet.spectrum_union_check(model, network, mode_gains)
            assert deviation <= 1e-7

    _criterion(5, "closed-loop spectrum equals the union of per-mode block "
                  "spectra (50 joint-basis instances, deviation <= 1e-7)", 30.0, body)


def test_criterion_6_binary_against_exhaustive(paper_model):
    def body():
        rng = np.random.default_rng(606)
        checked = 0
        for _ in range(10):
            net = msfnet.make_network(
                "er", 4, p=float(rng.uniform(0.35, 0.9)),
                seed=int(rng.integers(0, 10_000)),
                coupling=float(rng.uniform(0.4, 1.4)))
            expected = oracles.exhaustive_binary_optimum(
                paper_model.F, paper_model.H, paper_model.G, net.adjacency)
            result = msfnet.design_binary(paper_model, net, symmetric=True,
                                          time_limit=30.0)
            assert expected is not None
            assert int(round(result.feedback.sum())) == expected
            verdict = msfnet.spectral_verdict(
                msfnet.build_closed_loop(paper_model, net, result.feedback))
            assert verdict.max_real_part < 0.0
            checked += 1
        assert checked >= 10

    _criterion(6, "branch-and-bound link counts equal exhaustive enumeration "
                  "on 10 random N=4 instances; all designs stable", 60.0, body)


def test_criterion_7_verdict_simulation_concordance():
    def body():
        rng = np.random.default_rng(909)
        checked = attempts = 0
        while checked < 50:
            attempts += 1
            assert attempts < 1000, "instance ensemble exhausted"
            model = msfnet.build_plant_model(*oracles.random_plant(rng, 2, 1, scale=1.5))
            N = int(rng.integers(2, 5))
            B = oracles.random_symmetric_adjacency(rng, N)
            A = oracles.random_symmetric_adjacency(rng, N)
            system = msfnet.build_closed_loop(model, B, A)
            verdict = msfnet.spectral_verdict(system)
            if not 0.05 <= abs(verdict.max_real_part) <= 5.0:
                continue
            radius = float(np.max(np.abs(np.linalg.eigvals(system.Ftilde))))
            dt = min(0.02, 0.2 / max(radius, 1.0))
            x0 = rng.standard_normal(system.N * system.n)
            if verdict.stable:
                t_end = 20.0 / abs(verdict.max_real_part)
                result = msfnet.simulate(system, x0, t_end, dt)
                assert not result.diverged
                assert np.linalg.norm(result.x[-1]) < 1e-2 * np.linalg.norm(x0)
            elif verdict.max_real_part > 0.1:
                t_end = min(20.0 / verdict.max_real_part, 200.0)
                result = msfnet.simulate(system, x0, t_end, dt)
                assert result.diverged or (
                    np.linalg.norm(result.x[-1]) > np.linalg.norm(x0))
            checked += 1

    _criterion(7, "spectral verdicts agree with expm trajectories on 50 "
                  "random instances (decay for stable, growth for unstable)",
               60.0, body)


def test_criterion_8_cli_determinism(tmp_path):
    def body():
        cfg = tmp_path / "model.cfg"
        cfg.write_text("D = 3 5; -1 0\nR = 1; 0\nH = 1 0; 0 0\n"
                       "K = -5 0\nL = -1 0\n")
        commands = [
            ("msf", "grid", "--model", cfg, "--lambda", "-10:10",
             "--mu", "-10:10", "--steps", "21", "--out", tmp_path / "grid.csv"),
            ("design", "weighted", "--model", cfg, "--network", "complete:8",
             "--margin", "0.01",
             "--out", tmp_path / "A.csv", "--report", tmp_path / "report.json"),
            ("sweep", "norm", "--model", cfg, "--family", "ring:4",
             "--n", "5:8", "--out", tmp_path / "sweep.csv"),
            ("prob", "stability", "--model", cfg, "--family", "er:6:0.4",
             "--trials", "6", "--seed", "11", "--out", tmp_path / "prob.csv"),
        ]
        outputs = ("grid.csv", "A.csv", "report.json", "sweep.csv",
                   "prob.csv", "run-manifest.txt")

        def run_all():
            for command in commands:
                code = cli_main([str(a) for a in command])
                assert code == 0, f"{command[0]} {command[1]} exited {code}"
            return {name: (tmp_path / name).read_bytes() for name in outputs}

        first = run_all()
        second = run_all()
        assert first == second

    _criterion(8, "repeated CLI runs with fixed seeds produce byte-identical "
                  "outputs", None, body)
