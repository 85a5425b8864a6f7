"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from epmdiag.element_sums import element_sum_kernel, eta_chi_haar_average
from epmdiag.energetics import local_hamiltonian_2q
from epmdiag.gates import g_gate, v_angle, v_axis
from epmdiag.linalg import haar_pure_states, plus_plus_state
from epmdiag.merit import MeritKind, haar_average, kernel_values
from epmdiag.reconstruct import (
    gate_probability_table,
    protocol_plan,
    table_from_plan,
    transition_tensor_from_tables,
    transition_tensor_from_unitary,
)
from epmdiag.sweeps import preset_fig1, preset_fig3, run_reconstruction
from helpers import haar_random_unitary, surface

H = local_hamiltonian_2q()

KERNEL_KINDS_ZERO = (
    MeritKind.ETA_CHI,
    MeritKind.ETA_EPM,
    MeritKind.ETA_P,
    MeritKind.ETA_TPM,
    MeritKind.COHERENCE_FIDELITY,
)

# Floors frozen from a coarse 11x11, n=2000 pre-run (correlations observed
# 0.998 for both error families; 0.999 at full resolution). The symmetry
# check is statistical: independent Monte Carlo estimates at mirrored grid
# points, so ~95% of pairs are expected inside 2 combined standard errors
# and all inside 5; 1e-12 absorbs floating-point residue where the surface
# itself is zero.
CORRELATION_FLOOR = 0.99
SYMMETRY_COVERAGE_FLOOR = 0.90
SYMMETRY_NOISE_FLOOR = 1e-12
# Calibration of the eta_chi error bars against the exact Haar average: a
# calibrated estimator puts ~95 % of |z| within 2 and ~68 % within 1, so a
# floor on the first share catches error bars that are too small and a
# ceiling on the second catches error bars that are too large.
CALIBRATION_2SE_FLOOR = 0.90
CALIBRATION_1SE_CEILING = 0.85
CALIBRATION_MAX_Z = 5.0


@contextmanager
def criterion(num: int, name: str, budget: float | None = None):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(f"runtime {elapsed:.2f} s exceeds budget {budget} s")
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f} s)")


def test_criterion_1_null_error_identity():
    with criterion(1, "null-error identity at phi = 0", budget=1.0):
        states = haar_pure_states(1001, 4, 40)
        for family in (v_axis, v_angle):
            for theta in np.linspace(0.0, math.pi, 21):
                u = g_gate(theta)
                v = family(theta, 0.0)
                for kind in KERNEL_KINDS_ZERO:
                    values = kernel_values(kind, states, u, v, H)
                    assert np.max(np.abs(values)) < 1e-12
                fid = kernel_values(MeritKind.FIDELITY, states, u, v, H)
                assert np.max(np.abs(fid - 1.0)) < 1e-12


def test_criterion_2_oracle_equivalence():
    with criterion(2, "kernel / element-sum equivalence on 200 random tuples", budget=5.0):
        gen = np.random.default_rng(2002)
        for i in range(200):
            theta = gen.uniform(0, math.pi)
            phi = gen.uniform(0, 2 * math.pi)
            family = v_axis if gen.random() < 0.5 else v_angle
            psi = haar_pure_states(2003 | i << 64, 4, 1)[0]
            u, v = g_gate(theta), family(theta, phi)
            for kind in MeritKind:
                fast = float(kernel_values(kind, psi, u, v, H)[0])
                slow = element_sum_kernel(kind, psi, u, v, H)
                assert abs(fast - slow) < 1e-10, (kind, theta, phi)


def test_criterion_3_fig1_surfaces():
    with criterion(3, "surface reproduction: nulls, correlation, symmetry, calibration",
                   budget=600.0):
        surfaces, grids = {}, {}
        for panel, kind in (("a", MeritKind.COHERENCE_FIDELITY), ("b", MeritKind.ETA_CHI),
                            ("c", MeritKind.COHERENCE_FIDELITY), ("d", MeritKind.ETA_CHI)):
            result = preset_fig1(panel, resolution=41, n_samples=5000, seed=0)
            surfaces[panel] = (surface(result, kind), surface(result, kind, "std_error"))
            grids[panel] = (result.config.thetas(), result.config.phis())

        # (a) exact zero-error null along the phi = 0 column of every panel
        for panel in "abcd":
            column = surfaces[panel][0][:, 0]
            assert np.array_equal(column, np.zeros(41)), panel

        # (b) max-normalized eta_chi and coherence surfaces co-vary strongly
        for family, (p_coh, p_chi) in (("axis", ("a", "b")), ("angle", ("c", "d"))):
            coh = surfaces[p_coh][0] / surfaces[p_coh][0].max()
            chi = surfaces[p_chi][0] / surfaces[p_chi][0].max()
            corr = float(np.corrcoef(coh.ravel(), chi.ravel())[0, 1])
            print(f"\n  {family} family: Pearson correlation = {corr:.6f}")
            assert corr >= CORRELATION_FLOOR, family

        # (c) axis surfaces symmetric under theta -> theta + pi/2 within
        # Monte Carlo error (grid shift of 20 rows on the 41-point theta axis)
        for panel in "ab":
            mean, se = surfaces[panel]
            delta = np.abs(mean[:21, :] - mean[20:, :])
            sigma = np.sqrt(se[:21, :] ** 2 + se[20:, :] ** 2)
            within_2 = delta <= np.maximum(2 * sigma, SYMMETRY_NOISE_FLOOR)
            within_5 = delta <= np.maximum(5 * sigma, SYMMETRY_NOISE_FLOOR)
            coverage = float(np.mean(within_2))
            print(f"  panel {panel}: symmetry coverage at 2 SE = {coverage:.4f}")
            assert coverage >= SYMMETRY_COVERAGE_FLOOR, panel
            assert np.all(within_5), panel

        # (d) eta_chi surfaces against the exact Haar average: calibrated
        # z-scores where it is non-zero, an exact 0 where it is 0
        for panel, family in (("b", v_axis), ("d", v_angle)):
            mean, se = surfaces[panel]
            thetas, phis = grids[panel]
            exact = np.array([[eta_chi_haar_average(g_gate(theta), family(theta, phi), H)
                               for phi in phis] for theta in thetas])
            null = exact == 0.0
            assert np.array_equal(mean[null], exact[null]), panel
            z = np.abs(mean[~null] - exact[~null]) / se[~null]
            within_1, within_2 = float(np.mean(z <= 1)), float(np.mean(z <= 2))
            print(f"  panel {panel}: |z| <= 1 for {within_1:.4f}, <= 2 for {within_2:.4f}, "
                  f"max {z.max():.3f} over {z.size} points")
            assert within_2 >= CALIBRATION_2SE_FLOOR, panel
            assert within_1 <= CALIBRATION_1SE_CEILING, panel
            assert z.max() <= CALIBRATION_MAX_Z, panel


def test_criterion_4_fig3_theory_curves():
    with criterion(4, "conditional-probability theory curves", budget=1.0):
        report = preset_fig3(theta_points=50, phi=math.pi / 9)
        probabilities = {label: np.array([table.rows[label] for table in report.tables])
                         for label in report.tables[0].rows}
        cos_phi_sq = math.cos(math.pi / 9) ** 2
        p10 = probabilities["00"][:, 2]
        p11 = probabilities["00"][:, 3]
        assert np.max(np.abs(p10 - np.cos(2 * report.thetas) ** 2 * cos_phi_sq)) < 1e-12
        expected_p11 = np.sin(2 * report.thetas) ** 2 * cos_phi_sq + math.sin(math.pi / 9) ** 2
        assert np.max(np.abs(p11 - expected_p11)) < 1e-12
        for label, values in probabilities.items():
            assert np.max(np.abs(values.sum(axis=1) - 1.0)) < 1e-12, label
        assert abs(p10[0] - math.cos(math.pi / 9) ** 2) < 1e-12
        assert abs(p10[0] - 0.88302) < 1e-5


def test_criterion_5_reconstruction_round_trip():
    with criterion(5, "measurement-only reconstruction round trips", budget=5.0):
        psi_pp = plus_plus_state()
        thetas = np.linspace(0.0, math.pi / 4, 50).tolist()
        report = run_reconstruction(
            [(theta, gate_probability_table(v_axis(theta, math.pi / 9))) for theta in thetas])
        for theta, via_tables in zip(thetas, report.eta_kernel):
            u, v = g_gate(theta), v_axis(theta, math.pi / 9)
            direct = kernel_values(MeritKind.ETA_CHI, psi_pp, u, v, H)[0]
            assert abs(via_tables - direct) < 1e-10

        plans = {kind: protocol_plan(kind) for kind in ("straightforward", "separable")}
        for k in range(20):
            w = haar_random_unitary(5005 | k << 64, 4)
            reference = transition_tensor_from_unitary(w).entries
            recovered = {}
            for kind, plan in plans.items():
                tensor = transition_tensor_from_tables(plan, table_from_plan(w, plan))
                assert np.max(np.abs(tensor.entries - reference)) < 1e-9, kind
                recovered[kind] = tensor.entries
            agreement = np.max(np.abs(recovered["straightforward"] - recovered["separable"]))
            assert agreement < 1e-9


def test_criterion_6_statistical_soundness():
    with criterion(6, "Monte Carlo estimator soundness", budget=10.0):
        u = g_gate(0.6)
        avg = haar_average(MeritKind.FIDELITY, u, u, H, n_samples=5000, seed=6)
        assert avg.mean == 1.0
        assert avg.std_error == 0.0

        states = haar_pure_states(6006, 4, 100_000)
        moment = float(np.mean(np.abs(states[:, 0]) ** 2))
        assert abs(moment - 0.25) <= 0.005


def test_criterion_7_output_determinism(tmp_path):
    # the child finds the package in this checkout's src, installed or not, and
    # fails on a RuntimeWarning as the pytest process does
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    with criterion(7, "byte-identical outputs for any worker count"):
        outputs = []
        for name, workers in (("first", "1"), ("second", "2")):
            out = tmp_path / f"{name}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "epmdiag", "fig1", "--panel", "b",
                 "--seed", "7", "--workers", workers, "--out", str(out)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append((out.read_bytes(), (tmp_path / f"{name}.meta.json").read_bytes()))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]
