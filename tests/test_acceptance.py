"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line; run with `pytest tests/test_acceptance.py -v -s`
to see them.  The randomized batteries use fixed seeds, so the whole gate
is deterministic.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from bsbound.dielectric import DrudeLorentzModel, Resonance, superconvergence_residual, susceptibility
from bsbound.linewidth import DecayContext, dipole_sq_from_static_index, free_space_decay_rate, local_field_factor, min_absorption_probability, scaled_linewidth_bound
from bsbound.optimizer import MinimizeConfig, extract_alpha, minimize_absorption, sweep
from bsbound.slab import ScaledSlabParams, evaluate, reflection, transmission, working_index
from oracles import brute_force_min_p, reference_slab_tr

LIGHT = 299792458.0


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_1_symmetric_splitter(run_cli):
    start = time.monotonic()
    res = run_cli("minimize", "--x", "1")
    elapsed = time.monotonic() - start
    rec = dict(zip(*[line.split(",") for line in res.stdout.strip().split("\n")]))
    alpha = float(rec["alpha"])
    eps_s = float(rec["eps_s"])
    ok = (
        res.returncode == 0
        and 0.85 <= alpha <= 0.95
        and 6.0 <= eps_s <= 6.4
        and elapsed < 10.0
    )
    _report(1, "symmetric-splitter coefficient", ok,
            f"alpha={alpha:.4f}, eps_s={eps_s:.3f}, {elapsed:.2f}s")


def test_criterion_2_headline_bound(run_cli):
    res = run_cli("bound", "--x", "1", "--omega", "0.1", "--nvt", "1e9")
    rec = dict(zip(*[line.split(",") for line in res.stdout.strip().split("\n")]))
    p_min = float(rec["p_min"])
    prefactor = p_min / 0.1**4
    ok = (
        res.returncode == 0
        and 0.5e-10 <= p_min <= 2e-10
        and 0.5e-6 <= prefactor <= 2e-6
    )
    _report(2, "headline bound", ok,
            f"p_min={p_min:.3e}, prefactor={prefactor:.3e}")


def test_criterion_3_reflective_ratio():
    omega_tilde, n_vt = 0.1, 1e9
    p = {}
    for x in (0.05, 1.0):
        ex = extract_alpha(x)
        ctx = DecayContext(n_vt=n_vt, eta=math.sqrt(ex.results[-1].eps_s_star))
        p[x] = min_absorption_probability(ex.alpha, ctx, omega_tilde)
    ratio = p[0.05] / p[1.0]
    ok = 15.0 <= ratio <= 25.0
    _report(3, "reflective-splitter ratio", ok, f"p(0.05)/p(1)={ratio:.2f}")


def test_criterion_4_alpha_curve_shape():
    xs = np.geomspace(1e-2, 1e2, 41)
    rows = sweep([float(x) for x in xs])
    alphas = np.array([r.alpha for r in rows])
    k = int(np.argmax(alphas))
    diffs = np.diff(alphas)
    unimodal = bool(np.all(diffs[:k] > 0) and np.all(diffs[k:] < 0))
    peak_in_band = 0.5 <= xs[k] <= 2.0
    ends_low = alphas[0] < alphas[k] / 2 and alphas[-1] < alphas[k] / 2
    ok = all(r.feasible for r in rows) and unimodal and peak_in_band and ends_low
    _report(4, "alpha(x) curve shape", ok,
            f"peak alpha={alphas[k]:.4f} at x={xs[k]:.3f}, "
            f"ends=({alphas[0]:.4f}, {alphas[-1]:.4f}), unimodal={unimodal}")


def test_criterion_5_separable_scaling():
    worst = 0.0
    for x in (0.2, 1.0, 5.0):
        ex = extract_alpha(x, levels=((1e-3, 1e-3), (1e-4, 1e-4)))
        worst = max(worst, ex.drift)
    ok = worst < 0.01
    _report(5, "small-parameter scaling of alpha", ok, f"max drift={worst:.2e}")


def test_criterion_6_unitarity_and_positivity():
    rng = np.random.default_rng(60)
    worst_dev = 0.0
    for _ in range(10_000):
        resp = evaluate(ScaledSlabParams(
            omega_tilde=rng.uniform(1e-4, 0.5), gamma_tilde=0.0,
            d=rng.uniform(1e-3, 20.0), eps_s=rng.uniform(1.0 + 1e-3, 100.0),
        ))
        worst_dev = max(worst_dev, abs(abs(resp.t) ** 2 + abs(resp.r) ** 2 - 1.0))
    min_p = math.inf
    for _ in range(10_000):
        resp = evaluate(ScaledSlabParams(
            omega_tilde=rng.uniform(1e-2, 0.5), gamma_tilde=rng.uniform(1e-4, 0.5),
            d=rng.uniform(0.1, 20.0), eps_s=rng.uniform(1.1, 100.0),
        ))
        min_p = min(min_p, resp.p)
    ok = worst_dev < 1e-12 and min_p > 0.0
    _report(6, "lossless unitarity / strict absorption", ok,
            f"max |T2+R2-1|={worst_dev:.2e}, min p={min_p:.2e}")


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(70)
    worst = 0.0
    checked = 0
    while checked < 1000:
        n = working_index(
            float(rng.uniform(1.5, 50.0)), float(rng.uniform(1e-4, 0.3)),
            float(rng.uniform(1e-3, 0.5)),
        )
        phase = float(rng.uniform(1e-3, 20.0))
        t = transmission(n, phase)
        r = reflection(n, phase)
        if abs(r) < 1e-2:
            continue  # relative comparison undefined at reflection nulls
        t_ref, r_ref = reference_slab_tr(n.as_complex, phase)
        worst = max(worst, abs(t - t_ref) / abs(t_ref), abs(r - r_ref) / abs(r_ref))
        checked += 1

    worst_gap = 0.0
    for x in (0.5, 1.0, 2.0):
        p_opt = minimize_absorption(MinimizeConfig(x_target=x)).p_min
        p_bf = brute_force_min_p(x)
        worst_gap = max(worst_gap, abs(p_bf - p_opt) / p_opt)
    ok = worst < 1e-12 and worst_gap < 0.005
    _report(7, "transfer-matrix / brute-force equivalence", ok,
            f"max amplitude err={worst:.2e}, max p gap={worst_gap:.2e}")


def test_criterion_8_linewidth_chain():
    rng = np.random.default_rng(80)
    worst = 0.0
    for _ in range(300):
        eta = float(rng.uniform(1.05, 10.0))
        omega_tilde = float(10.0 ** rng.uniform(-3, 0))
        n_vt = float(10.0 ** rng.uniform(6, 12))
        omega_t = float(10.0 ** rng.uniform(14, 16))
        direct = scaled_linewidth_bound(DecayContext(n_vt=n_vt, eta=eta), omega_tilde)
        lambda_t = 2 * math.pi * LIGHT / omega_t
        d_sq = dipole_sq_from_static_index(eta, omega_t, n_vt / lambda_t**3)
        chained = local_field_factor(eta) * free_space_decay_rate(
            omega_tilde * omega_t, d_sq) / omega_t
        worst = max(worst, abs(direct - chained) / direct)

    ctx = DecayContext(n_vt=1e9, eta=math.sqrt(6.2))
    ratio = min_absorption_probability(0.9, ctx, 0.2) / \
        min_absorption_probability(0.9, ctx, 0.1)
    ratio_err = abs(ratio - 16.0) / 16.0
    ok = worst < 1e-12 and ratio_err < 1e-15
    _report(8, "line-width chain identity", ok,
            f"max chain err={worst:.2e}, quartic ratio err={ratio_err:.2e}")


def test_criterion_9_sum_rule():
    model = DrudeLorentzModel([Resonance(1.0, 1.0, 0.1)])
    res = superconvergence_residual(model, 1e3)
    l1, _ = quad(
        lambda w: abs(np.sqrt(1 + susceptibility(model, w)).real - 1),
        0.0, 1e3, points=[0.0, 0.9, 1.0, 2.0], limit=400,
    )
    ok = abs(res) / l1 < 1e-2
    _report(9, "index sum rule", ok, f"|residual|/L1={abs(res) / l1:.2e}")
