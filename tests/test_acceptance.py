"""Acceptance suite: every criterion printed as one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Stated runtime limits are asserted; tolerances are pinned here and never
loosened at runtime.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from peierls import (Box, ChainSpec, Configuration, FiniteVolumeEnsemble,
                     boundary, chebyshev_distance, coexistence_gap,
                     conditional_hamiltonian, config_from_index,
                     contour_roundtrip_mismatches, contours, dlr_consistency,
                     enumerate_distribution, marginal_trend, max_degree,
                     potts_model, relative_hamiltonian, remove_contour,
                     rooted_contour_counts, rooted_subgraph_counts, run_chain,
                     site_indicator, verify_ground_states, verify_peierls)
from peierls.cli import main
from peierls.exact import contour_statistics, full_sweep

ARITH_TOL = 1e-12

# regression values pinned by exact enumeration (deterministic merge order)
GAP_3X3_BETA2 = 0.9999997749188099
GAP_4X4_BETA2 = 0.9999997749188096


def _report(num, ok, detail, elapsed, limit=None):
    status = "PASS" if ok else "FAIL"
    budget = f" (limit {limit:.0f}s)" if limit else ""
    print(f"[{status}] criterion {num:02d}: {detail} [{elapsed:.2f}s{budget}]")
    assert ok, f"criterion {num} failed: {detail}"
    if limit is not None:
        assert elapsed < limit, f"criterion {num} overran: {elapsed:.1f}s >= {limit}s"


@pytest.fixture(scope="module")
def ising():
    return potts_model(d=2, r=1, q=2, J=1.0)


@pytest.fixture(scope="module")
def random_6x6(ising):
    rng = np.random.default_rng(20260808)
    box = Box((0, 0), (5, 5))
    return [Configuration.random(box, 2, 1, rng) for _ in range(1000)]




def brute_spectrum_oracle():
    """Independent 16-pattern oracle: distance-one pairs with weights from
    direct window enumeration of containing cubes."""
    values = set()
    sites = list(itertools.product(range(2), repeat=2))
    for pattern in itertools.product((1, 2), repeat=4):
        grid = dict(zip(sites, pattern))
        total = 0.0
        for a, b in itertools.combinations(sites, 2):
            n_ab = sum(
                1 for anchor in itertools.product((-1, 0, 1), repeat=2)
                if all(anchor[k] <= p[k] <= anchor[k] + 1
                       for p in (a, b) for k in range(2)))
            if grid[a] == grid[b]:
                total += -1.0 / n_ab
        values.add(total)
    ordered = sorted(values)
    return ordered[0], ordered[1] - ordered[0]


def test_criterion_01_spectrum(tmp_path, capsys):
    t0 = time.time()
    out = tmp_path / "run"
    code = main(["model-check", "--builtin", "potts:d=2,r=1,q=2,J=1",
                 "--out", str(out)])
    payload = json.loads((out / "model_check.json").read_text())
    oracle_min, oracle_gap = brute_spectrum_oracle()
    elapsed = time.time() - t0
    capsys.readouterr()
    ok = (code == 0 and payload["min_energy"] == oracle_min == -4.0
          and payload["gap"] == oracle_gap == 2.0)
    _report(1, ok, f"min energy {payload['min_energy']}, gap {payload['gap']} "
                   "== 16-pattern oracle", elapsed, limit=1.0)


def test_criterion_02_ground_state_certificates():
    t0 = time.time()
    ok = True
    for q in (2, 3):
        model = potts_model(q=q)
        rep = verify_ground_states(model)
        ok = ok and rep.certified and rep.ground_spins == tuple(range(1, q + 1))
        ok = ok and rep.constant_minimizers == tuple(range(1, q + 1))
    elapsed = time.time() - t0
    _report(2, ok, "q=2 and q=3 certificates: minimizers are exactly the "
                   "constant patterns", elapsed, limit=1.0)


def test_criterion_03_peierls_inequality(ising, random_6x6):
    t0 = time.time()
    report = verify_peierls(ising, random_6x6)
    elapsed = time.time() - t0
    ok = report.passed and report.checked == 1000 and report.tightest_ratio >= 1 - ARITH_TOL
    _report(3, ok, f"1000 random 6x6 configs, 0 violations, tightest ratio "
                   f"{report.tightest_ratio:.6f}", elapsed, limit=10.0)


def test_criterion_04_contour_structure(ising, random_6x6):
    t0 = time.time()
    violations = 0
    for config in random_6x6:
        cs = contours(config, ising)
        for g1, g2 in itertools.combinations(cs, 2):
            dist = min(chebyshev_distance(x, y)
                       for x in g1.interior for y in g2.interior)
            if dist <= ising.r or (g1.improper_cubes & g2.improper_cubes):
                violations += 1
        b = boundary(config, ising).improper_cubes
        union = frozenset().union(*(g.improper_cubes for g in cs)) if cs else frozenset()
        if union != b or sum(g.size for g in cs) != len(b):
            violations += 1
    elapsed = time.time() - t0
    _report(4, violations == 0,
            f"separation > r, disjoint improper sets, exact decomposition "
            f"on 1000 configs ({violations} violations)", elapsed)


def test_criterion_05_removal_identities(ising):
    t0 = time.time()
    sw = full_sweep(ising, Box((0, 0), (3, 3)), 1)
    box = sw.box
    gap = verify_ground_states(ising).gap
    site_pow = {site: 2 ** k for k, site in enumerate(box.sites())}
    bad = 0
    pairs = 0
    images = set()
    for idx in range(2 ** 16):
        lights = sw.contours[idx]
        if not lights:
            continue
        total = sum(size for _, size in lights)
        all_serials = frozenset(lights)
        for serial, size in lights:
            removed_idx = idx - sum((mark - 1) * site_pow[site]
                                    for site, mark in serial)
            rem = sw.contours[removed_idx]
            pairs += 1
            if sum(s for _, s in rem) != total - size:
                bad += 1  # boundary-size identity
            if frozenset(rem) != all_serials - {(serial, size)}:
                bad += 1  # contour list equals original minus gamma
            if sw.energies[idx] - sw.energies[removed_idx] < gap * size - ARITH_TOL:
                bad += 1  # energy drop
            key = (serial, removed_idx)
            if key in images:
                bad += 1  # injectivity on each fixed-contour slice
            images.add(key)
    # spot-check the public removal operation against the index arithmetic
    rng = np.random.default_rng(99)
    for idx in rng.integers(0, 2 ** 16, size=300):
        config = config_from_index(box, 1, 2, int(idx))
        for gamma in contours(config, ising):
            removed = remove_contour(config, gamma)
            expected_idx = int(idx) - sum(
                (mark - 1) * site_pow[site] for site, mark in gamma.serial())
            if removed != config_from_index(box, 1, 2, expected_idx):
                bad += 1
    elapsed = time.time() - t0
    _report(5, bad == 0, f"removal identities over the exhaustive 4x4 sweep "
                         f"({pairs} (config, contour) pairs, {bad} failures)",
            elapsed, limit=120.0)


def test_criterion_06_probability_bound(ising):
    t0 = time.time()
    stats = contour_statistics(ising, Box((0, 0), (3, 3)), 1, [0.5, 1.0, 2.0])
    violations = sum(len(st.violations) for st in stats)
    checked = sum(len(st.records) for st in stats)
    ok = violations == 0 and all(
        rec.probability <= rec.bound + ARITH_TOL
        for st in stats for rec in st.records)
    elapsed = time.time() - t0
    _report(6, ok, f"exact bound on 4x4 at beta 0.5/1/2: {checked} contour "
                   f"records, {violations} violations", elapsed, limit=300.0)


def test_criterion_07_marginal_trend(ising):
    t0 = time.time()
    betas = [0.5, 1.0, 1.5, 2.0, 3.0]
    vals = marginal_trend(ising, Box((0, 0), (3, 3)), (1, 1), 1, 2, betas)
    ok = all(a > b for a, b in zip(vals, vals[1:])) and vals[-1] < 0.05
    potts3 = potts_model(q=3)
    for j in (2, 3):
        v3 = marginal_trend(potts3, Box((0, 0), (2, 2)), (1, 1), 1, j, betas)
        ok = ok and all(a > b for a, b in zip(v3, v3[1:])) and v3[-1] < 0.05
    elapsed = time.time() - t0
    _report(7, ok, f"marginals strictly decreasing, top-beta value "
                   f"{vals[-1]:.3g} < 0.05 (q=2 and q=3)", elapsed, limit=60.0)


def test_criterion_08_coexistence_gap(ising):
    t0 = time.time()
    rec3 = coexistence_gap(ising, Box((0, 0), (2, 2)), (1, 1), [2.0])[0]
    rec4 = coexistence_gap(ising, Box((0, 0), (3, 3)), (1, 1), [2.0])[0]
    ok = (rec4.gap > 0.5
          and rec4.permutation_residual <= ARITH_TOL
          and rec3.permutation_residual <= ARITH_TOL
          and abs(rec3.gap - rec4.gap) < 0.1
          and abs(rec3.gap - GAP_3X3_BETA2) <= ARITH_TOL
          and abs(rec4.gap - GAP_4X4_BETA2) <= ARITH_TOL)
    elapsed = time.time() - t0
    _report(8, ok, f"gap {rec4.gap:.9f} > 0.5, permutation identity within "
                   f"1e-12, 3x3 vs 4x4 stable", elapsed)


def test_criterion_09_counting_bounds(ising):
    t0 = time.time()
    k = max_degree(2, 1)
    counts = rooted_subgraph_counts(2, 1, 5)
    ok = (k == 8 and counts[1] == 1 and counts[2] == 8
          and counts[3] == 60 and counts[4] == 440 and counts[5] == 3190)
    for n in range(1, 6):
        ok = ok and counts[n] <= (math.e * k) ** n
    report = rooted_contour_counts(ising, (0, 0), 8)
    for rec in report.records:
        ok = ok and rec.count <= 0.5 * (4 * math.e * k) ** rec.n
    mismatches = contour_roundtrip_mismatches(ising, report)
    ok = ok and mismatches == []
    elapsed = time.time() - t0
    _report(9, ok, f"k=8, set counts {counts[1:]} within (8e)^n, contour "
                   f"counts within (32e)^n/2, round-trip mismatches "
                   f"{len(mismatches)}", elapsed, limit=300.0)


def test_criterion_10_dlr_consistency(ising):
    t0 = time.time()
    ens = FiniteVolumeEnsemble(box=Box((0, 0), (2, 2)), exterior=1, beta=1.0,
                               model=ising)
    d1 = dlr_consistency(ens, Box((1, 1), (1, 1)))
    d2 = dlr_consistency(ens, Box((0, 0), (1, 1)))
    ok = d1 <= 1e-10 and d2 <= 1e-10
    elapsed = time.time() - t0
    _report(10, ok, f"conditional-mixture discrepancies {d1:.2e} (1x1) and "
                    f"{d2:.2e} (2x2)", elapsed)


def test_criterion_11_mcmc_validation(ising):
    t0 = time.time()
    box = Box((0, 0), (2, 2))
    ens = FiniteVolumeEnsemble(box=box, exterior=1, beta=1.0, model=ising)
    exact = enumerate_distribution(ens).marginals[((1, 1), 2)]
    spec = ChainSpec(ensemble=ens, seed=20260808, burn_in=1000, samples=100_000)
    obs = {"p2": site_indicator(box, (1, 1), 2)}
    res = run_chain(spec, obs)
    ok = abs(res.means["p2"] - exact) <= 3 * res.stderrs["p2"]

    ens0 = FiniteVolumeEnsemble(box=box, exterior=1, beta=0.0, model=ising)
    spec0 = ChainSpec(ensemble=ens0, seed=7, burn_in=100, samples=5000)
    res0 = run_chain(spec0, obs)
    ok = ok and abs(res0.means["p2"] - 0.5) <= 3 * res0.stderrs["p2"]

    short = ChainSpec(ensemble=ens, seed=123, burn_in=100, samples=500)
    seq1 = run_chain(short, obs, keep_series=True).series["p2"]
    seq2 = run_chain(short, obs, keep_series=True).series["p2"]
    ok = ok and np.array_equal(seq1, seq2)
    elapsed = time.time() - t0
    _report(11, ok, f"chain {res.means['p2']:.3g}+-{res.stderrs['p2']:.1g} vs "
                    f"exact {exact:.3g}; beta=0 uniform; identical seed, "
                    f"identical stream", elapsed)


def test_criterion_12_manifest_reruns(tmp_path):
    t0 = time.time()
    runs = [
        (["verify", "--builtin", "ising", "--box", "3x3", "--betas", "1"],
         "peierls_bounds.csv"),
        (["census", "--n-max", "4", "--builtin", "ising", "--site", "0,0"],
         "census_contours.csv"),
        (["sample", "--builtin", "ising", "--box", "3x3", "--beta", "1",
          "--seed", "5", "--sweeps", "300"], "samples.csv"),
        (["coexist", "--builtin", "ising", "--boxes", "2x2;3x3",
          "--betas", "1,2"], "coexistence.csv"),
    ]
    ok = True
    for i, (argv, artifact) in enumerate(runs):
        first = tmp_path / f"a{i}"
        second = tmp_path / f"b{i}"
        ok = ok and main(argv + ["--out", str(first)]) == 0
        ok = ok and main(["rerun", str(first / "manifest.json"),
                          "--workers", "1", "--out", str(second)]) == 0
        ok = ok and (first / artifact).read_bytes() == (second / artifact).read_bytes()
    elapsed = time.time() - t0
    _report(12, ok, "verify/census/sample/coexist reruns from manifests are "
                    "byte-identical", elapsed)
