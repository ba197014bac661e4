import itertools
import math
import os

import numpy as np
import pytest

from peierls import (Box, CapacityError, CertificationError, Configuration,
                     FiniteVolumeEnsemble, InputError, VerificationError, coexistence_gap,
                     conditional_hamiltonian, config_from_index,
                     contour_probability, contours, dlr_consistency,
                     enumerate_distribution, index_of_config, marginal_trend,
                     potts_model, verify_peierls_bound)
from peierls.contours import _box_index, _grid
from peierls.exact import (CHUNK, _chunk_ranges, _low_table, _pool_size,
                           contour_statistics, full_sweep)
from peierls.lattice import _box_sites
from peierls.model import _tables, check_symmetry, verify_ground_states

from conftest import single_flip


def oracle_distribution(model, box, exterior, beta):
    """Absolute-energy enumeration: weights from the raw cube-energy sum,
    no subtraction of the minimal value (independent code path)."""
    q = model.q
    t = _tables(model)
    sites = box.sites()
    weights = {}
    for values in itertools.product(range(1, q + 1), repeat=len(sites)):
        config = Configuration(box, values, exterior)
        total = 0.0
        from peierls.lattice import cubes_meeting_box
        for cube in cubes_meeting_box(box, model.r):
            pattern = tuple(config.spin_at(s) for s in cube.sites())
            code = sum((v - 1) * p for v, p in zip(pattern, t.powers))
            total += float(t.u[code])
        weights[values] = math.exp(-beta * total)
    z = sum(weights.values())
    return {k: w / z for k, w in weights.items()}


def test_uniform_at_beta_zero(ising):
    ens = FiniteVolumeEnsemble(box=Box((0, 0), (2, 2)), exterior=1, beta=0.0,
                               model=ising)
    d = enumerate_distribution(ens)
    for value in d.marginals.values():
        assert value == pytest.approx(0.5, abs=1e-12)
    assert d.sample_space_size == 2 ** 9
    assert d.log_partition == pytest.approx(9 * math.log(2))


def test_single_site_box_matches_hand_formula(ising):
    box = Box((0, 0), (0, 0))
    for beta in (0.3, 1.0, 2.0):
        ens = FiniteVolumeEnsemble(box=box, exterior=1, beta=beta, model=ising)
        d = enumerate_distribution(ens)
        want = math.exp(-8 * beta) / (1 + math.exp(-8 * beta))
        assert d.marginals[((0, 0), 2)] == pytest.approx(want, abs=1e-15)


def test_marginals_normalize_and_match_absolute_energy_oracle(ising):
    box = Box((0, 0), (1, 1))
    ens = FiniteVolumeEnsemble(box=box, exterior=1, beta=0.7, model=ising)
    d = enumerate_distribution(ens)
    sites = box.sites()
    for site in sites:
        assert sum(d.marginals[(site, v)] for v in (1, 2)) == pytest.approx(1.0, abs=1e-12)
    # dropping the constant offset must not change probabilities
    oracle = oracle_distribution(ising, box, 1, 0.7)
    for k, site in enumerate(sites):
        want = sum(p for values, p in oracle.items() if values[k] == 2)
        assert d.marginals[(site, 2)] == pytest.approx(want, abs=1e-12)


def test_permutation_covariance(potts3):
    box = Box((0, 0), (1, 1))
    site = (0, 0)
    d1 = enumerate_distribution(
        FiniteVolumeEnsemble(box=box, exterior=1, beta=0.8, model=potts3)).marginals
    d2 = enumerate_distribution(
        FiniteVolumeEnsemble(box=box, exterior=2, beta=0.8, model=potts3)).marginals
    # swap of 1 and 2 maps one ensemble onto the other
    assert d2[(site, 1)] == pytest.approx(d1[(site, 2)], abs=1e-12)
    assert d2[(site, 2)] == pytest.approx(d1[(site, 1)], abs=1e-12)
    assert d2[(site, 3)] == pytest.approx(d1[(site, 3)], abs=1e-12)


def test_budget_enforced(ising):
    ens = FiniteVolumeEnsemble(box=Box((0, 0), (3, 3)), exterior=1, beta=1.0,
                               model=ising)
    with pytest.raises(CapacityError) as err:
        enumerate_distribution(ens, budget=1000)
    assert err.value.count == 2 ** 16


def test_budget_is_capped_at_int64_sweeps(ising):
    ens = FiniteVolumeEnsemble(box=Box((0, 0), (1, 1)), exterior=1, beta=1.0,
                               model=ising)
    assert enumerate_distribution(ens, budget=1 << 62).sample_space_size == 16
    with pytest.raises(InputError):
        enumerate_distribution(ens, budget=(1 << 62) + 1)


def test_chunk_ranges_are_lazy():
    # 2^48 chunks: a list of them would not fit in memory
    chunks = _chunk_ranges(2, 62)
    assert next(chunks) == (0, CHUNK)
    assert next(chunks) == (CHUNK, 2 * CHUNK)
    assert list(_chunk_ranges(3, 9)) == [(0, 3 ** 8), (3 ** 8, 2 * 3 ** 8),
                                          (2 * 3 ** 8, 3 ** 9)]
    assert list(_chunk_ranges(2, 5)) == [(0, 32)]


@pytest.mark.parametrize("cached, key", [
    (_tables, lambda i: (potts_model(J=1.0 + i),)),
    (verify_ground_states, lambda i: (potts_model(J=1.0 + i),)),
    (check_symmetry, lambda i: (potts_model(J=1.0 + i),)),
    (_grid, lambda i: (potts_model(), Box.from_shape((1, i + 1)))),
    (_box_index, lambda i: (Box.from_shape((1, i + 1)), 1)),
    (_box_sites, lambda i: (Box.from_shape((1, i + 1)),)),
    (_low_table, lambda i: (potts_model(), Box.from_shape((1, i + 1)))),
])
def test_caches_are_bounded(cached, key):
    cap = cached.cache_parameters()["maxsize"]
    assert cap is not None
    for i in range(cap + 2):
        cached(*key(i))
    assert cached.cache_info().currsize <= cap


def test_ensemble_validation(ising):
    with pytest.raises(InputError):
        FiniteVolumeEnsemble(box=Box((0, 0), (1, 1)), exterior=1, beta=-1.0,
                             model=ising)
    with pytest.raises(InputError):
        FiniteVolumeEnsemble(box=Box((0, 0), (1, 1)), exterior=3, beta=1.0,
                             model=ising)


def test_contour_probability_examples(ising):
    box = Box((0, 0), (2, 2))
    ens = FiniteVolumeEnsemble(box=box, exterior=1, beta=1.0, model=ising)
    flip = contours(single_flip(box, (1, 1)), ising)[0]
    p = contour_probability(ens, flip)
    assert 0 < p <= math.exp(-8)
    # oracle: direct sweep count
    sw = full_sweep(ising, box, 1)
    weights = np.exp(-1.0 * sw.energies)
    z = weights.sum()
    want = sum(w for idx, w in enumerate(weights)
               if flip.serial() in {s for s, _ in sw.contours[idx]}) / z
    assert p == pytest.approx(want, abs=1e-14)
    # a contour outside the box has probability zero
    far = contours(single_flip(Box((10, 10), (12, 12)), (11, 11)), ising)[0]
    assert contour_probability(ens, far) == 0.0


def test_union_bound_on_single_site_contours(ising):
    box = Box((0, 0), (2, 2))
    beta = 1.0
    ens = FiniteVolumeEnsemble(box=box, exterior=1, beta=beta, model=ising)
    stats = verify_peierls_bound(ens)
    total = sum(rec.probability for rec in stats.records
                if len(rec.contour) == 1)
    assert total <= box.size * math.exp(-beta * 2.0 * 4)


def test_verify_peierls_bound_all_pass(ising):
    for beta in (0.0, 0.5, 1.0):
        ens = FiniteVolumeEnsemble(box=Box((0, 0), (2, 2)), exterior=1,
                                   beta=beta, model=ising)
        stats = verify_peierls_bound(ens)
        assert not stats.violations
        assert all(rec.probability <= rec.bound + 1e-12 for rec in stats.records)
        # records arrive sorted by slack
        slacks = [rec.slack for rec in stats.records]
        assert slacks == sorted(slacks)


def test_sweep_energies_match_conditional_hamiltonian(ising):
    box = Box((0, 0), (2, 2))
    sw = full_sweep(ising, box, 1)
    rng = np.random.default_rng(6)
    for idx in rng.integers(0, 2 ** 9, size=40):
        config = config_from_index(box, 1, 2, int(idx))
        assert index_of_config(config, 2) == int(idx)
        assert sw.energies[idx] == pytest.approx(
            conditional_hamiltonian(config, ising), abs=1e-12)
        got = {(s, n) for s, n in sw.contours[idx]}
        want = {(g.serial(), g.size) for g in contours(config, ising)}
        assert got == want


def test_marginal_trend(ising, potts3):
    box = Box((0, 0), (2, 2))
    vals = marginal_trend(ising, box, (1, 1), 1, 2, [0.0, 0.5, 1.0])
    assert vals[0] == pytest.approx(0.5, abs=1e-12)  # beta = 0 gives 1/q
    assert vals[0] > vals[1] > vals[2]
    with pytest.raises(InputError):
        marginal_trend(ising, box, (1, 1), 1, 1, [1.0])
    v3 = marginal_trend(potts3, box, (1, 1), 1, 3, [0.0])
    assert v3[0] == pytest.approx(1 / 3, abs=1e-12)


def test_coexistence_gap(ising):
    box = Box((0, 0), (2, 2))
    recs = coexistence_gap(ising, box, (1, 1), [0.0, 2.0])
    assert recs[0].gap == pytest.approx(0.0, abs=1e-12)  # uniform at beta 0
    assert recs[1].gap > 0.5
    assert recs[0].permutation_residual < 1e-12
    assert recs[1].permutation_residual < 1e-12


def test_dlr_consistency(ising):
    box = Box((0, 0), (2, 2))
    ens = FiniteVolumeEnsemble(box=box, exterior=1, beta=1.0, model=ising)
    assert dlr_consistency(ens, Box((1, 1), (1, 1))) <= 1e-10
    assert dlr_consistency(ens, Box((0, 0), (1, 1))) <= 1e-10
    # subbox = box is the identity
    assert dlr_consistency(ens, box) <= 1e-12
    # beta = 0 is a product measure
    ens0 = FiniteVolumeEnsemble(box=box, exterior=1, beta=0.0, model=ising)
    assert dlr_consistency(ens0, Box((1, 1), (1, 1))) <= 1e-12
    with pytest.raises(InputError):
        dlr_consistency(ens, Box((2, 2), (3, 3)))


def test_workers_agree_with_sequential(ising):
    # 3x5 box: 2^15 configurations, several chunks, so the pool really runs
    box = Box((0, 0), (2, 4))
    ens = FiniteVolumeEnsemble(box=box, exterior=1, beta=0.9, model=ising)
    d1 = enumerate_distribution(ens, workers=1)
    d2 = enumerate_distribution(ens, workers=2)
    assert d1.log_partition == d2.log_partition  # identical merge order
    for key, val in d1.marginals.items():
        assert d2.marginals[key] == pytest.approx(val, abs=1e-12)
    s1 = contour_statistics(ising, box, 1, [0.9], workers=1)[0]
    s2 = contour_statistics(ising, box, 1, [0.9], workers=2)[0]
    assert len(s1.records) == len(s2.records)
    p1 = {rec.contour: rec.probability for rec in s1.records}
    p2 = {rec.contour: rec.probability for rec in s2.records}
    for key, val in p1.items():
        assert p2[key] == pytest.approx(val, abs=1e-12)


def test_uncertified_model_is_refused_before_summing():
    # antiferromagnetic Potts: the constants are not the ground states, so
    # relative energies go negative and the weights overflow at large beta
    model = potts_model(q=2, J=-1.0)
    ens = FiniteVolumeEnsemble(box=Box((0, 0), (2, 2)), exterior=1, beta=2000.0,
                               model=model)
    with pytest.raises(CertificationError):
        enumerate_distribution(ens)
    with pytest.raises(CertificationError):
        dlr_consistency(ens, Box((1, 1), (1, 1)))


@pytest.mark.parametrize("exterior", [0, 3])
def test_exterior_outside_the_sector_is_refused(ising, exterior):
    box = Box((0, 0), (1, 1))
    with pytest.raises(InputError):
        contour_statistics(ising, box, exterior, [1.0])
    with pytest.raises(InputError):
        marginal_trend(ising, box, (0, 0), exterior, 2, [1.0])


@pytest.mark.parametrize("exterior", [0, 3])
def test_full_sweep_refuses_an_exterior_outside_the_sector(ising, exterior):
    with pytest.raises(InputError):
        full_sweep(ising, Box.from_shape((2, 2)), exterior)


def test_pool_size_is_clamped(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert _pool_size(1000, 10) == 4
    assert _pool_size(3, 10) == 3
    assert _pool_size(8, 2) == 2
    assert _pool_size(0, 5) == 1
    assert _pool_size(-2, 5) == 1
    assert _pool_size(8, 0) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _pool_size(8, 5) == 1
