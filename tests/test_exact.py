import dataclasses
import itertools
import math
import os

import numpy as np
import pytest

from peierls import (Box, CapacityError, CertificationError, Configuration,
                     FiniteVolumeEnsemble, InputError, InteractionTerm, ModelSpec,
                     coexistence_gap, conditional_hamiltonian, contour_probability,
                     contours, dlr_consistency, enumerate_distribution,
                     marginal_trend, potts_model, verify_peierls_bound)
from peierls import exact
from peierls.cli import main
from peierls.contours import _box_index, _grid, _light_contours, _serial
from peierls.exact import (BOUND_TOL, CHUNK, _chunk_ranges, _contour_task, _low_table,
                           _pool_size, contour_statistics)
from peierls.lattice import _box_sites
from peierls.model import (_tables, builtin_model, check_symmetry, digits_of,
                           verify_ground_states)

from conftest import random_configs, single_flip
from oracle import config_at, sweep_contours, sweep_energies


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
    (exact._level_denominator, lambda i: (potts_model(J=1.0 + i),)),
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
    weights = np.exp(-1.0 * sweep_energies(ising, box, 1))
    z = weights.sum()
    want = sum(w for w, lights in zip(weights, sweep_contours(ising, box, 1))
               if flip.serial() in {s for s, _ in lights}) / z
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


@pytest.mark.parametrize("spec", ["potts:q=3", "potts:q=3,r=2"])
def test_records_and_violations_match_the_columns(spec):
    model, box = builtin_model(spec), Box.from_shape((3, 3))
    stats = contour_statistics(model, box, 1, [0.5, 2.0])
    # the CLI names each contour once: every beta holds the same contours
    assert set(stats[0].contours) == set(stats[1].contours)
    for st in stats:
        columns = list(zip(st.contours, st.sizes, st.probabilities, st.bounds))
        assert len(columns) == len(st.records) > 0
        assert [(rec.contour, rec.size, rec.probability, rec.bound)
                for rec in st.records] == columns
        # every third row's bound moved just below its probability
        shrunk = dataclasses.replace(st, bounds=tuple(
            p - 1e-9 if i % 3 == 0 else b
            for i, (p, b) in enumerate(zip(st.probabilities, st.bounds))))
        for stat in (st, shrunk):
            want = tuple(rec for rec in stat.records if rec.slack < -BOUND_TOL)
            assert stat.violations == want
        assert len(shrunk.violations) == (len(columns) + 2) // 3


@pytest.mark.parametrize("spec", ["potts:q=3", "potts:q=3,r=2"])
def test_contour_keys_sort_as_their_serials(spec):
    model, box = builtin_model(spec), Box.from_shape((3, 3))
    grid = _grid(model, box)
    keys = {key for start, stop in _chunk_ranges(model.q, box.size)
            for key in _contour_task((model, box, 1, (1.0,), start, stop))[1]}
    serials = [_serial(key, grid) for key in keys]
    assert len(set(serials)) == len(keys)
    assert [_serial(key, grid) for key in sorted(keys)] == sorted(serials)
    # a key's serial is the one Contour.serial() reads from the subcontours
    for config in random_configs(box, model.q, 20, seed=4):
        digits = [v - 1 for v in config.spins]
        [improper] = grid.improper_cubes(grid.codes([digits], 0))
        found = _light_contours(digits, 0, improper, grid)
        assert ([_serial(key, grid) for key, _ in found]
                == [g.serial() for g in contours(config, model)])


def test_contour_probability_finds_a_contour_by_its_serial():
    model, box = builtin_model("potts:q=3"), Box.from_shape((3, 3))
    ens = FiniteVolumeEnsemble(box=box, exterior=1, beta=0.5, model=model)
    [st] = contour_statistics(model, box, 1, [0.5])
    probability = dict(zip(st.contours, st.probabilities))
    config = Configuration.constant(box, 1).replace({(0, 0): 2, (0, 1): 3, (2, 2): 3})
    found = contours(config, model)
    assert len(found) == 2
    for gamma in found:
        assert contour_probability(ens, gamma) == probability[gamma.serial()] > 0


def test_sweep_energies_match_conditional_hamiltonian():
    # the potts:q=3 exterior 2 has a nonzero exterior digit: an oracle that
    # ignored the exterior would fail there
    box = Box((0, 0), (2, 2))
    for spec, exterior in [("ising", 1), ("potts:q=3", 2)]:
        model = builtin_model(spec)
        energies = sweep_energies(model, box, exterior)
        lights = sweep_contours(model, box, exterior)
        rng = np.random.default_rng(6)
        for idx in rng.integers(0, model.q ** 9, size=40):
            config = config_at(box, exterior, model.q, int(idx))
            assert energies[idx] == pytest.approx(
                conditional_hamiltonian(config, model), abs=1e-12)
            got = {(s, n) for s, n in lights[idx]}
            want = {(g.serial(), g.size) for g in contours(config, model)}
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


@pytest.mark.parametrize("spec, shape", [("ising", (4, 4)), ("potts:q=3", (3, 3))])
def test_marginals_match_an_fsum_oracle(spec, shape):
    # oracle: math.fsum of the reference sweep's per-configuration weights;
    # P_2(x = 1) is P_1(x = 2) by the swap of spins 1 and 2
    model, box = builtin_model(spec), Box.from_shape(shape)
    energies = sweep_energies(model, box, 1)
    digits = digits_of(np.arange(len(energies)), model.q, box.size)
    x = box.index_of(box.center)
    betas = [0.5, 1.0, 2.0]
    gaps = coexistence_gap(model, box, box.center, betas)
    for beta, rec in zip(betas, gaps):
        w = np.exp(-beta * energies)
        z = math.fsum(w)
        p = [[math.fsum(w[digits[:, k] == v]) / z for v in range(model.q)]
             for k in range(box.size)]
        assert abs(rec.gap - (p[x][0] - p[x][1])) <= 1e-15
        assert rec.permutation_residual == 0.0
        dist = enumerate_distribution(
            FiniteVolumeEnsemble(box=box, exterior=1, beta=beta, model=model))
        assert abs(dist.log_partition - math.log(z)) <= 1e-15 * abs(math.log(z))
        for k, site in enumerate(box.sites()):
            for v in range(model.q):
                assert abs(dist.marginals[(site, v + 1)] - p[k][v]) <= 1e-15


@pytest.mark.parametrize("spec, den", [
    ("ising", 1), ("potts:q=3", 2), ("potts-excited:q=3,s=2", 4), ("potts:d=3", 4),
    ("potts:q=3,r=2", 12), ("potts:q=2,r=3", 36), ("potts:J=0.1", 10)])
def test_the_built_ins_lie_on_level_grids(spec, den):
    assert exact._level_denominator(builtin_model(spec))[0] == den


def test_a_box_at_the_level_bound_keeps_its_top_level():
    # a cube costs 1 with exactly one odd spin, 1/2 with two of each: with
    # spin 2 on the corners of a 3x3 box every cube meeting it costs 1, so
    # that configuration sits on the sweep's bound, cubes x top cube level
    table = {p: {1: 1.0, 2: 0.5}.get(min(p.count(1), p.count(2)), 0.0)
             for p in itertools.product((1, 2), repeat=4)}
    model = ModelSpec(d=2, r=1, q=2, s=2, terms=(
        InteractionTerm.from_table([(0, 0), (1, 0), (0, 1), (1, 1)], table),))
    box = Box.from_shape((3, 3))
    den, levels, _ = exact._level_grid(model, box, [(0,)])
    energies = sweep_energies(model, box, 1)
    assert energies.max() * den == levels - 1
    digits = digits_of(np.arange(len(energies)), 2, box.size)
    w = np.exp(-0.7 * energies)
    for k in (0, 4):  # a corner, spin 2 at the top, and the centre, spin 1
        want = math.fsum(w[digits[:, k] == 1]) / math.fsum(w)
        (got,) = marginal_trend(model, box, box.sites()[k], 1, 2, [0.7])
        assert abs(got - want) <= 1e-15


@pytest.mark.parametrize("wrong", [1, 2])
def test_a_wrong_level_unit_is_refused_not_rounded(wrong, tmp_path, capsys, monkeypatch):
    # negative control: potts:J=0.1 energies on a 3x3 box are multiples of
    # 0.2 (grid 1/10 by its cube energies); on a coarser grid the sweep raises
    # an internal error (exit 4) instead of rounding to a level.  Most other
    # built-ins would not do: their box energies are whole numbers.
    model, box = builtin_model("potts:J=0.1"), Box.from_shape((3, 3))
    _, slack = exact._level_denominator(model)
    monkeypatch.setattr(exact, "_level_denominator", lambda model: (wrong, slack))
    with pytest.raises(ArithmeticError, match=f"units off the grid 1/{wrong}"):
        coexistence_gap(model, box, box.center, [1.0])
    argv = ["coexist", "--builtin", "potts:J=0.1", "--boxes", "3x3", "--betas", "1"]
    assert main(argv + ["--out", str(tmp_path)]) == 4
    assert f"units off the grid 1/{wrong}" in capsys.readouterr().err


def test_a_model_just_off_a_grid_is_not_snapped_onto_it():
    # J = 0.1 + 1e-11 puts the cube energies 1e-10 units off the grid 1/10:
    # far above float rounding, so the sweep takes the float path, and its
    # numbers stay those of J, not of J = 0.1
    model, box = builtin_model("potts:J=0.10000000001"), Box.from_shape((3, 3))
    assert exact._level_denominator(model) is None
    energies = sweep_energies(model, box, 1)
    digits = digits_of(np.arange(len(energies)), model.q, box.size)
    x = box.index_of(box.center)
    for beta in (1.0, 2.0):
        w = np.exp(-beta * energies)
        z = math.fsum(w)
        p = [[math.fsum(w[digits[:, k] == v]) / z for v in range(model.q)]
             for k in range(box.size)]
        (rec,) = coexistence_gap(model, box, box.center, [beta])
        assert abs(rec.gap - (p[x][0] - p[x][1])) <= 1e-13
        dist = enumerate_distribution(
            FiniteVolumeEnsemble(box=box, exterior=1, beta=beta, model=model))
        for k, site in enumerate(box.sites()):
            assert abs(dist.marginals[(site, 1)] - p[k][0]) <= 1e-13


def test_empty_betas_give_empty_lists(ising, monkeypatch):
    box = Box((0, 0), (1, 1))
    assert marginal_trend(ising, box, (0, 0), 1, 2, []) == []
    assert coexistence_gap(ising, box, (0, 0), []) == []

    def no_sweep(*args):
        raise AssertionError("swept with no betas")

    monkeypatch.setattr(exact, "_run_chunks", no_sweep)
    assert contour_statistics(ising, box, 1, []) == []
    with pytest.raises(InputError):  # the entry checks still run
        contour_statistics(ising, box, 3, [])


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


def test_dlr_consistency_detects_a_marginal_at_another_beta(ising, monkeypatch):
    # negative control: a joint sweep whose sub-box marginal comes from
    # another beta must read far above the 1e-10 the checks accept
    real = exact._marginals

    def shifted(model, box, exterior, betas, groups, workers):
        [(z, (_, annulus))] = real(model, box, exterior, betas, groups, workers)
        [(_, (sub, _))] = real(model, box, exterior, [b / 2 for b in betas],
                               groups, workers)
        return [(z, (sub, annulus))]

    monkeypatch.setattr(exact, "_marginals", shifted)
    ens = FiniteVolumeEnsemble(box=Box((0, 0), (2, 2)), exterior=1, beta=0.5,
                               model=ising)
    assert dlr_consistency(ens, Box((1, 1), (1, 1))) > 1e-2
    assert dlr_consistency(ens, Box((0, 0), (1, 1))) > 1e-2


def test_workers_below_one_are_refused(ising):
    ens = FiniteVolumeEnsemble(box=Box((0, 0), (1, 1)), exterior=1, beta=1.0,
                               model=ising)
    for workers in (0, -3):
        with pytest.raises(InputError):
            enumerate_distribution(ens, workers=workers)
        with pytest.raises(InputError):
            contour_statistics(ising, ens.box, 1, [1.0], workers=workers)


def test_workers_agree_with_sequential(ising, tmp_path):
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
    assert s1.records == s2.records
    # potts:q=3 on 3x3: 3^9 configurations in 3 chunks, and contours with
    # several marks; the CSV holds the records in order, to the last bit
    argv = ["verify", "--builtin", "potts:q=3", "--box", "3x3", "--betas", "0.5,2"]
    assert len(list(_chunk_ranges(3, 9))) == 3
    csvs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        assert main(argv + ["--workers", str(workers), "--out", str(out)]) == 0
        csvs.append((out / "peierls_bounds.csv").read_bytes())
    assert csvs[0] == csvs[1]


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
