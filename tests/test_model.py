import itertools

import pytest

from peierls import (Box, CapacityError, CertificationError, Configuration,
                     InputError, InteractionTerm, ModelSpec, boundary,
                     CubePotential, check_symmetry,
                     conditional_hamiltonian, excited_potts_model, ising_model,
                     permute_spins, potential_spectrum, potts_model,
                     relative_hamiltonian, verify_ground_states, verify_peierls)
from peierls.model import _tables

from conftest import random_configs, single_flip


# ---------------------------------------------------------------------------
# An independent brute-force oracle for cube energies: enumerate all
# distance-one pairs inside the cube and weight each by 1 over the number of
# cubes containing it, counted by direct window enumeration.
# ---------------------------------------------------------------------------

def oracle_potts_cube_energy(pattern_grid, r=1, J=1.0):
    """pattern_grid: dict site -> spin on the (r+1)^2 cube at the origin."""
    sites = list(pattern_grid)
    total = 0.0
    for a, b in itertools.combinations(sites, 2):
        if max(abs(a[0] - b[0]), abs(a[1] - b[1])) != 1:
            continue
        n_ab = 0
        for anchor in itertools.product(range(-r, r + 1), repeat=2):
            if all(anchor[k] <= p[k] <= anchor[k] + r for p in (a, b) for k in range(2)):
                n_ab += 1
        if pattern_grid[a] == pattern_grid[b]:
            total += -J / n_ab
    return total


def all_cube_patterns(q, d=2, r=1):
    sites = list(itertools.product(range(r + 1), repeat=d))
    for values in itertools.product(range(1, q + 1), repeat=len(sites)):
        yield dict(zip(sites, values)), values


def test_cube_potential_matches_brute_force_oracle(ising):
    pot = CubePotential(ising)
    for grid, values in all_cube_patterns(2):
        assert pot.value(values) == pytest.approx(oracle_potts_cube_energy(grid), abs=1e-12)


def test_cube_potential_examples(ising):
    pot = CubePotential(ising)
    assert pot.value((1, 1, 1, 1)) == pytest.approx(-4.0)
    assert pot.value((2, 2, 2, 2)) == pytest.approx(-4.0)
    assert pot.value((2, 1, 1, 1)) == pytest.approx(-2.0)  # one deviating spin
    assert pot.constant(1) == pytest.approx(-4.0)


def test_cube_potential_empty_model_is_zero():
    empty = ModelSpec(d=2, r=1, q=2, s=2)
    pot = CubePotential(empty)
    for _, values in all_cube_patterns(2):
        assert pot.value(values) == 0.0


def test_term_diameter_over_range_rejected():
    term = InteractionTerm.from_table([(0, 0), (2, 0)], {(1, 1): -1.0})
    with pytest.raises(InputError):
        ModelSpec(d=2, r=1, q=2, s=2, terms=(term,))


def test_spectrum_ising(ising):
    sp = potential_spectrum(ising)
    assert sp.min_energy == pytest.approx(-4.0)
    assert sp.gap == pytest.approx(2.0)
    assert sp.value_count == 3  # -4, -2, -1
    assert not sp.degenerate
    assert set(sp.minimizers) == {(1, 1, 1, 1), (2, 2, 2, 2)}
    # oracle: brute force over all 16 patterns
    values = sorted({round(oracle_potts_cube_energy(g), 12)
                     for g, _ in all_cube_patterns(2)})
    assert values[0] == pytest.approx(sp.min_energy)
    assert values[1] - values[0] == pytest.approx(sp.gap)


def test_spectrum_scales_linearly():
    base = potts_model(q=2, J=1.0)
    scaled = potts_model(q=2, J=2.5)
    sp0, sp1 = potential_spectrum(base), potential_spectrum(scaled)
    assert sp1.min_energy == pytest.approx(2.5 * sp0.min_energy)
    assert sp1.gap == pytest.approx(2.5 * sp0.gap)
    assert set(sp1.minimizers) == set(sp0.minimizers)


def test_spectrum_degenerate_empty_model():
    sp = potential_spectrum(ModelSpec(d=2, r=1, q=2, s=2))
    assert sp.degenerate and sp.value_count == 1 and sp.gap == 0.0


def test_spectrum_budget():
    with pytest.raises(CapacityError) as err:
        potential_spectrum(potts_model(q=3), budget=10)
    assert err.value.count == 3 ** 4


def test_ground_state_certificates(ising, potts3):
    for model, s in ((ising, 2), (potts3, 3)):
        rep = verify_ground_states(model)
        assert rep.certified
        assert rep.ground_spins == tuple(range(1, s + 1))
        assert rep.constant_minimizers == tuple(range(1, s + 1))
    # oracle for q=3: the 81-pattern brute force has exactly 3 minimizers
    m3 = potts_model(q=3)
    pot = CubePotential(m3)
    best = min(pot.value(v) for _, v in all_cube_patterns(3))
    minimizers = [v for _, v in all_cube_patterns(3) if pot.value(v) <= best + 1e-9]
    assert minimizers == [(1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3)]


def test_empty_model_not_certified():
    rep = verify_ground_states(ModelSpec(d=2, r=1, q=2, s=2))
    assert not rep.certified
    assert rep.offenders  # non-constant minimizers exist


def test_excited_model_certified():
    m = excited_potts_model(q=3, s=2, penalty=0.7)
    rep = verify_ground_states(m)
    assert rep.certified and rep.ground_spins == (1, 2)
    # the third constant is strictly above the minimum
    pot = CubePotential(m)
    assert pot.constant(3) > pot.constant(1)


def test_symmetry(ising, potts3):
    assert check_symmetry(ising)
    assert check_symmetry(potts3)
    assert check_symmetry(excited_potts_model(q=3, s=2))
    # a field favoring spin 1 breaks the swap of 1 and 2
    field = InteractionTerm.from_table([(0, 0)], {(1,): -0.5})
    biased = ModelSpec(d=2, r=1, q=2, s=2, terms=potts_model(q=2).terms + (field,))
    assert not check_symmetry(biased)
    # s = 1 is vacuous
    assert check_symmetry(potts_model(q=2, s=1))


def test_conditional_hamiltonian_constant_is_zero(ising):
    box = Box((0, 0), (3, 3))
    for i in (1, 2):
        assert conditional_hamiltonian(Configuration.constant(box, i), ising) == 0.0


def test_conditional_hamiltonian_single_flip(ising):
    box = Box((0, 0), (3, 3))
    assert conditional_hamiltonian(single_flip(box, (1, 1)), ising) == pytest.approx(8.0)
    # flips near the edge still cost 4 cubes at the second level
    assert conditional_hamiltonian(single_flip(box, (0, 0)), ising) == pytest.approx(8.0)


def test_conditional_hamiltonian_nonnegative_random(ising):
    box = Box((0, 0), (3, 3))
    for config in random_configs(box, 2, 50, seed=2):
        assert conditional_hamiltonian(config, ising) >= 0.0


def test_permutation_invariance_of_energy(potts3):
    box = Box((0, 0), (3, 3))
    for config in random_configs(box, 3, 25, seed=9):
        for g in itertools.permutations(range(1, 4)):
            permuted = Configuration(
                box, permute_spins(g, config.spins, 3), g[config.exterior - 1])
            assert conditional_hamiltonian(permuted, potts3) == pytest.approx(
                conditional_hamiltonian(config, potts3), abs=1e-9)


def test_energy_additivity_over_improper_cubes(ising):
    # the conditional energy equals the sum of (u - u_min) over improper cubes
    box = Box((0, 0), (3, 3))
    t = _tables(ising)
    pot = CubePotential(ising)
    for config in random_configs(box, 2, 30, seed=4):
        total = 0.0
        for cube in boundary(config, ising).improper_cubes:
            pattern = tuple(config.spin_at(s) for s in cube.sites())
            total += pot.value(pattern) - t.u_min
        assert conditional_hamiltonian(config, ising) == pytest.approx(total, abs=1e-12)


def test_relative_hamiltonian(ising):
    box = Box((0, 0), (3, 3))
    config = single_flip(box, (2, 1))
    assert relative_hamiltonian(config, 1, ising) == pytest.approx(8.0)
    assert relative_hamiltonian(Configuration.constant(box, 2), 2, ising) == 0.0
    with pytest.raises(InputError):
        relative_hamiltonian(config, 2, ising)  # exterior is 1, not 2
    with pytest.raises(InputError):
        relative_hamiltonian(config, 3, ising)  # not a ground state
    with pytest.raises(CertificationError):
        relative_hamiltonian(config, 1, ModelSpec(d=2, r=1, q=2, s=2))


def test_verify_peierls_samples(ising):
    box = Box((0, 0), (5, 5))
    samples = random_configs(box, 2, 100, seed=8)
    report = verify_peierls(ising, samples)
    assert report.passed and report.checked == 100
    assert report.tightest_ratio >= 1.0 - 1e-12


def test_verify_peierls_single_flip_is_tight(ising):
    box = Box((0, 0), (3, 3))
    report = verify_peierls(ising, [single_flip(box, (1, 1))])
    assert report.passed
    assert report.tightest_ratio == pytest.approx(1.0)  # 8 >= 2 * 4, equality


def test_verify_peierls_requires_certified():
    with pytest.raises(CertificationError):
        verify_peierls(ModelSpec(d=2, r=1, q=2, s=2), [])


def test_builtin_strings():
    from peierls import builtin_model
    m = builtin_model("potts:q=3,J=2")
    assert m.q == 3 and potential_spectrum(m).gap == pytest.approx(4.0)
    assert builtin_model("ising").q == 2
    assert builtin_model("potts-excited:q=4,s=2").s == 2
    with pytest.raises(InputError):
        builtin_model("nope")
    with pytest.raises(InputError):
        builtin_model("potts:q")
    with pytest.raises(InputError):
        builtin_model("potts:zz=3")
