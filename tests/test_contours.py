import itertools

import numpy as np
import pytest

from peierls import (Box, CertificationError, Configuration, InputError,
                     ModelSpec, boundary, chebyshev_distance,
                     conditional_hamiltonian, contours, cubes_meeting,
                     potts_model, remove_contour, subcontours,
                     verify_ground_states)
from peierls.contours import _box_index
from peierls.exact import config_from_index, full_sweep
from peierls.lattice import ball_offsets

from conftest import random_configs, single_flip


def brute_subcontours(config):
    """Flood fill per mark with explicit distance-one tests (oracle)."""
    dev = {s: config.spin_at(s) for s in config.box.sites()
           if config.spin_at(s) != config.exterior}
    remaining = set(dev)
    comps = []
    while remaining:
        start = remaining.pop()
        comp = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for y in list(remaining):
                if dev[y] == dev[start] and chebyshev_distance(x, y) == 1:
                    remaining.discard(y)
                    comp.add(y)
                    frontier.append(y)
        comps.append((frozenset(comp), dev[start]))
    return comps


def brute_contours(config, r):
    """Cluster deviating sites at distance <= r (oracle for interiors)."""
    dev = [s for s in config.box.sites() if config.spin_at(s) != config.exterior]
    remaining = set(dev)
    comps = []
    while remaining:
        start = remaining.pop()
        comp = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for y in list(remaining):
                if chebyshev_distance(x, y) <= r:
                    remaining.discard(y)
                    comp.add(y)
                    frontier.append(y)
        comps.append(frozenset(comp))
    return comps


def test_subcontours_trivial_cases(ising):
    box = Box((0, 0), (3, 3))
    assert subcontours(Configuration.constant(box, 1)) == []
    # same mark at distance 1: one subcontour of size 2
    c = Configuration.constant(box, 1).replace({(1, 1): 2, (1, 2): 2})
    subs = subcontours(c)
    assert len(subs) == 1 and len(subs[0].sites) == 2 and subs[0].mark == 2
    # different marks at distance 1: two subcontours
    c = Configuration.constant(box, 1).replace({(1, 1): 2, (1, 2): 3})
    assert len(subcontours(c)) == 2


def sparse_configs(box, q, s, count, seed, p=0.15):
    """Configurations deviating at each site with probability p, under
    exteriors cycling through 1..s, so that a box holds several contours."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        ext = 1 + i % s
        marks = [v for v in range(1, q + 1) if v != ext]
        out.append(Configuration(box, tuple(
            int(rng.choice(marks)) if rng.random() < p else ext
            for _ in range(box.size)), ext))
    return out


def wide_cases(seed):
    """(model, configurations) at r = 2 on 5x5 and in d = 3 on 3x3x3, each
    with uniform and sparse configurations: inputs beside a test's own
    planar r = 1 ones."""
    for params, box in [(dict(d=2, r=2, q=3), Box((0, 0), (4, 4))),
                        (dict(d=3, r=1, q=2), Box((0, 0, 0), (2, 2, 2)))]:
        q = params["q"]
        yield (potts_model(J=1.0, **params), random_configs(box, q, 10, seed)
               + sparse_configs(box, q, q, 30, seed))


def test_subcontours_match_oracle_and_cover_deviations(potts3):
    box = Box((0, 0), (4, 4))
    configs = random_configs(box, 3, 40, seed=13)
    for config in configs + [c for _, cs in wide_cases(seed=13) for c in cs]:
        subs = subcontours(config)
        got = {(s.sites, s.mark) for s in subs}
        assert got == set(brute_subcontours(config))
        union = set().union(*(s.sites for s in subs)) if subs else set()
        assert union == set(config.deviating_sites())
        # disjointness
        assert sum(len(s.sites) for s in subs) == len(union)


def test_boundary_trivial_and_single_flip(ising):
    box = Box((0, 0), (3, 3))
    assert len(boundary(Configuration.constant(box, 1), ising)) == 0
    b = boundary(single_flip(box, (1, 1)), ising)
    assert b.improper_cubes == frozenset(cubes_meeting({(1, 1)}, 1))


def test_boundary_opposite_constant_is_edge_band(ising):
    # constant 2 inside, exterior 1: improper cubes straddle the box edge
    box = Box((0, 0), (4, 4))
    config = Configuration.constant(box, 2, exterior=1)
    b = boundary(config, ising)
    # oracle: evaluate patterns directly
    expected = set()
    for cube in cubes_meeting(set(box.sites()), 1):
        pattern = {config.spin_at(s) for s in cube.sites()}
        if len(pattern) > 1:
            expected.add(cube)
    assert b.improper_cubes == frozenset(expected)
    assert len(b) == 20  # 6^2 anchors minus the 4^2 interior constant cubes


def test_boundary_requires_certified():
    box = Box((0, 0), (2, 2))
    with pytest.raises(CertificationError):
        boundary(Configuration.constant(box, 1), ModelSpec(d=2, r=1, q=2, s=2))


def test_contours_examples(ising, potts3):
    box = Box((0, 0), (3, 3))
    cs = contours(single_flip(box, (1, 1)), ising)
    assert len(cs) == 1 and cs[0].size == 4 and len(cs[0].subcontours) == 1
    # two flips at distance 2: two contours
    c = Configuration.constant(box, 1).replace({(0, 0): 2, (2, 0): 2})
    assert len(contours(c, ising)) == 2
    # different marks at distance 1: one contour with two subcontours
    c = Configuration.constant(box, 1).replace({(1, 1): 2, (2, 2): 3})
    cs = contours(c, potts3)
    assert len(cs) == 1 and len(cs[0].subcontours) == 2


def test_contour_interiors_match_oracle(potts3):
    box = Box((0, 0), (4, 4))
    cases = [(potts3, random_configs(box, 3, 40, seed=21)), *wide_cases(seed=21)]
    for model, configs in cases:
        for config in configs:
            got = {g.interior for g in contours(config, model)}
            assert got == set(brute_contours(config, model.r))


def test_contour_structure_invariants(ising):
    box = Box((0, 0), (4, 4))
    cases = [(ising, random_configs(box, 2, 60, seed=17)), *wide_cases(seed=17)]
    for model, config in ((m, c) for m, cs in cases for c in cs):
        cs = contours(config, model)
        # canonical ordering
        assert [g.min_site for g in cs] == sorted(g.min_site for g in cs)
        # pairwise separation > r and disjoint improper sets
        for g1, g2 in itertools.combinations(cs, 2):
            dist = min(chebyshev_distance(x, y)
                       for x in g1.interior for y in g2.interior)
            assert dist > model.r
            assert not (g1.improper_cubes & g2.improper_cubes)
        # the boundary decomposes exactly, each contour keeping the improper
        # cubes it has alone
        b = boundary(config, model).improper_cubes
        union = frozenset().union(*(g.improper_cubes for g in cs)) if cs else frozenset()
        assert union == b
        assert sum(g.size for g in cs) == len(b)
        alone = Configuration.constant(config.box, config.exterior)
        for g in cs:
            assert g.size == len(g.improper_cubes) > 0
            assert g.improper_cubes == boundary(alone.replace(g.marks()),
                                                model).improper_cubes


def test_remove_contour_single(ising):
    box = Box((0, 0), (3, 3))
    config = single_flip(box, (2, 2))
    gamma = contours(config, ising)[0]
    removed = remove_contour(config, gamma)
    assert removed == Configuration.constant(box, 1)
    assert contours(removed, ising) == []


def test_remove_contour_keeps_others_and_commutes(ising):
    box = Box((0, 0), (5, 5))
    rng = np.random.default_rng(33)
    checked = 0
    for config in random_configs(box, 2, 80, seed=29):
        cs = contours(config, ising)
        if len(cs) < 2:
            continue
        checked += 1
        g1, g2 = cs[0], cs[1]
        after = remove_contour(config, g1)
        remaining = {g.serial() for g in contours(after, ising)}
        assert remaining == {g.serial() for g in cs} - {g1.serial()}
        # removal order does not matter
        ab = remove_contour(remove_contour(config, g1), g2)
        ba = remove_contour(remove_contour(config, g2), g1)
        assert ab == ba
    assert checked >= 10


def test_remove_contour_rejects_foreign_contour(ising):
    box = Box((0, 0), (3, 3))
    config = single_flip(box, (1, 1))
    other = contours(single_flip(box, (2, 2)), ising)[0]
    with pytest.raises(InputError):
        remove_contour(config, other)


def test_remove_contour_rejects_partial_cluster(potts3):
    # removing one subcontour of a two-subcontour contour must fail:
    # the leftover deviating site sits within distance r of the interior
    box = Box((0, 0), (3, 3))
    config = Configuration.constant(box, 1).replace({(1, 1): 2, (2, 2): 3})
    lone = contours(single_flip(box, (1, 1)), potts3)[0]
    with pytest.raises(InputError):
        remove_contour(config, lone)


def test_remove_contour_refuses_a_leftover_at_distance_r():
    # at r = 2 a deviating site two steps from the interior joins its
    # contour, and the first such site in row-major order is named
    model = potts_model(r=2, q=2)
    box = Box((0, 0), (4, 4))
    lone = contours(single_flip(box, (1, 1)), model)[0]
    far = Configuration.constant(box, 1).replace({(1, 1): 2, (4, 4): 2})
    assert remove_contour(far, lone) == single_flip(box, (4, 4))
    config = Configuration.constant(box, 1).replace({(1, 1): 2, (3, 1): 2,
                                                     (1, 3): 2})
    with pytest.raises(InputError, match=r"deviating site \(1, 3\) within distance 2"):
        remove_contour(config, lone)


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("lower, upper", [
    ((0, 0), (3, 2)), ((-2, 3), (0, 3)), ((5, 5), (5, 5)),
    ((0, 0, 0), (1, 2, 0)), ((-2, 3, 1), (-1, 5, 2))])
def test_ball_index_matches_a_brute_force(lower, upper, r):
    box = Box(lower, upper)
    bx = _box_index(box, r)
    sites = box.sites()
    want = [[box.index_of(x) if box.contains(x) else box.size
             for x in (tuple(a + b for a, b in zip(site, off))
                       for off in ball_offsets(box.dimension, r))]
            for site in sites]
    assert bx.ball_index.tolist() == want
    # offsets run in lexicographic order, and so do the sites they reach
    assert bx.ball == tuple(
        tuple(j for j, y in enumerate(sites) if 0 < chebyshev_distance(x, y) <= r)
        for x in sites)


def test_energy_drop_at_least_gap_times_size(ising):
    box = Box((0, 0), (4, 4))
    gap = verify_ground_states(ising).gap
    for config in random_configs(box, 2, 40, seed=41):
        e0 = conditional_hamiltonian(config, ising)
        for gamma in contours(config, ising):
            e1 = conditional_hamiltonian(remove_contour(config, gamma), ising)
            assert e0 - e1 >= gap * gamma.size - 1e-12


def test_improper_set_depends_only_on_the_contour(ising):
    # enumerate all configurations of a 3x3 box containing a fixed contour
    # and check that its improper set never changes
    box = Box((0, 0), (2, 2))
    target = contours(single_flip(box, (1, 1)), ising)[0]
    seen = set()
    sw = full_sweep(ising, box, 1)
    for idx, lights in enumerate(sw.contours):
        serials = {s for s, _ in lights}
        if target.serial() in serials:
            config = config_from_index(box, 1, 2, idx)
            for gamma in contours(config, ising):
                if gamma.serial() == target.serial():
                    seen.add(gamma.improper_cubes)
    assert len(seen) == 1 and seen.pop() == target.improper_cubes


def test_configuration_validation():
    box = Box((0, 0), (1, 1))
    with pytest.raises(InputError):
        Configuration(box, (1, 1, 1), 1)  # wrong length
    with pytest.raises(InputError):
        Configuration(box, (1, 0, 1, 1), 1)  # spin below 1
    with pytest.raises(InputError):
        Configuration(box, (1, 1, 1, 1), 0)  # exterior below 1
