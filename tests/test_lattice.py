import itertools

import numpy as np
import pytest

from peierls import (Box, Cube, InputError, chebyshev_distance,
                     containing_cube_count, cubes_meeting, cubes_meeting_box,
                     diameter)


def brute_cubes_containing(sites, r, margin=2):
    """Enumerate every cube of a window around the sites and keep those
    containing all of them."""
    sites = list(sites)
    d = len(sites[0])
    lo = [min(s[k] for s in sites) - r - margin for k in range(d)]
    hi = [max(s[k] for s in sites) + margin for k in range(d)]
    out = []
    for anchor in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        cube = Cube(anchor, r)
        if all(cube.contains(s) for s in sites):
            out.append(cube)
    return out


def test_chebyshev_examples():
    assert chebyshev_distance((0, 0), (0, 0)) == 0
    assert chebyshev_distance((0, 0), (2, 1)) == 2
    assert chebyshev_distance((1, -3), (-2, -3)) == 3


def test_chebyshev_dimension_mismatch():
    with pytest.raises(InputError):
        chebyshev_distance((0, 0), (0, 0, 0))


def test_chebyshev_triangle_inequality():
    rng = np.random.default_rng(3)
    for _ in range(500):
        x, y, z = (tuple(rng.integers(-20, 21, size=3)) for _ in range(3))
        assert chebyshev_distance(x, z) <= (
            chebyshev_distance(x, y) + chebyshev_distance(y, z))
        assert chebyshev_distance(x, y) == chebyshev_distance(y, x)


def test_cubes_meeting_single_site():
    got = cubes_meeting({(0, 0)}, 1)
    assert len(got) == 4
    assert got == {Cube(a, 1) for a in [(-1, -1), (-1, 0), (0, -1), (0, 0)]}
    # general (r+1)^d count at an arbitrary site
    assert len(cubes_meeting({(3, -2)}, 2)) == 9
    assert len(cubes_meeting({(1, 2, 3)}, 1)) == 8


def test_cubes_meeting_contains_the_cube_itself():
    b = Cube((2, 5), 1)
    assert b in cubes_meeting(set(b.sites()), 1)


def test_cubes_meeting_empty_input():
    with pytest.raises(InputError):
        cubes_meeting(set(), 1)


@pytest.mark.parametrize("sites,r,expected", [
    ([(0, 0)], 1, 4),            # single site
    ([(0, 0), (1, 0)], 1, 2),    # axis-adjacent pair
    ([(0, 0), (1, 1)], 1, 1),    # diagonal pair
])
def test_containing_cube_count_against_enumeration(sites, r, expected):
    assert containing_cube_count(sites, r) == expected
    assert len(brute_cubes_containing(sites, r)) == expected


def test_containing_cube_count_random_sets_match_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(100):
        r = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        sites = [tuple(rng.integers(-3, 4, size=2)) for _ in range(n)]
        assert containing_cube_count(sites, r) == len(brute_cubes_containing(sites, r))


def test_containing_cube_count_zero_when_too_spread():
    assert containing_cube_count([(0, 0), (2, 0)], 1) == 0


def test_every_small_set_is_covered():
    # any set with diameter <= r is inside at least one cube
    rng = np.random.default_rng(5)
    for _ in range(200):
        r = int(rng.integers(1, 4))
        base = tuple(rng.integers(-10, 10, size=2))
        sites = {base}
        for _ in range(int(rng.integers(0, 4))):
            sites.add(tuple(b + int(rng.integers(0, r + 1)) for b in base))
        if diameter(sites) <= r:
            assert containing_cube_count(sites, r) >= 1


def test_box_basics():
    box = Box((0, 0), (2, 3))
    assert box.size == 12
    assert box.shape == (3, 4)
    sites = box.sites()
    assert len(sites) == 12
    assert sites[0] == (0, 0) and sites[-1] == (2, 3)
    for k, s in enumerate(sites):
        assert box.index_of(s) == k
    with pytest.raises(InputError):
        Box((0, 0), (-1, 0))
    with pytest.raises(InputError):
        box.index_of((5, 5))


@pytest.mark.parametrize("site", [(1,), (1, 1, 1)])
def test_box_refuses_a_site_of_another_dimension(site):
    box = Box((0, 0), (3, 3))
    with pytest.raises(InputError):
        box.contains(site)
    with pytest.raises(InputError):
        box.index_of(site)


def test_cubes_meeting_box_matches_set_version():
    box = Box((0, 0), (2, 2))
    listed = cubes_meeting_box(box, 1)
    assert len(listed) == len(set(listed)) == 16
    assert set(listed) == cubes_meeting(set(box.sites()), 1)
