import itertools
import math

import pytest

from peierls import (Box, CapacityError, Configuration, InputError,
                     VerificationError, chebyshev_distance,
                     contour_roundtrip_mismatches, contours, max_degree,
                     potts_model, rooted_contour_counts, rooted_subgraph_counts,
                     subgraph_census, verify_connector_bound)
from peierls.census import ConnectorReport, _anchor_graph, _steiner_min_vertices
from peierls.contours import _label_components
from peierls.exact import full_sweep


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------

def brute_rooted_sets(d, r, n):
    """Count connected anchor sets of size n containing the origin by scanning
    all subsets of a window (slow, obviously correct)."""
    root = (0,) * d
    window = [v for v in itertools.product(range(-(n - 1) * r, (n - 1) * r + 1),
                                           repeat=d) if v != root]
    count = 0
    for extra in itertools.combinations(window, n - 1):
        vertices = set(extra) | {root}
        # connectivity check
        seen = {root}
        frontier = [root]
        while frontier:
            v = frontier.pop()
            for u in vertices:
                if u not in seen and chebyshev_distance(u, v) <= r:
                    seen.add(u)
                    frontier.append(u)
        if seen == vertices:
            count += 1
    return count


def brute_contour_counts_within_window(model, window_box, x, exterior=1):
    """Collect all distinct contours with interior inside a window by an
    exhaustive configuration sweep, keyed by size (oracle for the census)."""
    sw = full_sweep(model, window_box, exterior)
    x_entry = x
    counts = {}
    seen = set()
    for lights in sw.contours:
        for serial, size in lights:
            if serial in seen:
                continue
            seen.add(serial)
            if any(site == x_entry for site, _ in serial):
                counts[size] = counts.get(size, 0) + 1
    return counts


def test_max_degree_examples():
    assert max_degree(2, 1) == 8
    assert max_degree(3, 1) == 26
    assert max_degree(2, 2) == 24


def test_rooted_subgraph_counts_small():
    counts = rooted_subgraph_counts(2, 1, 5)
    assert counts[1] == 1
    assert counts[2] == 8  # the degree
    # exact values, pinned by the brute subset oracle below
    assert counts[3] == 60
    assert counts[4] == 440
    assert counts[5] == 3190


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rooted_subgraph_counts_match_brute_force(n):
    assert rooted_subgraph_counts(2, 1, n)[n] == brute_rooted_sets(2, 1, n)


def test_rooted_counts_are_root_independent_and_monotone():
    counts_a = rooted_subgraph_counts(2, 1, 4, root=(0, 0))
    counts_b = rooted_subgraph_counts(2, 1, 4, root=(7, -3))
    assert counts_a == counts_b
    for n in range(1, 4):
        assert counts_a[n + 1] >= counts_a[n]


def test_rooted_counts_other_geometry():
    # 3d: n=2 must give the degree 26
    counts = rooted_subgraph_counts(3, 1, 2)
    assert counts[1] == 1 and counts[2] == 26


def test_count_rooted_connected_subgraphs_bound_and_budget():
    assert rooted_subgraph_counts(2, 1, 3)[3] == 60
    with pytest.raises(CapacityError):
        rooted_subgraph_counts(2, 1, 6, budget=100)


@pytest.mark.parametrize("d, r, n_max", [(0, 1, 3), (2, 0, 3), (2, 1, 0)])
def test_rooted_subgraph_counts_refuse_sizes_below_one(d, r, n_max):
    with pytest.raises(InputError):
        rooted_subgraph_counts(d, r, n_max)


def test_rooted_subgraph_counts_refuse_a_root_of_the_wrong_dimension():
    for root in [(0,), (0, 0, 0)]:
        with pytest.raises(InputError):
            rooted_subgraph_counts(2, 1, 3, root=root)


def test_contour_counts_refuse_a_site_of_the_wrong_dimension(ising):
    for x in [(0,), (0, 0, 0)]:
        with pytest.raises(InputError):
            rooted_contour_counts(ising, x, 4)


def test_subgraph_census_report():
    report = subgraph_census(2, 1, 4)
    assert report.k == 8
    assert [rec.count for rec in report.records] == [1, 8, 60, 440]
    for rec in report.records:
        assert rec.count <= rec.bound
        assert rec.ratio == pytest.approx(rec.count / (math.e * 8) ** rec.n)


def test_contour_counts_examples(ising, potts3):
    # a single site is the smallest interior: size (r+1)^d = 4, one mark for q=2
    assert rooted_contour_counts(ising, (0, 0), 4).records[3].count == 1
    assert rooted_contour_counts(potts3, (0, 0), 4).records[3].count == 2
    # size 5 is not realizable
    assert rooted_contour_counts(ising, (0, 0), 5).records[4].count == 0
    report = rooted_contour_counts(ising, (0, 0), 8)
    got = {rec.n: rec.count for rec in report.records}
    assert got[4] == 1 and got[6] == 4 and got[7] == 4
    for rec in report.records:
        assert rec.count <= rec.bound  # half (4 e k)^n


def test_contour_counts_match_window_sweep_oracle(ising, potts3):
    # both sides restricted to interiors inside the same 3x3 window
    window = Box((-1, -1), (1, 1))
    for model in (ising, potts3):
        oracle = brute_contour_counts_within_window(model, window, (0, 0))
        got = {}
        from peierls.census import _iter_marked_interiors
        for sites, marks, improper in _iter_marked_interiors(
                model, (0, 0), exterior=1, max_interior=9, budget=10 ** 6,
                within=window):
            got[improper] = got.get(improper, 0) + 1
        assert got == oracle


def test_contour_roundtrip(ising, potts3):
    assert contour_roundtrip_mismatches(ising, (0, 0), 8) == []
    assert contour_roundtrip_mismatches(potts3, (0, 0), 6) == []


@pytest.mark.parametrize("max_interior", [0, -3])
def test_contour_enumerations_refuse_an_interior_cap_below_one(ising, max_interior):
    with pytest.raises(InputError):
        rooted_contour_counts(ising, (0, 0), 4, max_interior=max_interior)
    with pytest.raises(InputError):
        contour_roundtrip_mismatches(ising, (0, 0), 4, max_interior=max_interior)


def test_contour_counts_need_interior_cap_for_unusual_geometry():
    from peierls import InputError
    model = potts_model(d=3, r=1, q=2)
    with pytest.raises(InputError):
        rooted_contour_counts(model, (0, 0, 0), 4)
    # explicit cap works
    report = rooted_contour_counts(model, (0, 0, 0), 8, max_interior=1)
    assert {rec.n: rec.count for rec in report.records}[8] == 1


# ---------------------------------------------------------------------------
# Connectors
# ---------------------------------------------------------------------------

def brute_min_connector(anchors, r):
    """Smallest connected superset of the terminals within their hull."""
    hull, index, adj = _anchor_graph(anchors, r)
    terminals = [index[a] for a in anchors]
    others = [i for i in range(len(hull)) if i not in set(terminals)]
    for extra in range(len(others) + 1):
        for added in itertools.combinations(others, extra):
            vertices = set(terminals) | set(added)
            labels = _label_components(sorted(vertices), adj)
            if max(labels.values()) == 0:
                return len(vertices)
    raise AssertionError("hull graph disconnected")


def test_connector_single_flip_is_trivial(ising):
    box = Box((0, 0), (3, 3))
    gamma = contours(Configuration.constant(box, 1).replace({(1, 1): 2}), ising)[0]
    report = verify_connector_bound(gamma)
    assert report.passes and report.exact
    assert report.connector_size == gamma.size == 4
    assert report.bound == 8


def test_connector_two_subcontours_at_max_distance():
    # range-2 model, two deviating sites at distance exactly 2: one contour
    model = potts_model(d=2, r=2, q=2)
    box = Box((0, 0), (4, 4))
    config = Configuration.constant(box, 1).replace({(1, 2): 2, (3, 2): 2})
    found = contours(config, model)
    assert len(found) == 1
    report = verify_connector_bound(found[0])
    assert report.passes and report.exact
    assert report.connector_size <= report.bound


def test_steiner_exact_matches_brute_force():
    # synthetic disconnected terminal sets in the plane cube graph
    cases = [
        ([(0, 0), (3, 3)], 1),
        ([(0, 0), (0, 4), (4, 0)], 1),
        ([(0, 0), (5, 1)], 2),
    ]
    for anchors, r in cases:
        hull, index, adj = _anchor_graph(anchors, r)
        terminals = [index[a] for a in anchors]
        got = _steiner_min_vertices(adj, terminals)
        assert got == brute_min_connector(anchors, r)


def test_connector_constructive_mode():
    from peierls.contours import Contour, Subcontour
    from peierls.lattice import Cube
    # 9 spread-out terminals force the constructive path (exact_limit = 8)
    anchors = [(2 * i, 0) for i in range(9)]
    gamma = Contour(
        subcontours=(Subcontour(frozenset({(0, 0)}), 2),),
        interior=frozenset({(0, 0)}),
        improper_cubes=frozenset(Cube(a, 1) for a in anchors),
        size=9)
    report = verify_connector_bound(gamma)
    assert not report.exact
    # chain of 9 cubes 2 apart needs one bridge per gap: 17 <= 18
    assert report.connector_size == 17
    assert report.passes
