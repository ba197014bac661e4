import dataclasses
import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from peierls import (Box, CapacityError, Configuration, InputError,
                     VerificationError, chebyshev_distance,
                     contour_roundtrip_mismatches, contours, max_degree,
                     potts_model, rooted_contour_counts, rooted_subgraph_counts,
                     subgraph_census, verify_connector_bound)
from peierls import census
from peierls.census import (EXACT_CONNECTOR_LIMIT, ConnectorReport,
                            _greedy_connector_size, _iter_marked_interiors,
                            _steiner_min_vertices)
from peierls.contours import Contour, Subcontour, _box_index, _label_components
from peierls.lattice import Cube
from peierls.model import builtin_model

from oracle import sweep_contours


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------

def brute_rooted_sets(d, r, n, root=None):
    """Count connected anchor sets of size n containing the root (default the
    origin) by scanning all subsets of a window (slow, obviously correct)."""
    root = (0,) * d if root is None else root
    window = [v for v in itertools.product(
        *[range(c - (n - 1) * r, c + (n - 1) * r + 1) for c in root]) if v != root]
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
    x_entry = x
    counts = {}
    seen = set()
    for lights in sweep_contours(model, window_box, exterior):
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


# n = n_max: the largest sets reach the edge of the census's window of cells
@pytest.mark.parametrize("d, r, n, root, want", [
    *[pytest.param(2, 1, n, None, None, id=str(n)) for n in [1, 2, 3, 4]],
    (1, 1, 5, None, 5), (1, 2, 4, None, 32), (2, 2, 3, None, 540),
    (3, 1, 3, None, 711), (3, 1, 3, (4, -7, 2), 711)])
def test_rooted_subgraph_counts_match_brute_force(d, r, n, root, want):
    got = rooted_subgraph_counts(d, r, n, root=root)[n]
    assert got == brute_rooted_sets(d, r, n, root=root)
    if want is not None:
        assert got == want


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


def test_explorer_budget_counts_the_root_as_the_first_set():
    # 1 + 8 + 60 sets: a budget of 69 is exactly enough, 68 stops at the 69th
    assert rooted_subgraph_counts(2, 1, 3, budget=69) == [0, 1, 8, 60]
    with pytest.raises(CapacityError) as caught:
        rooted_subgraph_counts(2, 1, 3, budget=68)
    assert caught.value.count == 69
    assert rooted_subgraph_counts(2, 1, 1) == [0, 1]
    assert rooted_subgraph_counts(2, 1, 1, budget=1) == [0, 1]


def test_explorer_refuses_sets_above_the_size_limit_before_any_visit():
    # the enumerator recurses once per set size; in 1D the sets are intervals
    counts = rooted_subgraph_counts(1, 1, census.MAX_SET_SIZE)
    assert counts == list(range(census.MAX_SET_SIZE + 1))
    visits = []
    with pytest.raises(InputError):
        census._explore_rooted(0, census.CubeGraph(1, 1).neighbors,
                               census.MAX_SET_SIZE + 1, 10 ** 7,
                               lambda size, members: visits.append(size))
    assert visits == []


def test_explorer_budget_zero_refuses_before_any_visit():
    visits = []
    with pytest.raises(CapacityError) as caught:
        census._explore_rooted((0, 0), census.CubeGraph(2, 1).neighbors, 3, 0,
                               lambda size, members: visits.append(size))
    assert caught.value.count == 1
    assert visits == []


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


# counts of sizes 1..12, recorded with the cube-by-cube census; a contour
# at n_max is one whose interior reaches the edge of the window of cells
@pytest.mark.parametrize("spec, cap, want", [
    ("potts:q=2,r=2", 3, [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 4]),
    ("potts:d=3,r=1,q=2", 2, [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 6]),
])
def test_contour_counts_are_pinned(spec, cap, want):
    model = builtin_model(spec)
    report = rooted_contour_counts(model, (0,) * model.d, 12, max_interior=cap)
    assert [rec.count for rec in report.records] == want


def test_marked_interior_stream_is_pinned():
    # every (sites, marks, improper) in order, as recorded with the
    # cube-by-cube census: 3,699 interiors of up to 5 sites, 109,634 markings
    digest = hashlib.sha256()
    count = 0
    for item in _iter_marked_interiors(builtin_model("potts:q=3"), (0, 0), 1, 5,
                                       10 ** 7):
        digest.update(repr(item).encode())
        count += 1
    assert count == 109_634
    assert digest.hexdigest() == (
        "2f085fd393b4cc53f292b11d6f9734623c0272e7b946afc4c7f9f7edbdb7cbc4")


def test_contour_counts_match_window_sweep_oracle(ising, potts3):
    # both sides restricted to interiors inside the same 3x3 window
    window = Box((-1, -1), (1, 1))
    for model in (ising, potts3):
        oracle = brute_contour_counts_within_window(model, window, (0, 0))
        got = {}
        for sites, marks, improper in _iter_marked_interiors(
                model, (0, 0), exterior=1, max_interior=9, budget=10 ** 6,
                within=window):
            got[improper] = got.get(improper, 0) + 1
        assert got == oracle


def roundtrip_of_a_fresh_census(model, x, n_max, **kwargs):
    return contour_roundtrip_mismatches(
        model, rooted_contour_counts(model, x, n_max, **kwargs))


@pytest.mark.parametrize("exterior", [0, 3])
def test_contour_enumerations_refuse_an_exterior_outside_the_sector(
        ising, monkeypatch, exterior):
    def no_explore(*args, **kwargs):
        raise AssertionError("explored before the exterior was checked")

    monkeypatch.setattr(census, "_explore_rooted", no_explore)
    messages = []
    for enumerate_contours in (rooted_contour_counts, roundtrip_of_a_fresh_census):
        with pytest.raises(InputError) as caught:
            enumerate_contours(ising, (0, 0), 4, exterior=exterior)
        messages.append(str(caught.value))
    assert messages == [f"exterior spin {exterior} outside 1..2"] * 2


def test_contour_roundtrip(ising, potts3):
    assert contour_roundtrip_mismatches(
        ising, rooted_contour_counts(ising, (0, 0), 8)) == []
    assert contour_roundtrip_mismatches(
        potts3, rooted_contour_counts(potts3, (0, 0), 6)) == []


def test_contour_report_keeps_the_contours_it_counted(potts3):
    # the census-8 command's contour stage: 186 contours of sizes 4..8
    report = rooted_contour_counts(potts3, (0, 0), 8, max_interior=5)
    assert len(report.contours) == 186 and report.exterior == 1
    assert [sum(size == rec.n for _, size in report.contours)
            for rec in report.records] == [rec.count for rec in report.records]
    for serial, _size in report.contours:
        assert list(serial) == sorted(serial)
        assert (0, 0) in dict(serial) and set(dict(serial).values()) <= {2, 3}
    assert len(set(report.contours)) == 186


@pytest.mark.parametrize("max_interior", [0, -3])
def test_contour_enumerations_refuse_an_interior_cap_below_one(ising, max_interior):
    with pytest.raises(InputError):
        rooted_contour_counts(ising, (0, 0), 4, max_interior=max_interior)
    with pytest.raises(InputError):
        roundtrip_of_a_fresh_census(ising, (0, 0), 4, max_interior=max_interior)


def test_contour_counts_need_interior_cap_for_unusual_geometry():
    from peierls import InputError
    model = potts_model(d=3, r=1, q=2)
    with pytest.raises(InputError):
        rooted_contour_counts(model, (0, 0, 0), 4)
    # explicit cap works
    report = rooted_contour_counts(model, (0, 0, 0), 8, max_interior=1)
    assert {rec.n: rec.count for rec in report.records}[8] == 1


def test_a_default_interior_cap_above_the_set_limit_is_refused(tmp_path, capsys,
                                                               monkeypatch):
    # n_max = 65: the default cap n_max^2/16 = 264 passes MAX_SET_SIZE = 256;
    # the refusal names the cap and its rule, and comes before any interior
    # is enumerated
    def enumerate_nothing(*args, **kwargs):
        return iter(())

    monkeypatch.setattr(census, "_iter_marked_interiors", enumerate_nothing)
    ising = builtin_model("ising")
    assert rooted_contour_counts(ising, (0, 0), 64).interior_cap == census.MAX_SET_SIZE
    want = ("max_interior defaults to n_max^2/16 = 264, the largest interior of a "
            "square-block contour of size 65, above the set size limit 256")
    with pytest.raises(InputError, match=want.replace("^", r"\^")):
        rooted_contour_counts(ising, (0, 0), 65)

    from peierls.cli import main
    out = tmp_path / "out"
    assert main(["census", "--n-max", "65", "--builtin", "ising", "--out", str(out)]) == 2
    assert want in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


# ---------------------------------------------------------------------------
# Connectors
# ---------------------------------------------------------------------------

def _anchor_graph(anchors, r):
    """The anchors' hull, its site -> flat index map and its ball adjacency."""
    bx = _box_index(Box(tuple(map(min, zip(*anchors))),
                        tuple(map(max, zip(*anchors)))), r)
    return bx.sites, {a: i for i, a in enumerate(bx.sites)}, bx.ball


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


@settings(max_examples=60, deadline=None, database=None)
@given(r=st.integers(1, 2), width=st.integers(1, 4), height=st.integers(1, 4),
       data=st.data())
def test_steiner_exact_matches_brute_force_on_random_anchors(r, width, height, data):
    window = list(itertools.product(range(width), range(height)))
    anchors = data.draw(st.lists(st.sampled_from(window), min_size=1,
                                 max_size=min(4, len(window)), unique=True))
    hull, index, adj = _anchor_graph(anchors, r)
    got = _steiner_min_vertices(adj, [index[a] for a in anchors])
    assert got == brute_min_connector(anchors, r)


def _greedy_cases(count):
    """Seeded terminal sets of 9-16 anchors, with their ball adjacency."""
    for seed in range(count):
        r = 1 + seed % 2
        window = list(itertools.product(range(8 * r + 4), repeat=2))
        anchors = random.Random(seed).sample(window, 9 + seed % 8)
        hull, index, adj = _anchor_graph(anchors, r)
        yield seed, adj, [index[a] for a in anchors]


# Greedy connector sizes of the first 20 seeded terminal sets, each in 7-12
# components.  Which shortest bridge the search takes depends on the order
# its BFS starts in, which is the increasing order of the component's sites.
GREEDY_SIZES = [21, 22, 21, 28, 29, 25, 34, 28, 21, 21,
                26, 23, 29, 25, 29, 30, 25, 19, 24, 28]


def test_greedy_connector_sizes_are_pinned():
    assert [_greedy_connector_size(adj, terminals)
            for _, adj, terminals in _greedy_cases(20)] == GREEDY_SIZES


def test_greedy_connector_size_ignores_the_terminal_order():
    for seed, adj, terminals in _greedy_cases(300):
        want = _greedy_connector_size(adj, terminals)
        rng = random.Random(seed)
        for _ in range(10):
            rng.shuffle(terminals)
            assert _greedy_connector_size(adj, terminals) == want


def test_connector_constructive_mode():
    # 9 spread-out terminals force the constructive path
    assert EXACT_CONNECTOR_LIMIT == 8
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


# ---------------------------------------------------------------------------
# Negative controls: each check fails when its claim is false at its input
# ---------------------------------------------------------------------------

def test_subgraph_census_fails_below_the_counts(monkeypatch):
    # degree 1: (e*1)^2 < 8, so every size from 2 on is over its bound
    monkeypatch.setattr(census, "max_degree", lambda d, r: 1)
    with pytest.raises(VerificationError) as caught:
        subgraph_census(2, 1, 4)
    report = caught.value.details
    assert isinstance(report, census.CensusReport) and report.k == 1
    assert [rec.n for rec in report.violations()] == [2, 3, 4]


def test_contour_census_fails_below_the_counts(ising, monkeypatch):
    # degree 1 leaves (4e)^n / 2 far above ising's few contours; a degree of
    # 1/(4e) puts every bound at 1/2, below each size that has a contour
    monkeypatch.setattr(census, "max_degree", lambda d, r: 1)
    assert rooted_contour_counts(ising, (0, 0), 8).violations() == ()
    monkeypatch.setattr(census, "max_degree", lambda d, r: 1 / (4 * math.e))
    with pytest.raises(VerificationError) as caught:
        rooted_contour_counts(ising, (0, 0), 8)
    report = caught.value.details
    assert isinstance(report, census.CensusReport) and report.kind == "contours"
    assert [(rec.n, rec.count) for rec in report.violations()] == [
        (4, 1), (6, 4), (7, 4), (8, 22)]


def test_contour_roundtrip_fails_on_a_lossy_extractor(ising, monkeypatch):
    # an extractor that drops one improper cube of every contour it returns
    extract = census.extract_contours

    def lossy(config, model):
        out = []
        for g in extract(config, model):
            kept = sorted(g.improper_cubes, key=lambda c: c.anchor)[1:]
            out.append(dataclasses.replace(g, improper_cubes=frozenset(kept),
                                           size=len(kept)))
        return out

    monkeypatch.setattr(census, "extract_contours", lossy)
    report = rooted_contour_counts(ising, (0, 0), 8)
    mismatches = contour_roundtrip_mismatches(ising, report)
    assert len(mismatches) == len(report.contours) == 31
    assert [(serial, size) for serial, size, _ in mismatches] == list(report.contours)


def _spread_contour(anchors):
    return Contour(subcontours=(Subcontour(frozenset({(0, 0)}), 2),),
                   interior=frozenset({(0, 0)}),
                   improper_cubes=frozenset(Cube(a, 1) for a in anchors),
                   size=len(anchors))


def test_connector_bound_fails_for_cubes_too_far_apart():
    # two cubes 10 apart need 9 more between them: 11 > 2 * 2
    report = verify_connector_bound(_spread_contour([(0, 0), (10, 0)]))
    assert report == ConnectorReport(connector_size=11, bound=4, passes=False,
                                     exact=True)
    # 9 cubes 10 apart, past the exact limit: the greedy connector 9 + 8 * 9
    anchors = [(10 * i, 0) for i in range(EXACT_CONNECTOR_LIMIT + 1)]
    report = verify_connector_bound(_spread_contour(anchors))
    assert report == ConnectorReport(connector_size=81, bound=18, passes=False,
                                     exact=False)
