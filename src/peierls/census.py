"""Counting checks for the cube adjacency graph and for rooted contours.

Cubes of range r form a vertex-transitive graph (edges between intersecting
cubes, i.e. anchors within Chebyshev distance r).  This module counts, by
exact duplicate-free enumeration,

* connected vertex sets of a given size containing a fixed root cube,
  against the bound (e*k)^n where k is the graph degree;
* contours rooted at a fixed site (marked connected site sets together with
  their improper-cube count), against the bound (4*e*k)^n / 2;
* the size of a minimal connected cube set containing a contour's improper
  cubes, against twice the contour size.

The set enumerator grows a connected set from the root, trying each frontier
candidate once and banning it afterwards, so every connected superset of the
root is produced exactly once.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .contours import Configuration, Contour, _label_components, contours as extract_contours
from .errors import CapacityError, InputError, VerificationError
from .lattice import Box, Site, ball_offsets, cubes_meeting
from .model import ModelSpec, require_certified

DEFAULT_SET_BUDGET = 10_000_000


class CubeGraph:
    """The graph on range-r cube anchors with edges between intersecting cubes.

    Its neighbourhood is also the distance-r adjacency of sites, which is how
    contour interiors are connected.
    """

    def __init__(self, d: int, r: int):
        self.d = d
        self.r = r
        self.offsets = ball_offsets(d, r)

    def neighbors(self, anchor: Site) -> list:
        return [tuple(a + o for a, o in zip(anchor, off)) for off in self.offsets]


def max_degree(d: int, r: int) -> int:
    """Degree of the cube graph: (2r+1)^d - 1."""
    return (2 * r + 1) ** d - 1


# ---------------------------------------------------------------------------
# Rooted connected-set enumeration
# ---------------------------------------------------------------------------

def _explore_rooted(root: Site, neighbors: Callable, n_max: int,
                    budget: int, visit: Callable) -> None:
    """Visit every connected set of size <= n_max containing the root once.

    ``visit(size, members)`` receives the current set as a list whose prefix
    of length ``size`` is the set (the list is reused; copy if kept).
    """
    if budget < 0:
        raise InputError(f"budget must be >= 0, got {budget}")
    if budget < 1:
        raise CapacityError(
            f"connected-set enumeration exceeded the budget {budget}", count=1)
    seen = {root}
    initial = []
    for u in neighbors(root):
        if u not in seen:
            seen.add(u)
            initial.append(u)
    members = [root]
    visited = 1
    visit(1, members)
    if n_max == 1:
        return

    def rec(cands: list, size: int):
        nonlocal visited
        for i, v in enumerate(cands):
            members.append(v)
            visited += 1
            if visited > budget:
                raise CapacityError(
                    f"connected-set enumeration exceeded the budget {budget}",
                    count=visited)
            visit(size + 1, members)
            if size + 1 < n_max:
                fresh = [u for u in neighbors(v) if u not in seen]
                seen.update(fresh)
                rec(cands[i + 1:] + fresh, size + 1)
                seen.difference_update(fresh)
            members.pop()

    rec(initial, 1)


def rooted_subgraph_counts(d: int, r: int, n_max: int,
                           budget: int = DEFAULT_SET_BUDGET,
                           root: Site | None = None) -> list:
    """Exact counts of connected cube sets of sizes 1..n_max containing a root.

    Returns counts[n] for n = 0..n_max (counts[0] = 0).  By vertex
    transitivity the counts do not depend on the root.
    """
    if min(d, r, n_max) < 1:
        raise InputError(f"need d, r and n_max >= 1, got d={d}, r={r}, n_max={n_max}")
    if root is None:
        root = (0,) * d
    if len(root) != d:
        raise InputError(f"root {root} has dimension {len(root)}, need {d}")
    counts = [0] * (n_max + 1)

    def visit(size, _members):
        counts[size] += 1

    _explore_rooted(root, CubeGraph(d, r).neighbors, n_max, budget, visit)
    return counts


@dataclass(frozen=True)
class CensusRecord:
    n: int
    count: int
    bound: float

    @property
    def ratio(self) -> float:
        return self.count / self.bound


@dataclass(frozen=True)
class CensusReport:
    kind: str  # "subgraphs" or "contours"
    k: int
    records: tuple
    interior_cap: int | None = None

    def violations(self) -> tuple:
        return tuple(rec for rec in self.records if rec.count > rec.bound)


def subgraph_census(d: int, r: int, n_max: int,
                    budget: int = DEFAULT_SET_BUDGET) -> CensusReport:
    counts = rooted_subgraph_counts(d, r, n_max, budget=budget)
    k = max_degree(d, r)
    records = tuple(
        CensusRecord(n=n, count=counts[n], bound=(math.e * k) ** n)
        for n in range(1, n_max + 1))
    report = CensusReport(kind="subgraphs", k=k, records=records)
    if report.violations():
        raise VerificationError("a rooted connected-set count exceeds its bound",
                                details=report)
    return report


# ---------------------------------------------------------------------------
# Rooted contour enumeration
# ---------------------------------------------------------------------------

def _default_interior_cap(n_max: int, d: int, r: int) -> int:
    # Square blocks minimize the improper count per interior site in the
    # plane with r = 1: an LxL same-mark block has 4L improper cubes, so a
    # contour of size n has interior at most (n/4)^2.  Other geometries need
    # an explicit cap.
    if (d, r) != (2, 1):
        raise InputError(
            "no default interior cap for this (d, r); pass max_interior explicitly")
    return max(1, n_max * n_max // 16)


def _iter_marked_interiors(model: ModelSpec, x: Site, exterior: int,
                           max_interior: int, budget: int,
                           within: Box | None = None) -> Iterator:
    """Yield (sites, marks, improper_count) for every rooted marked interior.

    Sites are connected under distance <= r adjacency (so they form a single
    contour when embedded with the exterior spin elsewhere); marks run over
    all assignments of non-exterior spins.  The improper count is computed
    directly: a cube meeting the set is proper only when it lies entirely
    inside the set with one constant mark from the symmetric sector.
    ``within`` restricts interiors to a finite window (connectivity of a
    site set never involves outside sites, so this is a plain filter).
    """
    d, r, q, s = model.d, model.r, model.q, model.s
    if len(x) != d:
        raise InputError(f"site {x} has dimension {len(x)}, need {d}")
    if max_interior < 1:
        raise InputError(f"max_interior must be >= 1, got {max_interior}")
    marks_allowed = [v for v in range(1, q + 1) if v != exterior]
    cube_volume = (r + 1) ** d
    ball = CubeGraph(d, r).neighbors

    def ball_within(site):
        return [n for n in ball(site) if within.contains(n)]

    results = []

    def visit(size, members):
        results.append(tuple(members[:size]))

    _explore_rooted(x, ball if within is None else ball_within, max_interior,
                    budget, visit)

    for sites in results:
        site_list = list(sites)
        position = {site: j for j, site in enumerate(site_list)}
        cube_members = [
            [position[site] for site in cube.sites() if site in position]
            for cube in cubes_meeting(site_list, r)]
        for marking in itertools.product(marks_allowed, repeat=len(site_list)):
            improper = 0
            for inside in cube_members:
                if len(inside) == cube_volume:
                    first = marking[inside[0]]
                    if first <= s and all(marking[j] == first for j in inside[1:]):
                        continue  # constant sector pattern: proper
                improper += 1
            yield site_list, marking, improper


def rooted_contour_counts(model: ModelSpec, x: Site, n_max: int,
                          exterior: int = 1, max_interior: int | None = None,
                          budget: int = DEFAULT_SET_BUDGET) -> CensusReport:
    """Exact counts of contours of sizes up to n_max whose interior contains x.

    A contour is identified by its marked interior; counts are for the fixed
    boundary spin ``exterior``.  Interiors are enumerated up to
    ``max_interior`` sites; the default cap is n_max^2/16, which covers every
    contour of size <= n_max in the plane with r = 1 (larger interiors force
    more improper cubes than n_max by the block isoperimetry).
    """
    require_certified(model)
    if not 1 <= exterior <= model.s:
        raise InputError(f"exterior spin {exterior} outside 1..{model.s}")
    if max_interior is None:
        max_interior = _default_interior_cap(n_max, model.d, model.r)
    counts = {}
    for _sites, _marks, improper in _iter_marked_interiors(
            model, x, exterior, max_interior, budget):
        if improper <= n_max:
            counts[improper] = counts.get(improper, 0) + 1
    k = max_degree(model.d, model.r)
    records = tuple(
        CensusRecord(n=n, count=counts.get(n, 0), bound=0.5 * (4 * math.e * k) ** n)
        for n in range(1, n_max + 1))
    report = CensusReport(kind="contours", k=k, records=records,
                          interior_cap=max_interior)
    if report.violations():
        raise VerificationError("a rooted contour count exceeds its bound",
                                details=report)
    return report


def contour_roundtrip_mismatches(model: ModelSpec, x: Site, n_max: int,
                                 exterior: int = 1,
                                 max_interior: int | None = None,
                                 budget: int = DEFAULT_SET_BUDGET) -> list:
    """Embed every enumerated contour in a configuration and re-extract it.

    Each marked interior, planted on its bounding box with the exterior spin
    elsewhere, must come back from the contour extractor as exactly one
    contour with the same marks and the same size.  Returns the list of
    mismatches (empty when the census and the engine agree).
    """
    require_certified(model)
    if max_interior is None:
        max_interior = _default_interior_cap(n_max, model.d, model.r)
    mismatches = []
    for sites, marks, improper in _iter_marked_interiors(
            model, x, exterior, max_interior, budget):
        if improper > n_max:
            continue
        d = model.d
        lower = tuple(min(p[k] for p in sites) for k in range(d))
        upper = tuple(max(p[k] for p in sites) for k in range(d))
        box = Box(lower, upper)
        config = Configuration.constant(box, exterior).replace(
            dict(zip(sites, marks)))
        found = extract_contours(config, model)
        expected = tuple(sorted(zip(sites, marks)))
        if (len(found) != 1 or found[0].serial() != expected
                or found[0].size != improper):
            mismatches.append((expected, improper, found))
    return mismatches


# ---------------------------------------------------------------------------
# Minimal connectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConnectorReport:
    """Vertex count of a connected cube set containing a contour's improper
    cubes, against twice the contour size.  ``exact`` marks a provably
    minimal connector; a constructive one can only confirm the bound."""

    connector_size: int
    bound: int
    passes: bool
    exact: bool


def _anchor_graph(anchors: Sequence[Site], r: int):
    lo = tuple(min(a[k] for a in anchors) for k in range(len(anchors[0])))
    hi = tuple(max(a[k] for a in anchors) for k in range(len(anchors[0])))
    hull = list(itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))))
    index = {a: i for i, a in enumerate(hull)}
    graph = CubeGraph(len(lo), r)
    adj = [[index[b] for b in graph.neighbors(a) if b in index] for a in hull]
    return hull, index, adj


def _steiner_min_vertices(adj, terminals: Sequence[int]) -> int:
    """Minimum vertex count of a connected subgraph containing the terminals.

    Classic subset dynamic program over (terminal set, attachment vertex)
    with unit edge weights; tree edge count + 1 is the vertex count.
    """
    t = len(terminals)
    h = len(adj)
    inf = math.inf

    def bfs(source):
        dist = [-1] * h
        dist[source] = 0
        queue = [source]
        while queue:
            nxt = []
            for v in queue:
                for u in adj[v]:
                    if dist[u] < 0:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            queue = nxt
        return [d if d >= 0 else inf for d in dist]

    term_dist = [bfs(term) for term in terminals]
    full = (1 << t) - 1
    dp = [[inf] * h for _ in range(full + 1)]
    for i in range(t):
        for v in range(h):
            dp[1 << i][v] = term_dist[i][v]
    for mask in range(1, full + 1):
        row = dp[mask]
        sub = (mask - 1) & mask
        while sub:
            other = mask ^ sub
            if sub < other:  # each split once
                a, b = dp[sub], dp[other]
                for v in range(h):
                    c = a[v] + b[v]
                    if c < row[v]:
                        row[v] = c
            sub = (sub - 1) & mask
        # relax along edges (unit weights): Dijkstra over the row
        heap = [(c, v) for v, c in enumerate(row) if c < inf]
        heapq.heapify(heap)
        while heap:
            c, v = heapq.heappop(heap)
            if c > row[v]:
                continue
            for u in adj[v]:
                if c + 1 < row[u]:
                    row[u] = c + 1
                    heapq.heappush(heap, (c + 1, u))
    best = min(dp[full])
    return int(best) + 1


def _greedy_connector_size(adj, terminals: Sequence[int]) -> int:
    """Connect terminal components by repeatedly adding a shortest bridge path."""
    chosen = set(terminals)
    while True:
        labels = _label_components(list(set(chosen)), adj)
        if max(labels.values()) == 0:
            return len(chosen)
        comp = {v for v, c in labels.items() if c == 0}
        # BFS from the first component through the full graph to any other
        parent = {v: None for v in comp}
        queue = list(comp)
        target = None
        while queue and target is None:
            nxt = []
            for v in queue:
                for u in adj[v]:
                    if u not in parent:
                        parent[u] = v
                        if u in chosen:
                            target = u
                            break
                        nxt.append(u)
                if target is not None:
                    break
            queue = nxt
        if target is None:
            raise VerificationError("connector search failed: graph not connected")
        v = target
        while v is not None:
            chosen.add(v)
            v = parent[v]


def verify_connector_bound(gamma: Contour, exact_limit: int = 8) -> ConnectorReport:
    """Check that the improper cubes admit a connector of at most twice their
    number of vertices.  Exact minimal search up to ``exact_limit`` terminals
    (which can refute the bound); a greedy constructive connector otherwise
    (which can only confirm it)."""
    anchors = sorted(c.anchor for c in gamma.improper_cubes)
    if not anchors:
        raise InputError("contour with no improper cubes")
    r = next(iter(gamma.improper_cubes)).r
    bound = 2 * len(anchors)
    hull, index, adj = _anchor_graph(anchors, r)
    terminals = [index[a] for a in anchors]
    if max(_label_components(terminals, adj).values()) == 0:
        return ConnectorReport(connector_size=len(anchors), bound=bound,
                               passes=True, exact=True)
    if len(anchors) <= exact_limit:
        size = _steiner_min_vertices(adj, terminals)
        return ConnectorReport(connector_size=size, bound=bound,
                               passes=size <= bound, exact=True)
    size = _greedy_connector_size(adj, terminals)
    return ConnectorReport(connector_size=size, bound=bound,
                           passes=size <= bound, exact=False)
