"""Counting checks for the cube adjacency graph and for rooted contours.

Cubes of range r form a vertex-transitive graph (edges between intersecting
cubes, i.e. anchors within Chebyshev distance r).  This module counts, by
exact duplicate-free enumeration,

* connected vertex sets of a given size containing a fixed root cube,
  against the bound (e*k)^n where k is the graph degree;
* contours rooted at a fixed site (marked connected site sets together with
  their improper-cube count), against the bound (4*e*k)^n / 2; the report
  keeps the contours it counted, and the roundtrip plants exactly those;
* the size of a minimal connected cube set containing a contour's improper
  cubes, against twice the contour size.

The set enumerator grows a connected set from the root, trying each frontier
candidate once and banning it afterwards, so every connected superset of the
root is produced exactly once.  It recurses once per set size and refuses
sizes above ``MAX_SET_SIZE``.  It runs on integer cells in a window centred
on the root (``CubeGraph``), where a neighbour or a cube site is one addition.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .contours import (Configuration, Contour, _box_index, _label_components,
                       contours as extract_contours)
from .errors import CapacityError, InputError, VerificationError
from .lattice import Box, Site, ball_offsets
from .model import ModelSpec, require_certified

DEFAULT_SET_BUDGET = 10_000_000
MAX_SET_SIZE = 256  # the enumerator recurses once per set size
EXACT_CONNECTOR_LIMIT = 8  # terminals; the subset DP holds 2^t rows


class CubeGraph:
    """The graph on range-r cube anchors with edges between intersecting cubes.

    Its neighbourhood is also the distance-r adjacency of sites, which is how
    contour interiors are connected.  Sites are int cells: x is
    sum_i (x_i - root_i) * W^(d-1-i) with W = 2*r*n_max + 1, which no two sites
    within r*n_max of the root share: the sites of a connected set of at most
    n_max sites containing the root, and of the cubes meeting it.  The ball
    (``offsets``) and the cube {0..r}^d (``cube_offsets``) are cells too.
    """

    def __init__(self, d: int, r: int, n_max: int = 1, root: Site | None = None):
        self.width = 2 * r * n_max + 1
        self.root = (0,) * d if root is None else root
        weights = [self.width ** (d - 1 - i) for i in range(d)]
        self.offsets, self.cube_offsets = (
            [sum(o * w for o, w in zip(off, weights)) for off in offsets]
            for offsets in (ball_offsets(d, r), itertools.product(range(r + 1), repeat=d)))

    def site(self, cell: int) -> Site:
        half, coords = self.width // 2, []
        for c in reversed(self.root):
            cell, o = divmod(cell + half, self.width)
            coords.append(c + o - half)
        return tuple(reversed(coords))

    def neighbors(self, cell: int) -> list:
        return [cell + o for o in self.offsets]


def max_degree(d: int, r: int) -> int:
    """Degree of the cube graph: (2r+1)^d - 1."""
    return (2 * r + 1) ** d - 1


# ---------------------------------------------------------------------------
# Rooted connected-set enumeration
# ---------------------------------------------------------------------------

def _explore_rooted(root, neighbors: Callable, n_max: int,
                    budget: int, visit: Callable) -> None:
    """Visit every connected set of size <= n_max containing the root once.

    ``visit(size, members)`` receives the current set as a list whose prefix
    of length ``size`` is the set (the list is reused; copy if kept).  The
    root is the first candidate: {root} is the first set visited and counted.
    """
    if budget < 0:
        raise InputError(f"budget must be >= 0, got {budget}")
    if n_max > MAX_SET_SIZE:
        raise InputError(f"set size {n_max} is above the limit {MAX_SET_SIZE}")
    seen = {root}
    members = []
    visited = 0

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

    rec([root], 0)


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

    _explore_rooted(0, CubeGraph(d, r, n_max, root).neighbors, n_max, budget, visit)
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
    contours: tuple = ()  # counted (serial, size) pairs, serial = sorted (site, mark)
    exterior: int | None = None  # the boundary spin the contours were counted for

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
    marks_allowed = [v for v in range(1, q + 1) if v != exterior]
    graph = CubeGraph(d, r, max_interior, x)
    cube_offsets = graph.cube_offsets

    def ball_within(cell):
        return [n for n in graph.neighbors(cell) if within.contains(graph.site(n))]

    results = []

    def visit(size, members):
        results.append(members[:size])

    _explore_rooted(0, graph.neighbors if within is None else ball_within,
                    max_interior, budget, visit)

    for cells in results:
        position = {cell: j for j, cell in enumerate(cells)}
        anchors = {cell - o for cell in cells for o in cube_offsets}
        whole = [[position[a + o] for o in cube_offsets] for a in anchors
                 if all(a + o in position for o in cube_offsets)]
        partial = len(anchors) - len(whole)
        sites = [graph.site(cell) for cell in cells]
        for marking in itertools.product(marks_allowed, repeat=len(cells)):
            improper = partial
            for inside in whole:
                first = marking[inside[0]]
                if first > s or any(marking[j] != first for j in inside[1:]):
                    improper += 1
            yield sites, marking, improper


def rooted_contour_counts(model: ModelSpec, x: Site, n_max: int,
                          exterior: int = 1, max_interior: int | None = None,
                          budget: int = DEFAULT_SET_BUDGET) -> CensusReport:
    """Exact counts of contours of sizes up to n_max whose interior contains x.

    A contour is identified by its marked interior; counts are for the fixed
    boundary spin ``exterior``.  Interiors are enumerated up to
    ``max_interior`` sites; the default cap is n_max^2/16, which covers every
    contour of size <= n_max in the plane with r = 1 (larger interiors force
    more improper cubes than n_max by the block isoperimetry).  The report
    keeps each counted contour, which ``contour_roundtrip_mismatches`` plants.
    """
    require_certified(model)
    if len(x) != model.d:
        raise InputError(f"site {x} has dimension {len(x)}, need {model.d}")
    if not 1 <= exterior <= model.s:
        raise InputError(f"exterior spin {exterior} outside 1..{model.s}")
    if max_interior is None:
        # Square blocks minimize the improper count per interior site in the
        # plane with r = 1: an LxL same-mark block has 4L improper cubes, so a
        # contour of size n has interior at most (n/4)^2.  Other geometries
        # need an explicit cap.
        if (model.d, model.r) != (2, 1):
            raise InputError(
                "no default interior cap for this (d, r); pass max_interior explicitly")
        max_interior = max(1, n_max * n_max // 16)
    elif max_interior < 1:
        raise InputError(f"max_interior must be >= 1, got {max_interior}")
    counts = {}
    counted = []
    for sites, marks, improper in _iter_marked_interiors(
            model, x, exterior, max_interior, budget):
        if improper <= n_max:
            counts[improper] = counts.get(improper, 0) + 1
            counted.append((tuple(sorted(zip(sites, marks))), improper))
    k = max_degree(model.d, model.r)
    records = tuple(
        CensusRecord(n=n, count=counts.get(n, 0), bound=0.5 * (4 * math.e * k) ** n)
        for n in range(1, n_max + 1))
    report = CensusReport(kind="contours", k=k, records=records,
                          interior_cap=max_interior, contours=tuple(counted),
                          exterior=exterior)
    if report.violations():
        raise VerificationError("a rooted contour count exceeds its bound",
                                details=report)
    return report


def contour_roundtrip_mismatches(model: ModelSpec, report: CensusReport) -> list:
    """Plant every contour a contour census counted and re-extract it.

    Each marked interior, planted on its bounding box with the report's
    exterior spin elsewhere, must come back from the contour extractor as
    exactly one contour with the same marks and the same size.  Returns the
    list of mismatches (empty when the census and the engine agree).
    """
    mismatches = []
    for serial, size in report.contours:
        sites = [site for site, _ in serial]
        box = Box(tuple(map(min, zip(*sites))), tuple(map(max, zip(*sites))))
        config = Configuration.constant(box, report.exterior).replace(dict(serial))
        found = extract_contours(config, model)
        if (len(found) != 1 or found[0].serial() != serial
                or found[0].size != size):
            mismatches.append((serial, size, found))
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


def _steiner_min_vertices(adj, terminals: Sequence[int]) -> int:
    """Minimum vertex count of a connected subgraph containing the terminals.

    Classic subset dynamic program over (terminal set, attachment vertex)
    with unit edge weights; tree edge count + 1 is the vertex count.  Each
    singleton row is seeded at its terminal and relaxed like every other row.
    """
    t = len(terminals)
    h = len(adj)
    inf = math.inf
    full = (1 << t) - 1
    dp = [[inf] * h for _ in range(full + 1)]
    for i, term in enumerate(terminals):
        dp[1 << i][term] = 0
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
        labels = _label_components(sorted(chosen), adj)
        if max(labels.values()) == 0:
            return len(chosen)
        comp = sorted(v for v, c in labels.items() if c == 0)
        # BFS from the first component through the full graph to any other
        queue = deque(comp)
        parent = dict.fromkeys(comp)
        target = None
        while queue and target is None:
            v = queue.popleft()
            for u in adj[v]:
                if u not in parent:
                    parent[u] = v
                    if u in chosen:
                        target = u
                        break
                    queue.append(u)
        if target is None:
            raise VerificationError("connector search failed: graph not connected")
        while target is not None:
            chosen.add(target)
            target = parent[target]


def verify_connector_bound(gamma: Contour) -> ConnectorReport:
    """Check that the improper cubes admit a connector of at most twice their
    number of vertices.  Exact minimal search up to ``EXACT_CONNECTOR_LIMIT``
    terminals (which can refute the bound); a greedy constructive connector
    otherwise (which can only confirm it)."""
    anchors = sorted(c.anchor for c in gamma.improper_cubes)
    if not anchors:
        raise InputError("contour with no improper cubes")
    r = next(iter(gamma.improper_cubes)).r
    bound = 2 * len(anchors)
    hull = Box(tuple(map(min, zip(*anchors))), tuple(map(max, zip(*anchors))))
    adj = _box_index(hull, r).ball
    terminals = [hull.index_of(a) for a in anchors]
    if max(_label_components(terminals, adj).values()) == 0:
        return ConnectorReport(connector_size=len(anchors), bound=bound,
                               passes=True, exact=True)
    if len(anchors) <= EXACT_CONNECTOR_LIMIT:
        size = _steiner_min_vertices(adj, terminals)
        return ConnectorReport(connector_size=size, bound=bound,
                               passes=size <= bound, exact=True)
    size = _greedy_connector_size(adj, terminals)
    return ConnectorReport(connector_size=size, bound=bound,
                           passes=size <= bound, exact=False)
