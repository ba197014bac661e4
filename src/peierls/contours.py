"""Contour decomposition of boxed configurations with a removal operation.

A configuration lives on a finite box and is extended by a constant exterior
spin i.  Sites whose spin differs from i are the deviating sites.  The
decomposition is built in two layers:

* a subcontour is a maximal set of deviating sites sharing one spin value
  (its mark) and connected at Chebyshev distance one;
* subcontours whose interiors come within Chebyshev distance r of each other
  are clustered together, and each maximal cluster is a contour.

Equivalently, contours are the connected components of the deviating set
under "distance <= r" adjacency, which is how they are computed here.  Two
distinct contours are therefore farther than r apart, so no cube can meet
both: the improper cubes (those matching no constant pattern in 1..s) split
into disjoint groups, one per contour, and the group attached to a contour is
its ``improper_cubes`` with ``size`` counting them.

Resetting the interior of one contour to the exterior spin removes exactly
that contour and leaves every other contour intact; ``remove_contour``
implements this and validates its precondition structurally.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError
from .lattice import Box, Site, ball_offsets, cubes_meeting_box
from .model import ModelSpec, _tables, require_certified, _validate_config


@dataclass(frozen=True)
class Configuration:
    """Spins on a box (row-major tuple) plus a constant exterior spin."""

    box: Box
    spins: tuple
    exterior: int

    def __post_init__(self):
        if len(self.spins) != self.box.size:
            raise InputError(
                f"{len(self.spins)} spins for a box of {self.box.size} sites")
        if any(not isinstance(v, int) or v < 1 for v in self.spins):
            raise InputError("spins must be integers >= 1")
        if not isinstance(self.exterior, int) or self.exterior < 1:
            raise InputError(f"exterior spin must be an integer >= 1, got {self.exterior}")

    def spin_at(self, site: Site) -> int:
        if self.box.contains(site):
            return self.spins[self.box.index_of(site)]
        return self.exterior

    def deviating_sites(self) -> tuple:
        sites = self.box.sites()
        return tuple(sites[k] for k, v in enumerate(self.spins) if v != self.exterior)

    def replace(self, assignments: Mapping[Site, int]) -> "Configuration":
        spins = list(self.spins)
        for site, value in assignments.items():
            spins[self.box.index_of(site)] = value
        return Configuration(self.box, tuple(spins), self.exterior)

    @classmethod
    def constant(cls, box: Box, value: int, exterior: int | None = None) -> "Configuration":
        return cls(box, (value,) * box.size, value if exterior is None else exterior)

    @classmethod
    def random(cls, box: Box, q: int, exterior: int, rng) -> "Configuration":
        """Uniformly random spins from a seeded generator (tests, demos)."""
        return cls(box, tuple(int(rng.integers(1, q + 1)) for _ in range(box.size)),
                   exterior)


@dataclass(frozen=True)
class Subcontour:
    """A maximal distance-one-connected set of deviating sites with one mark."""

    sites: frozenset
    mark: int

    @property
    def min_site(self) -> Site:
        return min(self.sites)


@dataclass(frozen=True)
class Contour:
    """A maximal cluster of subcontours under distance <= r adjacency."""

    subcontours: tuple
    interior: frozenset
    improper_cubes: frozenset
    size: int

    @property
    def min_site(self) -> Site:
        return min(self.interior)

    def marks(self) -> dict:
        out = {}
        for sub in self.subcontours:
            for site in sub.sites:
                out[site] = sub.mark
        return out

    def serial(self) -> tuple:
        """Canonical identity: sorted (site, mark) pairs."""
        return tuple(sorted(self.marks().items()))


@dataclass(frozen=True)
class Boundary:
    """The improper cubes of a configuration."""

    improper_cubes: frozenset

    def __len__(self) -> int:
        return len(self.improper_cubes)


# ---------------------------------------------------------------------------
# Precomputed box geometry and per-model grids
# ---------------------------------------------------------------------------

class _BoxIndex:
    """Flat-array view of a box: site list, ball table and cube table.

    In both tables an entry is the flat index of a site, or n for a site
    outside the box, which reads the exterior spin.  ``ball_index`` has a row
    per site and a column per ``ball_offsets(d, r)`` offset: the distance-r
    neighbourhood that connects contours and keys the heat-bath conditional.
    ``cube_index`` has a row per cube meeting the box and a column per cube
    site, in the canonical cube site order.  ``ball`` and ``cube_site_idx``
    list each row's sites inside the box.
    """

    __slots__ = ("sites", "n", "ball_index", "ball", "cubes", "cube_index",
                 "cube_site_idx")

    def __init__(self, box: Box, r: int):
        self.sites = box.sites()
        self.n = len(self.sites)
        index = {site: k for k, site in enumerate(self.sites)}

        def table(rows):
            flat = [[index.get(site, self.n) for site in row] for row in rows]
            array = np.array(flat, dtype=np.int64)
            array.flags.writeable = False
            return array, tuple(tuple(k for k in row if k < self.n) for row in flat)

        offsets = ball_offsets(box.dimension, r)
        self.ball_index, self.ball = table(
            [tuple(a + b for a, b in zip(site, o)) for o in offsets]
            for site in self.sites)
        self.cubes = cubes_meeting_box(box, r)
        self.cube_index, self.cube_site_idx = table(
            cube.sites() for cube in self.cubes)


@functools.lru_cache(maxsize=32)
def _box_index(box: Box, r: int) -> _BoxIndex:
    return _BoxIndex(box, r)


class _Grid:
    """A box index specialized to one model: energy tables and cube codes."""

    __slots__ = ("bx", "model", "tables", "powers")

    def __init__(self, model: ModelSpec, box: Box):
        if box.dimension != model.d:
            raise InputError(
                f"box has dimension {box.dimension}, model has {model.d}")
        self.bx = _box_index(box, model.r)
        self.model = model
        self.tables = _tables(model)
        self.powers = np.array(self.tables.powers, dtype=np.int64)

    def codes(self, digits, ext_digit: int) -> np.ndarray:
        """Pattern codes of every cube meeting the box, for each digit row.

        The last axis of ``digits`` holds one base-q digit (spin minus one)
        per flat site; sites outside the box read ``ext_digit``.  Codes are
        linear in the digits and ``ext_digit`` together.  The gather takes
        (r+1)^d integers per cube and row, so pass large arrays in blocks.
        """
        digits = np.asarray(digits, dtype=np.int64)
        padded = np.append(digits, np.full(digits.shape[:-1] + (1,), ext_digit), -1)
        return padded[..., self.bx.cube_index] @ self.powers


# A grid shares its model's tables and its box's index with other grids and
# owns only the powers of q, so caching many grids costs little.
@functools.lru_cache(maxsize=16)
def _grid(model: ModelSpec, box: Box) -> _Grid:
    return _Grid(model, box)


def _label_components(members: Sequence[int], adjacency, restrict=None) -> dict:
    """Label connected components of ``members`` under an adjacency table.

    ``restrict`` optionally filters which neighbors join (same-mark labels).
    Returns a site-index -> component-id map; components are numbered in
    order of their smallest flat index.
    """
    labels = {}
    comp = 0
    member_set = set(members)
    for start in members:
        if start in labels:
            continue
        labels[start] = comp
        stack = [start]
        while stack:
            k = stack.pop()
            for j in adjacency[k]:
                if j in member_set and j not in labels:
                    if restrict is None or restrict(k, j):
                        labels[j] = comp
                        stack.append(j)
        comp += 1
    return labels


def _light_contours(digits: Sequence[int], ext_digit: int, improper: Sequence[bool],
                    grid: _Grid) -> tuple:
    """Per-configuration contour summary used by exhaustive sweeps.

    ``improper`` flags each cube of the grid whose pattern is improper.
    Returns a tuple of (serial, size) pairs where serial is the canonical
    sorted tuple of (site, mark) pairs.
    """
    bx = grid.bx
    dev = [k for k in range(bx.n) if digits[k] != ext_digit]
    if not dev:
        return ()
    labels = _label_components(dev, bx.ball)
    n_comp = max(labels.values()) + 1
    sizes = [0] * n_comp
    for j, flag in enumerate(improper):
        if flag:
            for k in bx.cube_site_idx[j]:
                if digits[k] != ext_digit:
                    sizes[labels[k]] += 1
                    break
    groups = [[] for _ in range(n_comp)]
    for k in dev:
        groups[labels[k]].append((bx.sites[k], digits[k] + 1))
    return tuple(
        (tuple(sorted(group)), sizes[c]) for c, group in enumerate(groups)
    )


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def subcontours(config: Configuration) -> list:
    """Maximal same-mark components of the deviating set at distance one.

    Needs no model: connectivity and marks are purely combinatorial.  The
    returned list is ordered by smallest interior site.
    """
    bx = _box_index(config.box, 1)
    spins = config.spins
    ext = config.exterior
    dev = [k for k in range(bx.n) if spins[k] != ext]
    labels = _label_components(dev, bx.ball,
                               restrict=lambda a, b: spins[a] == spins[b])
    groups = {}
    for k, c in labels.items():
        groups.setdefault(c, []).append(k)
    out = [
        Subcontour(frozenset(bx.sites[k] for k in ks), spins[ks[0]])
        for ks in groups.values()
    ]
    out.sort(key=lambda sub: sub.min_site)
    return out


def boundary(config: Configuration, model: ModelSpec) -> Boundary:
    """The improper cubes among all cubes meeting the box.

    A cube is improper when its pattern (exterior sites read as the boundary
    spin) is not constant with a value in 1..s.  Requires a certified model,
    since that is what makes the constant patterns the ground-state
    restrictions.
    """
    require_certified(model)
    _validate_config(config, model)
    grid = _grid(model, config.box)
    codes = grid.codes([v - 1 for v in config.spins], config.exterior - 1)
    cubes = grid.bx.cubes
    return Boundary(frozenset(
        cubes[j] for j in np.flatnonzero(grid.tables.improper[codes]).tolist()))


def contours(config: Configuration, model: ModelSpec) -> list:
    """The contour decomposition of a configuration, canonically ordered.

    Each contour carries its subcontours, interior, improper cubes and size;
    the list is sorted by smallest interior site.
    """
    require_certified(model)
    _validate_config(config, model)
    grid = _grid(model, config.box)
    bx = grid.bx
    spins = config.spins
    ext = config.exterior
    dev = [k for k in range(bx.n) if spins[k] != ext]
    if not dev:
        return []

    contour_labels = _label_components(dev, bx.ball)
    codes = grid.codes([v - 1 for v in spins], ext - 1)
    imp_per_contour = {}
    for j in np.flatnonzero(grid.tables.improper[codes]).tolist():
        for k in bx.cube_site_idx[j]:
            if spins[k] != ext:
                imp_per_contour.setdefault(contour_labels[k], []).append(bx.cubes[j])
                break

    per_contour_subs = {}
    for sub in subcontours(config):  # ordered by smallest site
        k = config.box.index_of(sub.min_site)
        per_contour_subs.setdefault(contour_labels[k], []).append(sub)

    out = []
    for c, subs in per_contour_subs.items():
        interior = frozenset().union(*(sc.sites for sc in subs))
        imp = frozenset(imp_per_contour.get(c, ()))
        out.append(Contour(subcontours=tuple(subs), interior=interior,
                           improper_cubes=imp, size=len(imp)))
    out.sort(key=lambda gamma: gamma.min_site)
    return out


def remove_contour(config: Configuration, gamma: Contour) -> Configuration:
    """Reset the contour's interior to the exterior spin.

    Validates structurally that ``gamma`` is a contour of ``config``: the
    marks must match the configuration on the interior, and every other site
    within distance r of the interior must already carry the exterior spin
    (otherwise the cluster would extend beyond ``gamma``).  The result's
    contour list is the original list minus ``gamma``.
    """
    marks = gamma.marks()
    ext = config.exterior
    for site, mark in marks.items():
        if not config.box.contains(site):
            raise InputError(f"contour interior site {site} outside the box")
        if config.spin_at(site) != mark:
            raise InputError(
                f"configuration has spin {config.spin_at(site)} at {site}, "
                f"contour mark is {mark}")
        if mark == ext:
            raise InputError(f"contour mark at {site} equals the exterior spin")
    if not gamma.improper_cubes:
        raise InputError("contour with no improper cubes")
    r = next(iter(gamma.improper_cubes)).r
    bx = _box_index(config.box, r)
    inner = {config.box.index_of(site) for site in gamma.interior}
    near = [k for j in inner for k in bx.ball[j]
            if k not in inner and config.spins[k] != ext]
    if near:
        raise InputError(
            f"deviating site {bx.sites[min(near)]} within distance {r} of the "
            "interior: the given set is not a whole contour of the configuration")
    return config.replace({site: ext for site in gamma.interior})
