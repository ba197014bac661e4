"""Geometry of the integer lattice under the Chebyshev (max-coordinate) metric.

Sites are plain tuples of signed integers.  A cube of range r is the
translate of {0,...,r}^d anchored at some site; cubes are the supports of the
local energies and the vertices of the cube adjacency graph used by the
counting module.  Every finite set whose Chebyshev diameter is at most r fits
inside at least one cube, which is what makes the cube family the right
bookkeeping device for finite-range interactions.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import InputError

Site = tuple  # d-tuple of ints


def chebyshev_distance(x: Site, y: Site) -> int:
    """Max over axes of the absolute coordinate difference."""
    if len(x) != len(y):
        raise InputError(f"dimension mismatch: {len(x)} vs {len(y)}")
    return max(abs(a - b) for a, b in zip(x, y))


def diameter(sites: Iterable[Site]) -> int:
    """Chebyshev diameter of a finite nonempty set of sites."""
    pts = list(sites)
    if not pts:
        raise InputError("diameter of an empty set")
    d = len(pts[0])
    return max(
        max(p[k] for p in pts) - min(p[k] for p in pts) for k in range(d)
    )


@dataclass(frozen=True)
class Cube:
    """The translate of {0,...,r}^d anchored at ``anchor``: (r+1)^d sites."""

    anchor: Site
    r: int

    def __post_init__(self):
        if self.r < 1:
            raise InputError(f"cube range must be >= 1, got {self.r}")

    @property
    def dimension(self) -> int:
        return len(self.anchor)

    def sites(self) -> Iterator[Site]:
        """Sites of the cube in lexicographic offset order."""
        for off in itertools.product(range(self.r + 1), repeat=self.dimension):
            yield tuple(a + o for a, o in zip(self.anchor, off))

    def contains(self, site: Site) -> bool:
        return all(a <= c <= a + self.r for a, c in zip(self.anchor, site))

    def intersects(self, other: "Cube") -> bool:
        """Nonempty overlap; per axis the intervals [a, a+r] must meet."""
        return all(
            a <= b + other.r and b <= a + self.r
            for a, b in zip(self.anchor, other.anchor)
        )


@dataclass(frozen=True)
class Box:
    """Axis-aligned product of integer intervals, both endpoints inclusive."""

    lower: Site
    upper: Site

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise InputError("box corners of different dimension")
        if any(u < l for l, u in zip(self.lower, self.upper)):
            raise InputError(f"empty box {self.lower}..{self.upper}")

    @property
    def dimension(self) -> int:
        return len(self.lower)

    @property
    def shape(self) -> tuple:
        return tuple(u - l + 1 for l, u in zip(self.lower, self.upper))

    @property
    def size(self) -> int:
        n = 1
        for w in self.shape:
            n *= w
        return n

    def contains(self, site: Site) -> bool:
        return all(l <= c <= u for l, c, u in zip(self.lower, site, self.upper))

    def sites(self) -> tuple:
        """All sites in row-major order (last axis fastest)."""
        return _box_sites(self)

    def index_of(self, site: Site) -> int:
        """Row-major flat index of a site; raises if outside the box."""
        if not self.contains(site):
            raise InputError(f"site {site} outside box {self.lower}..{self.upper}")
        idx = 0
        for l, c, w in zip(self.lower, site, self.shape):
            idx = idx * w + (c - l)
        return idx

    @property
    def center(self) -> Site:
        """Floor midpoint, a canonical interior site."""
        return tuple((l + u) // 2 for l, u in zip(self.lower, self.upper))

    @classmethod
    def from_shape(cls, shape: Sequence[int], lower: Sequence[int] | None = None) -> "Box":
        lo = tuple(lower) if lower is not None else (0,) * len(shape)
        return cls(lo, tuple(l + w - 1 for l, w in zip(lo, shape)))


@functools.lru_cache(maxsize=64)
def _box_sites(box: Box) -> tuple:
    ranges = [range(l, u + 1) for l, u in zip(box.lower, box.upper)]
    return tuple(itertools.product(*ranges))


@functools.lru_cache(maxsize=None)
def ball_offsets(d: int, r: int) -> tuple:
    """The nonzero offsets of Chebyshev length <= r, in lexicographic order.

    Two range-r cubes intersect iff their anchors differ by such an offset,
    so there are (2r+1)^d - 1 of them: the degree of the cube graph.
    """
    return tuple(off for off in itertools.product(range(-r, r + 1), repeat=d)
                 if any(off))


def cubes_meeting(sites: Iterable[Site], r: int) -> set:
    """All cubes of range r that intersect the given finite nonempty set.

    A cube anchored at a contains x iff a_k is in [x_k - r, x_k] on every
    axis, so the anchors form the union of per-site windows.
    """
    pts = list(sites)
    if not pts:
        raise InputError("cubes_meeting of an empty set")
    anchors = set()
    for p in pts:
        for off in itertools.product(range(-r, 1), repeat=len(p)):
            anchors.add(tuple(c + o for c, o in zip(p, off)))
    return {Cube(a, r) for a in anchors}


def containing_cube_count(sites: Iterable[Site], r: int) -> int:
    """Number of range-r cubes containing the whole set (0 if none does).

    Closed form: the product over axes of r + 1 - (per-axis extent),
    clipped at zero when any extent exceeds r.
    """
    pts = list(sites)
    if not pts:
        raise InputError("containing_cube_count of an empty set")
    count = 1
    for k in range(len(pts[0])):
        extent = max(p[k] for p in pts) - min(p[k] for p in pts)
        span = r + 1 - extent
        if span <= 0:
            return 0
        count *= span
    return count


def cubes_meeting_box(box: Box, r: int) -> tuple:
    """Cubes intersecting the box, in lexicographic anchor order."""
    ranges = [range(l - r, u + 1) for l, u in zip(box.lower, box.upper)]
    return tuple(Cube(a, r) for a in itertools.product(*ranges))
