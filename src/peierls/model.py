"""Hamiltonian machinery for finite-range translation-invariant spin models.

A model is a list of interaction terms, each a finite shape of site offsets
together with a table mapping spin patterns on that shape to energies.  The
total energy is resummed over cubes: every cube of range r receives, for each
term placement it contains, the term value divided by the number of cubes
containing that placement, so the sum over all cubes reproduces the plain sum
over placements.  Everything downstream (gaps, certificates, bounds) is
phrased in terms of the resulting cube energies.

Energies are handled relative to the minimal cube energy ``u_min``: constant
offsets cancel in every Boltzmann ratio, and relative form makes "energy zero
iff locally minimal" literal.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CapacityError, CertificationError, InputError
from .lattice import Site, containing_cube_count

VALUE_TOL = 1e-9     # clustering tolerance for distinct cube-energy values
SYMMETRY_TOL = 1e-12

DEFAULT_PATTERN_BUDGET = 1 << 22
_MAX_REPORTED_PATTERNS = 4096


@dataclass(frozen=True)
class InteractionTerm:
    """One translation-invariant interaction: a canonical shape plus a table.

    ``offsets`` is sorted with its minimum corner at the origin; ``entries``
    maps spin patterns (aligned with the offset order) to energies.  Missing
    patterns read as zero.
    """

    offsets: tuple
    entries: tuple

    @classmethod
    def from_table(cls, offsets: Sequence[Site], table: Mapping[tuple, float]) -> "InteractionTerm":
        """Build a term from raw offsets and a pattern table, canonicalizing.

        The shape is translated so its minimum corner sits at the origin and
        sorted lexicographically; table keys are permuted to match.
        """
        offs = [tuple(o) for o in offsets]
        if not offs:
            raise InputError("interaction term with empty shape")
        if len(set(offs)) != len(offs):
            raise InputError(f"duplicate offsets in term shape {offs}")
        d = len(offs[0])
        if any(len(o) != d for o in offs):
            raise InputError("offsets of mixed dimension in one term")
        mins = tuple(min(o[k] for o in offs) for k in range(d))
        shifted = [tuple(c - m for c, m in zip(o, mins)) for o in offs]
        order = sorted(range(len(shifted)), key=lambda j: shifted[j])
        canon = tuple(shifted[j] for j in order)
        entries = {}
        for pattern, value in table.items():
            pat = tuple(pattern)
            if len(pat) != len(offs):
                raise InputError(
                    f"pattern {pat} does not match shape of {len(offs)} offsets"
                )
            if any(not isinstance(v, int) or v < 1 for v in pat):
                raise InputError(f"spins must be integers >= 1, got {pat}")
            key = tuple(pat[j] for j in order)
            if key in entries:
                raise InputError(f"duplicate table entry for pattern {pat}")
            entries[key] = float(value)
        return cls(canon, tuple(sorted(entries.items())))

    @property
    def dimension(self) -> int:
        return len(self.offsets[0])

    @property
    def extents(self) -> tuple:
        return tuple(
            max(o[k] for o in self.offsets) for k in range(self.dimension)
        )

    @property
    def diameter(self) -> int:
        return max(self.extents)


@dataclass(frozen=True)
class ModelSpec:
    """A finite-range model: dimension, range, spin count, symmetric sector,
    and interaction terms.  Spins live in 1..q; the symmetric sector is 1..s.
    """

    d: int
    r: int
    q: int
    s: int
    terms: tuple = ()
    built_in: str | None = None

    def __post_init__(self):
        if self.d < 2:
            raise InputError(f"dimension must be >= 2, got {self.d}")
        if self.r < 1:
            raise InputError(f"range must be >= 1, got {self.r}")
        if not 1 <= self.s <= self.q:
            raise InputError(f"need 1 <= s <= q, got s={self.s}, q={self.q}")
        for term in self.terms:
            if term.dimension != self.d:
                raise InputError(
                    f"term shape {term.offsets} has dimension {term.dimension}, model has {self.d}"
                )
            if term.diameter > self.r:
                raise InputError(
                    f"term shape {term.offsets} has diameter {term.diameter} > range {self.r}"
                )
            for pattern, _ in term.entries:
                if any(v > self.q for v in pattern):
                    raise InputError(f"pattern {pattern} uses spins above q={self.q}")

    @property
    def cube_site_count(self) -> int:
        return (self.r + 1) ** self.d

    @property
    def pattern_count(self) -> int:
        return self.q ** self.cube_site_count


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------

def potts_model(d: int = 2, r: int = 1, q: int = 2, J: float = 1.0, s: int | None = None) -> ModelSpec:
    """Ferromagnetic Potts coupling -J on every site pair at Chebyshev
    distance one (axis and diagonal neighbors alike)."""
    if s is None:
        s = q
    terms = []
    for v in itertools.product((-1, 0, 1), repeat=d):
        if all(c == 0 for c in v):
            continue
        first = next(c for c in v if c != 0)
        if first < 0:
            continue  # one representative per unordered direction
        table = {(a, a): -float(J) for a in range(1, q + 1)}
        terms.append(InteractionTerm.from_table([(0,) * d, v], table))
    return ModelSpec(d=d, r=r, q=q, s=s, terms=tuple(terms),
                     built_in=f"potts:d={d},r={r},q={q},s={s},J={J:g}")


def ising_model(J: float = 1.0) -> ModelSpec:
    """Two-spin Potts model, the Ising model up to an energy shift."""
    m = potts_model(d=2, r=1, q=2, J=J, s=2)
    return ModelSpec(d=m.d, r=m.r, q=m.q, s=m.s, terms=m.terms,
                     built_in=f"ising:J={J:g}")


def excited_potts_model(q: int = 3, s: int = 2, J: float = 1.0,
                        penalty: float = 1.0, d: int = 2, r: int = 1) -> ModelSpec:
    """Potts coupling on all q spins plus a per-site penalty on spins above s,
    so only the first s constants stay minimal."""
    if not 1 <= s < q:
        raise InputError(f"excited model needs 1 <= s < q, got s={s}, q={q}")
    if penalty <= 0:
        raise InputError(f"penalty must be positive, got {penalty}")
    base = potts_model(d=d, r=r, q=q, J=J, s=s)
    field = InteractionTerm.from_table(
        [(0,) * d], {(v,): float(penalty) for v in range(s + 1, q + 1)}
    )
    return ModelSpec(d=d, r=r, q=q, s=s, terms=base.terms + (field,),
                     built_in=f"potts-excited:d={d},r={r},q={q},s={s},J={J:g},penalty={penalty:g}")


_BUILTIN_FACTORIES = {
    "potts": potts_model,
    "ising": ising_model,
    "potts-excited": excited_potts_model,
}


def builtin_model(spec: str) -> ModelSpec:
    """Resolve a builtin spec string such as ``potts:q=3,J=1``."""
    name, _, params = spec.partition(":")
    name = name.strip()
    if name not in _BUILTIN_FACTORIES:
        raise InputError(
            f"unknown builtin {name!r}; available: {', '.join(sorted(_BUILTIN_FACTORIES))}"
        )
    kwargs = {}
    if params.strip():
        for piece in params.split(","):
            key, eq, value = piece.partition("=")
            if not eq:
                raise InputError(f"malformed builtin parameter {piece!r}")
            key = key.strip()
            value = value.strip()
            try:
                kwargs[key] = int(value) if key in {"d", "r", "q", "s"} else float(value)
            except ValueError as exc:
                raise InputError(f"bad value for builtin parameter {key}: {value!r}") from exc
    try:
        return _BUILTIN_FACTORIES[name](**kwargs)
    except TypeError as exc:
        raise InputError(f"bad parameters for builtin {name!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Cube energies
# ---------------------------------------------------------------------------

def cube_sites(d: int, r: int) -> tuple:
    """Canonical ordering of the offsets of one cube (lexicographic)."""
    return tuple(itertools.product(range(r + 1), repeat=d))


def digits_of(index, q: int, n: int) -> np.ndarray:
    """The n base-q digits of each index below 2^63 (an integer or an integer
    array), least significant first, along a new last axis."""
    index = np.asarray(index, dtype=np.int64)
    return index[..., None] // q ** np.arange(n, dtype=np.int64) % q


@dataclass(frozen=True)
class _PatternTables:
    """Precomputed per-model arrays indexed by cube pattern code.

    The code of a pattern is sum_p (spin_p - 1) * q**p over the canonical
    cube site order.  ``u`` holds cube energies, ``improper`` flags patterns
    that match no constant in 1..s.
    """

    sites: tuple
    powers: tuple
    u: np.ndarray
    improper: np.ndarray
    u_min: float
    gap: float
    value_count: int
    min_codes: frozenset
    constant_codes: tuple  # code of the constant-v pattern, index v-1


# A table can take 36 MB at DEFAULT_PATTERN_BUDGET: keep a few models only.
@functools.lru_cache(maxsize=8)
def _tables(model: ModelSpec) -> _PatternTables:
    c = model.cube_site_count
    q = model.q
    count = model.pattern_count
    if count > DEFAULT_PATTERN_BUDGET:
        raise CapacityError(
            f"cube pattern space has {count} elements, over the budget "
            f"{DEFAULT_PATTERN_BUDGET}", count=count)
    sites = cube_sites(model.d, model.r)
    pos = {site: p for p, site in enumerate(sites)}
    powers = tuple(q ** p for p in range(c))

    codes = np.arange(count, dtype=np.int64)
    u = np.zeros(count, dtype=np.float64)
    for term in model.terms:
        weight = containing_cube_count(term.offsets, model.r)
        values = np.zeros(q ** len(term.offsets), dtype=np.float64)
        for pattern, val in term.entries:
            code = sum((v - 1) * q ** j for j, v in enumerate(pattern))
            values[code] += val
        shifts = itertools.product(
            *(range(model.r - e + 1) for e in term.extents))
        for t in shifts:
            # the placement's term code, one cube position (digit) at a time
            term_codes = np.zeros(count, dtype=np.int64)
            for j, o in enumerate(term.offsets):
                p = powers[pos[tuple(a + b for a, b in zip(t, o))]]
                term_codes += codes // p % q * q ** j
            with np.errstate(over="ignore", invalid="ignore"):  # refused below
                u += values[term_codes] / weight
    if not np.isfinite(u).all():
        raise InputError("a cube energy is not finite (nan, inf or an overflow)")

    constant_codes = tuple(
        (v - 1) * (count - 1) // (q - 1) if q > 1 else 0 for v in range(1, q + 1)
    )
    improper = np.ones(count, dtype=bool)
    for v in range(1, model.s + 1):
        improper[constant_codes[v - 1]] = False

    u_min = float(u.min())
    sorted_vals = np.sort(np.unique(u))
    # cluster floating values: a new distinct value starts after a gap > tol
    reps = [float(sorted_vals[0])]
    for v in sorted_vals[1:]:
        if v - reps[-1] > VALUE_TOL:
            reps.append(float(v))
    gap = reps[1] - reps[0] if len(reps) >= 2 else 0.0
    min_codes = frozenset(np.flatnonzero(u <= u_min + VALUE_TOL).tolist())

    u.flags.writeable = False
    improper.flags.writeable = False
    return _PatternTables(sites=sites, powers=powers, u=u, improper=improper,
                          u_min=u_min, gap=gap, value_count=len(reps),
                          min_codes=min_codes, constant_codes=constant_codes)


class CubePotential:
    """Evaluator of the energy of a single cube pattern.

    Patterns are sequences of spins in 1..q aligned with ``sites``, the
    lexicographic ordering of the cube's offsets.
    """

    def __init__(self, model: ModelSpec):
        self.model = model
        self._t = _tables(model)
        self.sites = self._t.sites

    def value(self, pattern: Sequence[int]) -> float:
        if len(pattern) != len(self.sites):
            raise InputError(
                f"pattern has {len(pattern)} spins, cube has {len(self.sites)} sites")
        code = 0
        for p, v in zip(self._t.powers, pattern):
            if not 1 <= v <= self.model.q:
                raise InputError(f"spin {v} outside 1..{self.model.q}")
            code += (v - 1) * p
        return float(self._t.u[code])

    def constant(self, spin: int) -> float:
        return float(self._t.u[self._t.constant_codes[spin - 1]])


# ---------------------------------------------------------------------------
# Spectrum, certificates, symmetry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumSummary:
    """The value set of cube energies: its minimum, the gap to the next
    distinct value, and the minimizing patterns."""

    min_energy: float
    gap: float
    minimizers: tuple
    minimizer_count: int
    value_count: int
    degenerate: bool


def potential_spectrum(model: ModelSpec, budget: int | None = None) -> SpectrumSummary:
    """Enumerate all cube patterns and summarize the energy value set.

    ``gap`` is the difference between the two lowest distinct values
    (values closer than 1e-9 are treated as ties); it is zero, and the
    summary is flagged degenerate, when only one value occurs.
    """
    if budget is not None and budget < 0:
        raise InputError(f"budget must be >= 0, got {budget}")
    if budget is not None and model.pattern_count > budget:
        raise CapacityError(
            f"cube pattern space has {model.pattern_count} elements, over the "
            f"budget {budget}", count=model.pattern_count)
    t = _tables(model)
    c = model.cube_site_count
    codes = sorted(t.min_codes)
    minimizers = tuple(map(tuple, (
        digits_of(codes[:_MAX_REPORTED_PATTERNS], model.q, c) + 1).tolist()))
    return SpectrumSummary(
        min_energy=t.u_min, gap=t.gap, minimizers=minimizers,
        minimizer_count=len(t.min_codes), value_count=t.value_count,
        degenerate=t.value_count == 1)


@dataclass(frozen=True)
class GroundStateReport:
    """Certificate that the minimizing cube patterns are exactly the
    constants 1..s.  When it holds, the constant configurations 1..s are
    the ground states: overlapping cubes share at least (r+1)^(d-1) sites,
    which forces any configuration with all cubes minimal to be constant.
    """

    certified: bool
    ground_spins: tuple
    constant_minimizers: tuple
    offenders: tuple
    min_energy: float
    gap: float


@functools.lru_cache(maxsize=8)
def verify_ground_states(model: ModelSpec) -> GroundStateReport:
    """Check whether the minimizing patterns are exactly the constants 1..s."""
    t = _tables(model)
    c = model.cube_site_count
    expected = frozenset(t.constant_codes[v - 1] for v in range(1, model.s + 1))
    constant_minimizers = tuple(
        v for v in range(1, model.q + 1) if t.constant_codes[v - 1] in t.min_codes
    )
    certified = t.min_codes == expected and t.value_count >= 2
    offenders = ()
    if not certified:
        bad = sorted(t.min_codes - expected)[:_MAX_REPORTED_PATTERNS]
        offenders = tuple(map(tuple, (digits_of(bad, model.q, c) + 1).tolist()))
    return GroundStateReport(
        certified=certified,
        ground_spins=tuple(range(1, model.s + 1)) if certified else (),
        constant_minimizers=constant_minimizers,
        offenders=offenders,
        min_energy=t.u_min,
        gap=t.gap)


def require_certified(model: ModelSpec) -> GroundStateReport:
    report = verify_ground_states(model)
    if not report.certified:
        raise CertificationError(
            "model is not certified: minimizing cube patterns are not exactly "
            f"the constants 1..{model.s}")
    return report


@functools.lru_cache(maxsize=8)
def check_symmetry(model: ModelSpec) -> bool:
    """True iff cube energies are invariant under every permutation of the
    spins 1..s (identity above s), checked on the transposition generators.

    This is a sufficient condition for the full Hamiltonian symmetry, since
    the energy is a sum of cube terms.
    """
    if model.s == 1:
        return True
    t = _tables(model)
    q = model.q
    codes = np.arange(model.pattern_count, dtype=np.int64)
    for a in range(1, model.s):  # transpositions (a, a+1), 1-based spins
        perm = np.arange(q, dtype=np.int64)
        perm[a - 1], perm[a] = perm[a], perm[a - 1]
        permuted = np.zeros_like(codes)
        for p in t.powers:  # one cube position (digit) at a time
            permuted += perm[codes // p % q] * p
        if np.max(np.abs(t.u[permuted] - t.u)) > SYMMETRY_TOL:
            return False
    return True


def permute_spins(g: Sequence[int], spins: Iterable[int], s: int) -> tuple:
    """Apply a permutation g of 1..s (identity above s) to a spin sequence."""
    table = list(range(0, s + 1))
    for j, gj in enumerate(g, start=1):
        table[j] = gj
    return tuple(table[v] if v <= s else v for v in spins)


# ---------------------------------------------------------------------------
# Conditional and relative energies on finite boxes
# ---------------------------------------------------------------------------

def _validate_config(config, model: ModelSpec):
    if config.box.dimension != model.d:
        raise InputError(
            f"configuration box has dimension {config.box.dimension}, model has {model.d}")
    if any(v > model.q for v in config.spins):
        raise InputError(f"configuration uses spins above q={model.q}")
    if config.exterior > model.s:
        raise InputError(
            f"exterior spin {config.exterior} outside the symmetric sector 1..{model.s}")


def conditional_hamiltonian(config, model: ModelSpec) -> float:
    """Energy of a boxed configuration relative to the minimal cube energy.

    Sums u(pattern) - u_min over every cube meeting the box, reading sites
    outside the box as the exterior spin.  Nonnegative; zero exactly when
    every cube pattern is minimal.
    """
    from .contours import _grid  # contours depends on model

    _validate_config(config, model)
    t = _tables(model)
    codes = _grid(model, config.box).codes(
        [v - 1 for v in config.spins], config.exterior - 1)
    return math.fsum(t.u[codes].tolist()) - len(codes) * t.u_min


def relative_hamiltonian(config, phi: int, model: ModelSpec) -> float:
    """Energy of a configuration relative to the constant ground state phi.

    Requires a certified model and a configuration that coincides with phi
    outside its box; then the value equals the conditional energy.
    """
    require_certified(model)
    if not 1 <= phi <= model.s:
        raise InputError(f"reference spin {phi} is not a certified ground state")
    if config.exterior != phi:
        raise InputError(
            f"configuration has exterior {config.exterior}, does not coincide "
            f"with the constant {phi} outside its box")
    return conditional_hamiltonian(config, model)


@dataclass(frozen=True)
class PeierlsReport:
    """Outcome of checking energy >= gap * boundary size on sample configs."""

    checked: int
    violations: tuple
    tightest_ratio: float | None
    gap: float

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_peierls(model: ModelSpec, samples: Iterable) -> PeierlsReport:
    """Check the energy lower bound gap * |boundary| on each sample.

    The tightest ratio reported is min energy / (gap * boundary size) over
    samples with nonempty boundary; it is >= 1 up to arithmetic slack.
    """
    from .contours import boundary as _boundary

    report = require_certified(model)
    if report.gap <= 0:
        raise CertificationError("model has zero spectral gap")
    checked = 0
    violations = []
    tightest = None
    for config in samples:
        h = relative_hamiltonian(config, config.exterior, model)
        b = len(_boundary(config, model).improper_cubes)
        checked += 1
        if h < report.gap * b - 1e-12:
            violations.append((config, h, b))
        if b > 0:
            ratio = h / (report.gap * b)
            tightest = ratio if tightest is None else min(tightest, ratio)
    return PeierlsReport(checked=checked, violations=tuple(violations),
                         tightest_ratio=tightest, gap=report.gap)
