"""Single-site Monte Carlo for volumes beyond exact enumeration.

The default kernel is the heat bath: a visited site redraws its spin from
the exact single-site conditional, computed locally from the cubes containing
the site.  Metropolis proposals are available as an option.  Sweeps visit
all sites in a random order.

Randomness is counter-based (Philox): the uniforms consumed for the sites of
sweep t come from a stream keyed by (seed, salt, t) and indexed by site, and
the visit order is a ``shuffle`` drawn from a separate stream, so a chain is
a pure function of its spec and replicas with different seeds are
independent by key.  A chain builds one Philox generator and, before each
draw, sets its key and counter to the start of the stream it reads, which
gives bit for bit the uniforms of a generator built afresh for every stream.

The heat-bath conditional at a site depends only on the digits at its ball
offsets (every site meets its cubes in the same order), so a heat-bath chain
keeps them per site as one base-q integer key, moved on each flip by steps
read off the box's ball table, and caches the conditional's inversion
thresholds under the key.  The cache is bounded, and a chain whose lookups
mostly miss drops it; the cache never changes a chain, only its speed.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .contours import Configuration, contours as extract_contours, _grid
from .errors import InputError
from .exact import FiniteVolumeEnsemble
from .lattice import Box, Site
from .model import ModelSpec, require_certified

_SALT_HEAT = 0x68656174          # site-update uniforms
_SALT_ORDER = 0x6f72646572       # visit order
_SALT_PROPOSE = 0x70726f70       # metropolis proposals

# Heat-bath conditionals stored per chain, and the lookups after which a
# chain that missed on more than 7/8 of them goes uncached: there the keys
# and lookups cost more than the hits save (potts:q=3,r=2 at beta 0.3 misses
# on 90%).
_CACHE_CAP = 1 << 16
_CACHE_TRIAL = 4096

KERNELS = ("heat-bath", "metropolis")


@dataclass(frozen=True)
class ChainSpec:
    """A fully reproducible chain: ensemble, seed, and sweep schedule."""

    ensemble: FiniteVolumeEnsemble
    seed: int
    burn_in: int
    samples: int
    thinning: int = 1
    kernel: str = "heat-bath"

    def __post_init__(self):
        if self.burn_in < 1 or self.samples < 1:
            raise InputError("burn_in and samples must be >= 1")
        if self.thinning < 1:
            raise InputError("thinning must be >= 1")
        if self.kernel not in KERNELS:
            raise InputError(f"kernel must be one of {KERNELS}")

    @property
    def total_sweeps(self) -> int:
        return self.burn_in + self.samples * self.thinning


def _stream(rng: np.random.Generator, state: dict, salt: int,
            sweep: int) -> np.random.Generator:
    """Position the Philox generator ``rng`` at the start of the stream keyed
    by (seed, salt) with counter sweep, through the chain's ``state`` dict."""
    inner = state["state"]
    inner["counter"][3] = sweep
    inner["key"][1] = salt
    rng.bit_generator.state = state
    return rng


def _steps(index: np.ndarray, weights: Sequence[int], n: int) -> list:
    """For each site k, the (row, column weight) pairs of the entries k of a
    flat-index table, in row order; entries n, outside the box, drop out."""
    steps = [[] for _ in range(n)]
    for row, sites in enumerate(index.tolist()):
        for k, w in zip(sites, weights):
            if k < n:
                steps[k].append((row, w))
    return steps


class _ChainState:
    """Mutable spins plus incrementally maintained cube codes and energy.

    ``beta`` is fixed for the life of the state: the heat-bath cache holds
    conditionals at that inverse temperature, under keys kept if ``keyed``.
    """

    def __init__(self, model: ModelSpec, box: Box, exterior: int,
                 beta: float = 0.0, keyed: bool = False):
        require_certified(model)
        grid = _grid(model, box)
        self.model = model
        self.box = box
        self.exterior = exterior
        self.beta = beta
        self.q = model.q
        self.n = box.size
        self.u = grid.tables.u.tolist()  # site updates read it one cube at a time
        self.u_min = grid.tables.u_min
        self.digits = [exterior - 1] * self.n
        # int64 spins, written through a memoryview: cheaper than numpy's setitem
        self.spin_view = memoryview(np.full(self.n, exterior, dtype=np.int64))
        self.codes = grid.codes(self.digits, exterior - 1).tolist()
        # per site: (cube index, power of q at its position) for each cube
        self.site_cubes = _steps(grid.bx.cube_index, grid.tables.powers, self.n)
        self.thresholds = {}
        self.keys, self.misses = None, 0
        if keyed:
            # digit s of a key: the one at ball offset s, the exterior's
            # outside the box.  key_steps[k] lists (k2, q^s) for each site
            # k2 that has site k at offset s.
            weights = [self.q ** s for s in range(grid.bx.ball_index.shape[1])]
            self.keys = [(exterior - 1) * sum(weights)] * self.n
            self.key_steps = _steps(grid.bx.ball_index, weights, self.n)

    def energy(self) -> float:
        u = self.u
        return math.fsum(u[c] for c in self.codes) - len(self.codes) * self.u_min

    def spins(self) -> np.ndarray:
        return self.spin_view.obj.copy()

    def configuration(self) -> Configuration:
        return Configuration(self.box, tuple(d + 1 for d in self.digits),
                             self.exterior)

    def set_digit(self, k: int, digit: int) -> None:
        delta = digit - self.digits[k]
        if delta == 0:
            return
        codes = self.codes
        for j, p in self.site_cubes[k]:
            codes[j] += delta * p
        if self.keys is not None:
            keys = self.keys
            for k2, w in self.key_steps[k]:
                keys[k2] += delta * w
        self.digits[k] = digit
        self.spin_view[k] = digit + 1

    def conditional(self, k: int) -> list:
        """Exact single-site conditional probabilities over the q spin values."""
        u, codes, cubes = self.u, self.codes, self.site_cubes[k]
        cur = self.digits[k]
        energies = []
        for delta in range(-cur, self.q - cur):
            e = 0.0
            for j, p in cubes:
                e += u[codes[j] + delta * p]
            energies.append(e)
        lo = min(energies)
        weights = [math.exp(-self.beta * (e - lo)) for e in energies]
        z = math.fsum(weights)
        return [w / z for w in weights]

    def heat_bath(self, k: int, u01: float) -> None:
        """Redraw site k by inversion: the first value whose cumulative
        conditional probability exceeds u01, else the last value."""
        keys = self.keys
        cuts = None if keys is None else self.thresholds.get(keys[k])
        if cuts is None:
            # cumulative sums of all but the last probability, in order
            cuts = tuple(accumulate(self.conditional(k)[:-1]))
            if keys is not None:
                self.misses += 1
                if len(self.thresholds) < _CACHE_CAP:
                    self.thresholds[keys[k]] = cuts
        v = bisect_right(cuts, u01)
        if v != self.digits[k]:
            self.set_digit(k, v)

    def metropolis(self, k: int, u_prop: float, u_acc: float) -> None:
        cur = self.digits[k]
        v = int(u_prop * (self.q - 1))
        if v >= cur:
            v += 1  # uniform over the q-1 other values
        e = 0.0
        u = self.u
        for j, p in self.site_cubes[k]:
            e += u[self.codes[j] + (v - cur) * p] - u[self.codes[j]]
        if e <= 0 or u_acc < math.exp(-self.beta * e):
            self.set_digit(k, v)


def site_conditional(ens: FiniteVolumeEnsemble, config: Configuration,
                     site: Site) -> list:
    """Heat-bath conditional at one site of a configuration (for checks)."""
    state = _ChainState(ens.model, ens.box, ens.exterior, ens.beta)
    for k, v in enumerate(config.spins):
        state.set_digit(k, v - 1)
    return state.conditional(ens.box.index_of(site))


def _recorded_states(spec: ChainSpec) -> Iterator[_ChainState]:
    """Run the chain of ``spec``, yielding its state after each recorded sweep.

    The chain starts from the constant exterior configuration.  Sweep t
    visits the sites in the order shuffled by stream (seed, order salt, t),
    and site k consumes element k of the sweep's uniform streams.
    """
    ens = spec.ensemble
    heat = spec.kernel == "heat-bath"
    state = _ChainState(ens.model, ens.box, ens.exterior, ens.beta, keyed=heat)
    if not heat and state.q < 2:
        raise InputError("metropolis needs q >= 2")
    n, sites = state.n, list(range(state.n))
    heat_bath, metropolis = state.heat_bath, state.metropolis
    rng = np.random.Generator(np.random.Philox(0))  # keyed by every _stream
    philox = {"bit_generator": "Philox", "buffer": [0] * 4, "buffer_pos": 4,
              "has_uint32": 0, "uinteger": 0,  # output buffer empty
              "state": {"counter": [0] * 4, "key": [spec.seed % 2 ** 64, 0]}}
    for t in range(spec.total_sweeps):
        order = sites.copy()
        _stream(rng, philox, _SALT_ORDER, t).shuffle(order)
        us = _stream(rng, philox, _SALT_HEAT, t).random(n).tolist()
        if heat:
            for k in order:
                heat_bath(k, us[k])
            lookups = n * (t + 1)
            if (state.keys is not None and lookups >= _CACHE_TRIAL
                    and 8 * state.misses > 7 * lookups):
                state.keys = state.key_steps = None
                state.thresholds.clear()
        else:
            props = _stream(rng, philox, _SALT_PROPOSE, t).random(n).tolist()
            for k in order:
                metropolis(k, props[k], us[k])
        kept = t - spec.burn_in + 1
        if kept >= 1 and kept % spec.thinning == 0:
            yield state


@dataclass
class ChainResult:
    spec: ChainSpec
    means: dict
    stderrs: dict
    batch_count: int
    series: dict | None = None


def _batch_stats(series: np.ndarray, batches: int):
    m = len(series)
    if m < 2:
        return float(series[0]), 0.0, 1
    b = max(2, min(batches, m))
    length = m // b
    trimmed = series[: b * length].reshape(b, length)
    means = trimmed.mean(axis=1)
    mean = float(series.mean())
    stderr = float(means.std(ddof=1) / math.sqrt(b))
    return mean, stderr, b


def run_chain(spec: ChainSpec, observables: Mapping[str, Callable],
              batches: int = 32, keep_series: bool = False) -> ChainResult:
    """Run one chain and estimate the observables with batch-means errors.

    Observables are callables of the flat spin array (values 1..q, row-major
    site order).  The chain starts from the constant exterior configuration
    and is bit-reproducible given the spec.
    """
    names = sorted(observables)
    series = {name: np.empty(spec.samples, dtype=np.float64) for name in names}
    for i, state in enumerate(_recorded_states(spec)):
        spins = state.spins()
        for name in names:
            series[name][i] = observables[name](spins)
    means, stderrs = {}, {}
    b_used = 0
    for name in names:
        mean, stderr, b_used = _batch_stats(series[name], batches)
        means[name] = mean
        stderrs[name] = stderr
    return ChainResult(spec=spec, means=means, stderrs=stderrs,
                       batch_count=b_used,
                       series=series if keep_series else None)


def site_indicator(box: Box, site: Site, spin: int) -> Callable:
    """Observable: 1.0 when the spin at ``site`` equals ``spin``."""
    k = box.index_of(site)

    def observe(spins: np.ndarray) -> float:
        return 1.0 if int(spins[k]) == spin else 0.0

    return observe


# ---------------------------------------------------------------------------
# Contour-size tails
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailRecord:
    n: int
    frequency: float
    stderr: float
    envelope: float | None


@dataclass(frozen=True)
class TailReport:
    records: tuple
    samples: int


def tail_envelope(model: ModelSpec, box: Box, beta: float, n: int,
                  census_counts: Mapping[int, int]) -> float | None:
    """Union bound on P(some contour of size >= n) from rooted counts.

    Sums count * exp(-beta * gap * m) over enumerated sizes m >= n, closes
    the tail beyond the enumerated range with the geometric bound
    (4*e*k)^m / 2, and multiplies by the box size (every contour contains a
    site of the box).  Returns None when the geometric tail diverges.
    """
    from .census import max_degree

    report = require_certified(model)
    k = max_degree(model.d, model.r)
    m_max = max(census_counts) if census_counts else 0
    total = 0.0
    for m, count in census_counts.items():
        if m >= n:
            total += count * math.exp(-beta * report.gap * m)
    x = 4 * math.e * k * math.exp(-beta * report.gap)
    if x >= 1:
        return None
    start = max(n, m_max + 1)
    total += 0.5 * x ** start / (1 - x)
    return min(1.0, box.size * total)


def estimate_contour_size_tail(spec: ChainSpec, n_max: int,
                               census_counts: Mapping[int, int] | None = None,
                               batches: int = 32) -> TailReport:
    """Empirical frequency of "some contour of size >= n" for n = 0..n_max.

    Frequencies come with batch-means standard errors; when rooted census
    counts are supplied, each n also carries its union-bound envelope.
    """
    ens = spec.ensemble
    beta = ens.beta
    max_sizes = np.empty(spec.samples, dtype=np.float64)
    for i, state in enumerate(_recorded_states(spec)):
        cs = extract_contours(state.configuration(), ens.model)
        max_sizes[i] = max((g.size for g in cs), default=0)
    records = []
    for n in range(n_max + 1):
        hits = (max_sizes >= n).astype(np.float64)
        mean, stderr, _ = _batch_stats(hits, batches)
        env = None
        if census_counts is not None and n >= 1:
            env = tail_envelope(ens.model, ens.box, beta, n, census_counts)
        records.append(TailRecord(n=n, frequency=mean, stderr=stderr, envelope=env))
    return TailReport(records=tuple(records), samples=spec.samples)
