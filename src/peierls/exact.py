"""Exact finite-volume Gibbs distributions by full enumeration.

Configurations with a fixed exterior spin are indexed 0 .. q^|box| - 1, the
digit of flat site k in base q being its spin minus one.  A sweep runs over
chunks of q^a indices, a being the largest integer with q^a <= CHUNK (and at
most the site count): a chunk fixes the digits at sites a and above.  Its
energies split by the cubes' flat indices: low-only cubes (reading no site
at a or above) sum to one q^a vector per exterior, built once per box with
the low table; high-only cubes (none below a) to one scalar per chunk; only
the straddling cubes are read per configuration.  Cube energies are taken
less their minimum, so relative energies are nonnegative with the
all-exterior configuration at zero: raw Boltzmann weights never overflow and
partition sums stay in linear arithmetic (the maximal weight is one, which
is exactly the max-shifted log-domain form).

Chunks are processed independently, optionally across worker processes, and
merged in fixed chunk order, so results are bit-identical for any worker
count.
"""

from __future__ import annotations

import functools
import math
import os
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .contours import Configuration, Contour, _grid, _light_contours, _serial
from .errors import CapacityError, InputError, VerificationError
from .lattice import Box, Site
from .model import ModelSpec, digits_of, require_certified

DEFAULT_BUDGET = 1 << 26
MAX_BUDGET = 1 << 62  # sweep indices and their digits are int64
CHUNK = 1 << 14
BOUND_TOL = 1e-12


@dataclass(frozen=True)
class FiniteVolumeEnsemble:
    """The exact Boltzmann distribution over spins on a box with a constant
    exterior spin: weight exp(-beta * relative energy), normalized."""

    box: Box
    exterior: int
    beta: float
    model: ModelSpec

    def __post_init__(self):
        _check_betas([self.beta])
        if not 1 <= self.exterior <= self.model.s:
            raise InputError(
                f"exterior spin {self.exterior} outside the symmetric sector "
                f"1..{self.model.s}")
        if self.box.dimension != self.model.d:
            raise InputError("box dimension does not match the model")

    @property
    def config_count(self) -> int:
        return self.model.q ** self.box.size


@dataclass(frozen=True)
class DistributionSummary:
    log_partition: float
    marginals: dict
    sample_space_size: int


@dataclass(frozen=True)
class ContourRecord:
    """One realizable contour with its exact probability and its bound."""

    contour: tuple  # canonical (site, mark) pairs
    size: int
    probability: float
    bound: float

    @property
    def slack(self) -> float:
        return self.bound - self.probability


@dataclass(frozen=True)
class ContourStatistics:
    """Every realizable contour at one beta as columns, tightest first: the
    (site, mark) serials, sizes, probabilities and bounds.  All betas of one
    ``contour_statistics`` call hold the same contours, each serial built
    once.  ``records`` and ``violations`` build ContourRecords on demand."""

    beta: float
    gap: float
    config_count: int
    contours: tuple
    sizes: tuple
    probabilities: tuple
    bounds: tuple

    @functools.cached_property
    def records(self) -> tuple:
        return tuple(map(ContourRecord, self.contours, self.sizes,
                         self.probabilities, self.bounds))

    @functools.cached_property
    def violations(self) -> tuple:
        return tuple(ContourRecord(c, n, p, b) for c, n, p, b in zip(
            self.contours, self.sizes, self.probabilities, self.bounds) if b - p < -BOUND_TOL)


# ---------------------------------------------------------------------------
# Chunked enumeration
# ---------------------------------------------------------------------------

def _check_betas(betas: Sequence[float]):
    for beta in betas:
        if not (math.isfinite(beta) and beta >= 0):
            raise InputError(f"beta must be finite and >= 0, got {beta}")


def _check_sweep(model: ModelSpec, box: Box, exterior: int,
                 betas: Sequence[float], budget: int | None):
    """Refuse a sweep before it starts; checks the model's certificate, the
    exterior spin, the budget and the betas, in that order.  Returns the
    certificate."""
    report = require_certified(model)
    if not 1 <= exterior <= model.s:
        raise InputError(f"exterior spin {exterior} outside 1..{model.s}")
    cap = DEFAULT_BUDGET if budget is None else budget
    if not 0 <= cap <= MAX_BUDGET:
        raise InputError(f"budget {cap} outside 0..2^62 configurations")
    count = model.q ** box.size
    if count > cap:
        raise CapacityError(
            f"enumeration over {count} configurations exceeds the budget {cap}",
            count=count)
    _check_betas(betas)
    return report


def _low_digit_count(q: int, n: int) -> int:
    """a: the largest a <= n with q^a <= CHUNK."""
    return max(a for a in range(n + 1) if q ** a <= CHUNK)


def _chunk_ranges(q: int, n: int):
    """(start, stop) of every chunk of the q^n indices, lazily, in order."""
    step = q ** _low_digit_count(q, n)
    return ((start, start + step) for start in range(0, q ** n, step))


# The low table of a box: ``u`` is the cube energies less their minimum;
# ``digits`` and ``codes`` hold every index below q^a, its digits on all sites
# (zero above the low a) and its cube codes with a zero exterior digit, in the
# smallest dtypes that fit; ``low_only``, ``straddle`` and ``high_only`` list
# the cubes of each class; ``straddle_codes`` holds the straddling cubes' code
# columns, one row per cube; ``low_energy[e - 1]`` sums the low-only cubes
# under exterior e.
_LowTable = namedtuple("_LowTable", "u digits codes low_only straddle high_only "
                                    "straddle_codes low_energy")


@functools.lru_cache(maxsize=1)
def _low_table(model: ModelSpec, box: Box) -> _LowTable:
    """The low table of a box; only the last box's table is kept."""
    grid = _grid(model, box)
    q, n, a = model.q, box.size, _low_digit_count(model.q, box.size)
    small = np.min_scalar_type  # the table stays alive beside every chunk
    digits = np.zeros((1, n), dtype=small(q - 1))
    codes = np.zeros((1, len(grid.bx.cubes)), dtype=small(model.pattern_count - 1))
    # codes are linear in the digits: index v * q^k + i adds v times site k's share
    shares = grid.codes(np.eye(a, n, dtype=np.int64), 0).astype(codes.dtype)
    for k in range(a):
        digits = np.concatenate([digits] * q)
        digits[:, k] = np.arange(q).repeat(len(digits) // q)
        codes = np.concatenate([codes + v * shares[k] for v in range(q)])
    lowest, highest = (np.array([f(k) for k in grid.bx.cube_site_idx]) for f in (min, max))
    low_only = np.flatnonzero(highest < a)
    straddle = np.flatnonzero((lowest < a) & (highest >= a))
    u = grid.tables.u - grid.tables.u_min
    # a low-only code is its low table entry plus the exterior's share
    low_energy = np.array([
        np.take(u, codes[:, low_only] + grid.codes(np.zeros(n), ext_digit)[low_only]
                .astype(codes.dtype)).sum(axis=1)
        for ext_digit in range(model.s)])
    return _LowTable(u, digits, codes, low_only, straddle, np.flatnonzero(lowest >= a),
                     codes[:, straddle].T.copy(), low_energy)


def _chunk_energies(model: ModelSpec, box: Box, exterior: int, start: int):
    """Return (relative energies, high digits, high codes) of the chunk of
    ``_chunk_ranges`` that starts at ``start``: the low-only sum, plus the
    high-only sum, plus each straddling cube's energy.  A row's digits and
    cube codes are its low table row plus the high digits and codes."""
    grid = _grid(model, box)
    low = _low_table(model, box)
    high = digits_of(start, model.q, box.size)
    high_codes = grid.codes(high, exterior - 1).astype(low.codes.dtype)
    energies = low.low_energy[exterior - 1] + np.take(
        low.u, high_codes[low.high_only]).sum()
    for column, code in zip(low.straddle_codes, high_codes[low.straddle]):
        energies += np.take(low.u, column + code)
    return energies, high, high_codes


def _chunk_rows(model: ModelSpec, box: Box, exterior: int, start: int):
    """(digits, cube codes, relative energies) of one chunk, in the low table's
    dtypes: a digit is below q and a code below pattern_count."""
    energies, high, high_codes = _chunk_energies(model, box, exterior, start)
    low = _low_table(model, box)
    return low.digits + high.astype(low.digits.dtype), low.codes + high_codes, energies


def _pool_size(workers: int, tasks: int) -> int:
    """Processes worth starting: no more than the tasks or the CPUs."""
    return max(1, min(workers, tasks, os.cpu_count() or 1))


def _run_chunks(task, head: tuple, workers: int):
    """Yield ``task(head + (start, stop))`` for every chunk, in chunk order;
    head starts with the model and the box."""
    if workers < 1:
        raise InputError(f"workers must be at least 1, got {workers}")
    q, n = head[0].q, head[1].size
    argses = (head + chunk for chunk in _chunk_ranges(q, n))
    workers = _pool_size(workers, q ** (n - _low_digit_count(q, n)))
    if workers == 1:
        yield from map(task, argses)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(task, argses)


def config_from_index(box: Box, exterior: int, q: int, index: int) -> Configuration:
    """The configuration at a sweep index (site k's digit is base-q digit k)."""
    return Configuration(box, tuple((digits_of(index, q, box.size) + 1).tolist()),
                         exterior)


def index_of_config(config: Configuration, q: int) -> int:
    idx = 0
    for v in reversed(config.spins):
        idx = idx * q + (v - 1)
    return idx


# ---------------------------------------------------------------------------
# Distribution and marginals
# ---------------------------------------------------------------------------

def _dist_task(args):
    """Over one chunk, at each beta: the weight sum and, for each group of
    flat site indices, the weights binned by the group's base-q code."""
    model, box, exterior, betas, groups, start, _ = args
    energies, high, _ = _chunk_energies(model, box, exterior, start)
    low_digits = _low_table(model, box).digits
    q = model.q
    powers = [q ** np.arange(len(group)) for group in groups]
    codes = [low_digits[:, list(g)] @ p + high[list(g)] @ p for g, p in zip(groups, powers)]
    out = []
    for beta in betas:
        w = np.exp(-beta * energies)
        out.append((float(w.sum()), [
            np.bincount(code, weights=w, minlength=q ** len(group))
            for code, group in zip(codes, groups)]))
    return out


# perfbench/spans.py still probes this name, and its tests require every
# probe to resolve; the marginal paths share the one task above.
_trend_task = _dist_task


def _marginals(model: ModelSpec, box: Box, exterior: int, betas: Sequence[float],
               groups: Sequence[tuple], workers: int) -> list:
    """(Z, [distribution of each group's base-q code]) at each beta, from one
    sweep: Z is the fsum of the chunk sums, histograms add in chunk order."""
    z_parts = [[] for _ in betas]
    hists = [[0.0] * len(groups) for _ in betas]
    for part in _run_chunks(_dist_task, (model, box, exterior, tuple(betas),
                                         tuple(groups)), workers):
        for bi, (z, chunk_hists) in enumerate(part):
            z_parts[bi].append(z)
            hists[bi] = [acc + h for acc, h in zip(hists[bi], chunk_hists)]
    out = []
    for parts, sums in zip(z_parts, hists):
        z = math.fsum(parts)
        out.append((z, [h / z for h in sums]))
    return out


def enumerate_distribution(ens: FiniteVolumeEnsemble, budget: int | None = None,
                           workers: int = 1) -> DistributionSummary:
    """Exact partition sum and single-site marginals by full enumeration."""
    model, box = ens.model, ens.box
    _check_sweep(model, box, ens.exterior, [ens.beta], budget)
    [(z, dists)] = _marginals(model, box, ens.exterior, [ens.beta],
                              [(k,) for k in range(box.size)], workers)
    marginals = {(site, v + 1): float(dist[v])
                 for site, dist in zip(box.sites(), dists) for v in range(model.q)}
    return DistributionSummary(log_partition=math.log(z), marginals=marginals,
                               sample_space_size=ens.config_count)


def marginal_trend(model: ModelSpec, box: Box, x: Site, i: int, j: int,
                   betas: Sequence[float], budget: int | None = None,
                   workers: int = 1) -> list:
    """Exact marginals of spin j at site x under exterior i along a beta grid."""
    if j == i:
        raise InputError("trend is defined for a spin different from the exterior")
    if not 1 <= j <= model.q:
        raise InputError(f"spin {j} outside 1..{model.q}")
    _check_sweep(model, box, i, betas, budget)
    group = (box.index_of(x),)
    return [float(dists[0][j - 1])
            for _, dists in _marginals(model, box, i, betas, [group], workers)]


@dataclass(frozen=True)
class GapRecord:
    """Marginal distributions at one site under exterior spins 1 and 2.

    ``gap`` is P_1(x = 1) - P_2(x = 1); the permutation residual is the
    error of the swap identity P_2(x = 1) = P_1(x = 2), which is exact for
    symmetric models.
    """

    beta: float
    gap: float
    permutation_residual: float
    first_marginals: tuple   # spin distribution at x under exterior 1
    second_marginals: tuple  # spin distribution at x under exterior 2


def coexistence_gap(model: ModelSpec, box: Box, x: Site,
                    betas: Sequence[float], budget: int | None = None,
                    workers: int = 1) -> list:
    """Gap between the spin-1 marginals under exterior 1 and exterior 2.

    For a symmetric certified model the two ensembles are related by the
    swap of spins 1 and 2, so P_2(x=1) equals P_1(x=2); the residual of that
    identity is reported alongside the gap.
    """
    _check_sweep(model, box, 1, betas, budget)
    if model.s < 2:
        raise InputError("coexistence needs at least two ground states")
    group = (box.index_of(x),)
    under1, under2 = (_marginals(model, box, exterior, betas, [group], workers)
                      for exterior in (1, 2))
    out = []
    for beta, (_, (d1,)), (_, (d2,)) in zip(betas, under1, under2):
        out.append(GapRecord(
            beta=beta,
            gap=float(d1[0] - d2[0]),
            permutation_residual=abs(float(d2[0]) - float(d1[1])),
            first_marginals=tuple(float(v) for v in d1),
            second_marginals=tuple(float(v) for v in d2)))
    return out


# ---------------------------------------------------------------------------
# Contour statistics
# ---------------------------------------------------------------------------

def _contour_task(args):
    """Over one chunk: the weight sum at each beta, and the chunk's contours
    as a table: their ``_light_contours`` keys in first-seen order, their
    sizes, and the weight sums of the configurations holding each, one row
    per contour and one column per beta."""
    model, box, exterior, betas, start, _ = args
    grid = _grid(model, box)
    digits, codes, energies = _chunk_rows(model, box, exterior, start)
    weights = [np.exp(-beta * energies) for beta in betas]
    ids, sizes, contour, rows = {}, [], [], []  # key -> id; sizes; each record's id, row
    improper = grid.improper_cubes(codes)
    for row, (digit_row, cubes) in enumerate(zip(digits.tolist(), improper)):
        for key, owned in _light_contours(digit_row, exterior - 1, cubes, grid):
            c = ids.setdefault(key, len(ids))
            if c == len(sizes):
                sizes.append(len(owned))
            contour.append(c)
            rows.append(row)
    sums = np.stack([np.bincount(contour, weights=w[rows], minlength=len(ids))
                     for w in weights], axis=1)
    return tuple(float(w.sum()) for w in weights), list(ids), sizes, sums


def contour_statistics(model: ModelSpec, box: Box, exterior: int,
                       betas: Sequence[float], budget: int | None = None,
                       workers: int = 1) -> list:
    """Exact probability of every realizable contour at each beta.

    One sweep serves all betas (contour decompositions are beta-free).
    Returns one ContourStatistics per beta with its rows sorted by slack
    against exp(-beta * gap * size), tightest first, ties by contour.
    Contours travel as ``_light_contours`` keys, which sort as their serials
    do; a serial is built once per distinct contour.
    """
    report = _check_sweep(model, box, exterior, betas, budget)
    if len(betas) == 0:
        return []
    z_parts, sizes = [], []
    row_of = {}  # key -> its row of sizes and total, in first-seen order
    total = np.zeros((0, len(betas)))
    for chunk_zs, chunk_keys, chunk_sizes, sums in _run_chunks(
            _contour_task, (model, box, exterior, tuple(betas)), workers):
        z_parts.append(chunk_zs)
        seen = len(sizes)
        idx = [row_of.setdefault(key, len(row_of)) for key in chunk_keys]
        sizes.extend(size for i, size in zip(idx, chunk_sizes) if i >= seen)
        if len(sizes) > len(total):  # grow by doubling
            total = np.concatenate([total, np.zeros((max(len(sizes), 2 * len(total))
                                                     - len(total), len(betas)))])
        total[idx] += sums  # rows are distinct: one addition per row, in chunk order
    keys = list(row_of)
    rank = np.empty(len(keys), dtype=np.int64)
    rank[sorted(range(len(keys)), key=keys.__getitem__)] = np.arange(len(keys))
    grid = _grid(model, box)
    serials = [_serial(key, grid) for key in keys]
    distinct, of_size = np.unique(np.array(sizes, dtype=np.int64), return_inverse=True)
    out = []
    for bi, beta in enumerate(betas):
        z = math.fsum(zs[bi] for zs in z_parts)
        p = total[:len(sizes), bi] / z
        bound = np.array([math.exp(-beta * report.gap * size)
                          for size in distinct.tolist()])[of_size]
        order = np.lexsort((rank, bound - p))
        out.append(ContourStatistics(
            beta=beta, gap=report.gap, config_count=model.q ** box.size,
            contours=tuple(map(serials.__getitem__, order.tolist())),
            sizes=tuple(distinct[of_size[order]].tolist()),
            probabilities=tuple(p[order].tolist()),
            bounds=tuple(bound[order].tolist())))
    return out


def verify_peierls_bound(ens: FiniteVolumeEnsemble, budget: int | None = None,
                         workers: int = 1) -> ContourStatistics:
    """Check p(contour) <= exp(-beta * gap * size) for every realizable contour.

    Raises VerificationError (with the witness record and the full statistics
    attached) on any violation beyond 1e-12.
    """
    stats = contour_statistics(ens.model, ens.box, ens.exterior, [ens.beta],
                               budget=budget, workers=workers)[0]
    bad = stats.violations
    if bad:
        worst = min(bad, key=lambda rec: rec.slack)
        raise VerificationError(
            f"contour probability {worst.probability} exceeds the bound "
            f"{worst.bound} (size {worst.size}, beta {ens.beta})",
            witness=worst, details=stats)
    return stats


def contour_probability(ens: FiniteVolumeEnsemble, gamma: Contour,
                        budget: int | None = None, workers: int = 1) -> float:
    """Exact probability that ``gamma`` occurs among a configuration's contours."""
    require_certified(ens.model)
    if not all(ens.box.contains(site) for site in gamma.interior):
        return 0.0
    target = gamma.serial()
    stats = contour_statistics(ens.model, ens.box, ens.exterior, [ens.beta],
                               budget=budget, workers=workers)[0]
    return dict(zip(stats.contours, stats.probabilities)).get(target, 0.0)


# ---------------------------------------------------------------------------
# Full sweep table (in-memory; small boxes)
# ---------------------------------------------------------------------------

@dataclass
class SweepTable:
    """Per-configuration energies and contour summaries of a whole ensemble."""

    box: Box
    exterior: int
    model: ModelSpec
    energies: np.ndarray
    contours: list  # per index: tuple of (serial, size)


def full_sweep(model: ModelSpec, box: Box, exterior: int,
               budget: int | None = None) -> SweepTable:
    """Materialize energies and contour lists for every configuration."""
    _check_sweep(model, box, exterior, (),
                 1 << 22 if budget is None else min(budget, 1 << 22))
    count = model.q ** box.size
    grid = _grid(model, box)
    energies = np.empty(count, dtype=np.float64)
    all_contours = []
    ext_digit = exterior - 1
    for start, stop in _chunk_ranges(model.q, box.size):
        digits, codes, e = _chunk_rows(model, box, exterior, start)
        energies[start:stop] = e
        for digit_row, cubes in zip(digits.tolist(), grid.improper_cubes(codes)):
            found = _light_contours(digit_row, ext_digit, cubes, grid)
            all_contours.append(tuple((_serial(key, grid), len(owned))
                                      for key, owned in found))
    return SweepTable(box=box, exterior=exterior, model=model,
                      energies=energies, contours=all_contours)


# ---------------------------------------------------------------------------
# Finite-volume consistency of the conditional distributions
# ---------------------------------------------------------------------------

def dlr_consistency(ens: FiniteVolumeEnsemble, subbox: Box,
                    budget: int | None = None) -> float:
    """Max discrepancy between the subbox marginal and the conditional mixture.

    The exact marginal of the ensemble on the subbox is compared with the
    mixture, over configurations of the surrounding annulus, of the
    conditional Boltzmann distributions on the subbox (computed from scratch
    from cube energies).  The identity is algebraic, so the discrepancy is
    pure rounding and should sit below 1e-10.
    """
    box, model = ens.box, ens.model
    _check_sweep(model, box, ens.exterior, [ens.beta], budget)
    if not (box.contains(subbox.lower) and box.contains(subbox.upper)):
        raise InputError(f"subbox {subbox.lower}..{subbox.upper} not inside the box")
    q, n = model.q, box.size
    grid = _grid(model, box)
    in_sub = np.array([subbox.contains(site) for site in box.sites()])
    n_sub = int(in_sub.sum())
    groups = [tuple(np.flatnonzero(side).tolist()) for side in (in_sub, ~in_sub)]
    [(_, (sub_marginal, ann_weight))] = _marginals(model, box, ens.exterior,
                                                   [ens.beta], groups, 1)

    # conditional distributions recomputed from cube energies, one annulus
    # row at a time over every subbox pattern
    touching = [j for j, sid in enumerate(grid.bx.cube_site_idx)
                if in_sub[list(sid)].any()]
    rows = np.zeros((q ** n_sub, n), dtype=np.int64)
    rows[:, in_sub] = digits_of(np.arange(q ** n_sub), q, n_sub)
    u, u_min = grid.tables.u, grid.tables.u_min
    mixture = np.zeros(q ** n_sub, dtype=np.float64)
    for ann_code, w_ann in enumerate(ann_weight):
        rows[:, ~in_sub] = digits_of(ann_code, q, n - n_sub)
        codes = grid.codes(rows, ens.exterior - 1)[:, touching]
        cond = np.exp(-ens.beta * (u[codes] - u_min).sum(axis=1))
        mixture += w_ann * (cond / cond.sum())

    return float(np.max(np.abs(sub_marginal - mixture)))
