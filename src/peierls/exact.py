"""Exact finite-volume Gibbs distributions by full enumeration.

Configurations with a fixed exterior spin are indexed 0 .. q^|box| - 1, the
digit of flat site k in base q being its spin minus one.  A sweep runs over
chunks of q^a indices, a being the largest integer with q^a <= CHUNK (and at
most the site count): a chunk fixes the high digits, and its low a digits,
with their share of every cube's pattern code, come from a low table built
once per box.  Cube energies are read from the model table.  Relative
energies are nonnegative with the all-exterior configuration at zero, so raw
Boltzmann weights never overflow and partition sums stay in linear
arithmetic (the maximal weight is one, which is exactly the max-shifted
log-domain form).

Chunks are processed independently, optionally across worker processes, and
merged in fixed chunk order, so results are bit-identical for any worker
count.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .contours import Configuration, Contour, _grid, _light_contours
from .errors import CapacityError, InputError, VerificationError
from .lattice import Box, Site
from .model import ModelSpec, digits_of, require_certified

DEFAULT_BUDGET = 1 << 26
MAX_BUDGET = 1 << 62  # sweep indices and their digits are int64
CHUNK = 1 << 14
_LOW_BLOCK = 1 << 10  # rows per _Grid.codes call while building the low table
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
        if self.beta < 0:
            raise InputError(f"beta must be >= 0, got {self.beta}")
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
    beta: float
    gap: float
    records: tuple
    config_count: int

    @property
    def violations(self) -> tuple:
        return tuple(rec for rec in self.records if rec.slack < -BOUND_TOL)


# ---------------------------------------------------------------------------
# Chunked enumeration
# ---------------------------------------------------------------------------

def _check_budget(count: int, budget: int | None):
    cap = DEFAULT_BUDGET if budget is None else budget
    if cap > MAX_BUDGET:
        raise InputError(f"budget {cap} is above the largest sweep, 2^62 configurations")
    if count > cap:
        raise CapacityError(
            f"enumeration over {count} configurations exceeds the budget {cap}",
            count=count)


def _check_exterior(model: ModelSpec, exterior: int):
    """The model's certificate, once the exterior spin is known to be in 1..s."""
    report = require_certified(model)
    if not 1 <= exterior <= model.s:
        raise InputError(f"exterior spin {exterior} outside 1..{model.s}")
    return report


def _low_digit_count(q: int, n: int) -> int:
    """a: the largest a <= n with q^a <= CHUNK."""
    return max(a for a in range(n + 1) if q ** a <= CHUNK)


def _chunk_ranges(q: int, n: int):
    """(start, stop) of every chunk of the q^n indices, lazily, in order."""
    step = q ** _low_digit_count(q, n)
    return ((start, start + step) for start in range(0, q ** n, step))


@functools.lru_cache(maxsize=1)
def _low_table(model: ModelSpec, box: Box) -> tuple:
    """(digits, codes) of every index below q^a: its digits on all sites (zero
    above the low a) and their cube codes with a zero exterior digit.  Only
    the last box's table is kept."""
    grid = _grid(model, box)
    rows = model.q ** _low_digit_count(model.q, box.size)
    small = np.min_scalar_type  # the table stays alive beside every chunk
    digits = digits_of(np.arange(rows), model.q, box.size).astype(small(model.q - 1))
    codes = np.empty((rows, len(grid.bx.cubes)), dtype=small(model.pattern_count - 1))
    for start in range(0, rows, _LOW_BLOCK):
        block = slice(start, start + _LOW_BLOCK)
        codes[block] = grid.codes(digits[block], 0)
    return digits, codes


def _chunk_energies(model: ModelSpec, box: Box, exterior: int,
                    start: int, stop: int):
    """Return (digits, cube codes, relative energies) of the indices
    start..stop-1, which lie in one chunk of ``_chunk_ranges``."""
    grid = _grid(model, box)
    low_digits, low_codes = _low_table(model, box)
    chunk, low = divmod(start, len(low_digits))
    if low + stop - start > len(low_digits):
        raise ValueError(f"indices {start}..{stop - 1} span two chunks")
    high = digits_of(chunk * len(low_digits), model.q, box.size)
    rows = slice(low, low + stop - start)
    digits = low_digits[rows] + high
    codes = low_codes[rows] + grid.codes(high, exterior - 1)
    u = grid.tables.u
    energies = u[codes].sum(axis=1) - len(grid.bx.cubes) * grid.tables.u_min
    return digits, codes, energies


def _pool_size(workers: int, tasks: int) -> int:
    """Processes worth starting: no more than the tasks or the CPUs."""
    return max(1, min(workers, tasks, os.cpu_count() or 1))


def _run_chunks(task, head: tuple, workers: int) -> list:
    """``task(head + (start, stop))`` for every chunk, in chunk order; head
    starts with the model and the box."""
    q, n = head[0].q, head[1].size
    argses = (head + chunk for chunk in _chunk_ranges(q, n))
    workers = _pool_size(workers, q ** (n - _low_digit_count(q, n)))
    if workers == 1:
        return [task(a) for a in argses]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, argses))


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
    model, box, exterior, beta, start, stop = args
    digits, _, energies = _chunk_energies(model, box, exterior, start, stop)
    w = np.exp(-beta * energies)
    q = model.q
    marg = np.empty((box.size, q), dtype=np.float64)
    for k in range(box.size):
        marg[k] = np.bincount(digits[:, k], weights=w, minlength=q)
    return float(w.sum()), marg


def enumerate_distribution(ens: FiniteVolumeEnsemble, budget: int | None = None,
                           workers: int = 1) -> DistributionSummary:
    """Exact partition sum and single-site marginals by full enumeration."""
    require_certified(ens.model)
    count = ens.config_count
    _check_budget(count, budget)
    parts = _run_chunks(_dist_task, (ens.model, ens.box, ens.exterior, ens.beta),
                        workers)
    z = math.fsum(p[0] for p in parts)
    marg = np.zeros((ens.box.size, ens.model.q), dtype=np.float64)
    for _, m in parts:
        marg += m
    marg /= z
    sites = ens.box.sites()
    marginals = {
        (site, v + 1): float(marg[k, v])
        for k, site in enumerate(sites) for v in range(ens.model.q)
    }
    return DistributionSummary(log_partition=math.log(z), marginals=marginals,
                               sample_space_size=count)


def _trend_task(args):
    model, box, exterior, betas, site_idx, start, stop = args
    digits, _, energies = _chunk_energies(model, box, exterior, start, stop)
    out = []
    for beta in betas:
        w = np.exp(-beta * energies)
        counts = np.bincount(digits[:, site_idx], weights=w, minlength=model.q)
        out.append((float(w.sum()), counts))
    return out


def _site_marginals(model: ModelSpec, box: Box, exterior: int, x: Site,
                    betas: Sequence[float], budget, workers) -> list:
    """Exact marginal distribution at one site, for each beta (one sweep)."""
    count = model.q ** box.size
    _check_budget(count, budget)
    site_idx = box.index_of(x)
    parts = _run_chunks(_trend_task, (model, box, exterior, tuple(betas), site_idx),
                        workers)
    out = []
    for bi in range(len(betas)):
        z = math.fsum(p[bi][0] for p in parts)
        counts = np.zeros(model.q, dtype=np.float64)
        for p in parts:
            counts += p[bi][1]
        out.append(counts / z)
    return out


def marginal_trend(model: ModelSpec, box: Box, x: Site, i: int, j: int,
                   betas: Sequence[float], budget: int | None = None,
                   workers: int = 1) -> list:
    """Exact marginals of spin j at site x under exterior i along a beta grid."""
    if j == i:
        raise InputError("trend is defined for a spin different from the exterior")
    if not 1 <= j <= model.q:
        raise InputError(f"spin {j} outside 1..{model.q}")
    _check_exterior(model, i)
    dists = _site_marginals(model, box, i, x, betas, budget, workers)
    return [float(dist[j - 1]) for dist in dists]


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
    require_certified(model)
    if model.s < 2:
        raise InputError("coexistence needs at least two ground states")
    under1 = _site_marginals(model, box, 1, x, betas, budget, workers)
    under2 = _site_marginals(model, box, 2, x, betas, budget, workers)
    out = []
    for beta, d1, d2 in zip(betas, under1, under2):
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
    model, box, exterior, betas, start, stop = args
    grid = _grid(model, box)
    digits, codes, energies = _chunk_energies(model, box, exterior, start, stop)
    weights = [np.exp(-beta * energies) for beta in betas]
    z_parts = tuple(float(w.sum()) for w in weights)
    stats = {}
    ext_digit = exterior - 1
    digit_rows = digits.tolist()
    code_rows = codes.tolist()
    for row_i in range(len(digit_rows)):
        lights = _light_contours(digit_rows[row_i], ext_digit, code_rows[row_i], grid)
        for serial, size in lights:
            entry = stats.get(serial)
            if entry is None:
                entry = [size] + [0.0] * len(betas)
                stats[serial] = entry
            for bi in range(len(betas)):
                entry[bi + 1] += float(weights[bi][row_i])
    return z_parts, stats


def contour_statistics(model: ModelSpec, box: Box, exterior: int,
                       betas: Sequence[float], budget: int | None = None,
                       workers: int = 1) -> list:
    """Exact probability of every realizable contour at each beta.

    One sweep serves all betas (contour decompositions are beta-free).
    Returns one ContourStatistics per beta with records sorted by slack
    against exp(-beta * gap * size), tightest first.
    """
    report = _check_exterior(model, exterior)
    count = model.q ** box.size
    _check_budget(count, budget)
    parts = _run_chunks(_contour_task, (model, box, exterior, tuple(betas)), workers)
    zs = [math.fsum(p[0][bi] for p in parts) for bi in range(len(betas))]
    merged = {}
    for _, stats in parts:
        for serial, entry in stats.items():
            acc = merged.get(serial)
            if acc is None:
                merged[serial] = list(entry)
            else:
                for bi in range(len(betas)):
                    acc[bi + 1] += entry[bi + 1]
    out = []
    for bi, beta in enumerate(betas):
        records = []
        for serial, entry in merged.items():
            size = entry[0]
            p = entry[bi + 1] / zs[bi]
            records.append(ContourRecord(
                contour=serial, size=size, probability=p,
                bound=math.exp(-beta * report.gap * size)))
        records.sort(key=lambda rec: (rec.slack, rec.contour))
        out.append(ContourStatistics(beta=beta, gap=report.gap,
                                     records=tuple(records), config_count=count))
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
    for rec in stats.records:
        if rec.contour == target:
            return rec.probability
    return 0.0


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
    require_certified(model)
    count = model.q ** box.size
    _check_budget(count, min(budget, 1 << 22) if budget else 1 << 22)
    grid = _grid(model, box)
    energies = np.empty(count, dtype=np.float64)
    all_contours = []
    ext_digit = exterior - 1
    for start, stop in _chunk_ranges(model.q, box.size):
        digits, codes, e = _chunk_energies(model, box, exterior, start, stop)
        energies[start:stop] = e
        digit_rows = digits.tolist()
        code_rows = codes.tolist()
        for row_i in range(len(digit_rows)):
            all_contours.append(
                _light_contours(digit_rows[row_i], ext_digit, code_rows[row_i], grid))
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
    require_certified(model)
    if not (box.contains(subbox.lower) and box.contains(subbox.upper)):
        raise InputError(f"subbox {subbox.lower}..{subbox.upper} not inside the box")
    count = ens.config_count
    _check_budget(count, budget)
    q, n = model.q, box.size
    grid = _grid(model, box)
    in_sub = np.array([subbox.contains(site) for site in box.sites()])
    n_sub = int(in_sub.sum())
    sub_powers = q ** np.arange(n_sub, dtype=np.int64)
    ann_powers = q ** np.arange(n - n_sub, dtype=np.int64)

    # exact joint accumulation
    sub_marginal = np.zeros(q ** n_sub, dtype=np.float64)
    ann_weight = np.zeros(q ** (n - n_sub), dtype=np.float64)
    for start, stop in _chunk_ranges(q, n):
        digits, _, energies = _chunk_energies(model, box, ens.exterior, start, stop)
        w = np.exp(-ens.beta * energies)
        sub_marginal += np.bincount(digits[:, in_sub] @ sub_powers, weights=w,
                                    minlength=len(sub_marginal))
        ann_weight += np.bincount(digits[:, ~in_sub] @ ann_powers, weights=w,
                                  minlength=len(ann_weight))
    z = sub_marginal.sum()
    sub_marginal /= z
    ann_weight /= z

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
