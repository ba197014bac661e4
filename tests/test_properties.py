"""Property tests over random symmetric models.

Models are drawn with d = 2, r in {1, 2} and q <= 3: a few interaction terms
on random shapes inside one cube, each with a random table averaged over the
permutations of the sector spins 1..s, so every drawn model is symmetric.
Exact sweeps also need certified ground states, so the marginal sweep test
adds a tenth of such a model to the Potts or excited Potts terms, and so
do the test of the contour statistics against the public contour extractor
and the test of the Monte Carlo heat-bath keys; the keys are also tested
on the d = 3 Potts model.  The marginal sweep test also draws such models
with the random terms rounded to quarters, whose energies lie on a level
grid, so that it runs the sweep's level path as well as its float path.
The last three tests bound the memory that building the pattern tables takes
and that a box grid keeps, on one large built-in model, and the memory one
warm chunk of the marginal sweep takes.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from peierls import (Box, CubePotential, FiniteVolumeEnsemble, InteractionTerm,
                     ModelSpec, check_symmetry, coexistence_gap, containing_cube_count,
                     contours, dlr_consistency, enumerate_distribution,
                     excited_potts_model, ising_model, marginal_trend, potts_model,
                     require_certified)
from peierls import exact
from peierls.contours import _grid
from peierls.exact import (_chunk_ranges, _chunk_rows, _dist_task, _level_grid,
                           _low_digit_count, _low_table, contour_statistics)
from peierls.lattice import ball_offsets, cubes_meeting_box
from peierls.mcmc import _ChainState
from peierls.model import (_tables, cube_sites, digits_of, permute_spins,
                           verify_ground_states)

from oracle import config_at, sweep_energies


def symmetric_model(q: int, r: int, s: int, seed: int) -> ModelSpec:
    rng = np.random.default_rng(seed)
    cube = list(itertools.product(range(r + 1), repeat=2))
    perms = list(itertools.permutations(range(1, s + 1)))
    terms = []
    for _ in range(int(rng.integers(1, 4))):
        size = int(rng.integers(1, min(3, len(cube)) + 1))
        shape = [cube[i] for i in rng.choice(len(cube), size, replace=False)]
        patterns = list(itertools.product(range(1, q + 1), repeat=size))
        raw = dict(zip(patterns, rng.uniform(-1.0, 1.0, len(patterns))))
        table = {pat: math.fsum(raw[permute_spins(g, pat, s)] for g in perms)
                 / len(perms) for pat in patterns}
        terms.append(InteractionTerm.from_table(shape, table))
    return ModelSpec(d=2, r=r, q=q, s=s, terms=tuple(terms))


def oracle_energy(model: ModelSpec, box: Box, exterior: int, index: int) -> tuple:
    """Relative energy of one sweep index, read cube by cube, with the scale
    of its terms."""
    config = config_at(box, exterior, model.q, index)
    potential = CubePotential(model)
    u_min = _tables(model).u_min
    values = [potential.value([config.spin_at(site) for site in cube.sites()])
              for cube in cubes_meeting_box(box, model.r)]
    scale = math.fsum(abs(v) for v in values) + len(values) * abs(u_min)
    return math.fsum(v - u_min for v in values), scale


# Box shapes per q, each at most 2^16 configurations; the q = 2 boxes of 15
# and 16 sites and the q = 3 box of 9 sites span several chunks.
SHAPES = {1: [(1, 1), (2, 3), (4, 4)],
          2: [(1, 1), (1, 3), (2, 2), (2, 3), (3, 5), (4, 4)],
          3: [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]}


@st.composite
def cases(draw):
    q = draw(st.integers(1, 3))
    r = draw(st.integers(1, 2))
    s = draw(st.integers(1, q))
    shape = draw(st.sampled_from(SHAPES[q]))
    return q, r, s, shape, draw(st.integers(0, 2 ** 32 - 1))


# Pinned chunk-kernel cases (q, r, s, shape, seed) with their picks.  In the
# last two a straddling cube and a low-only cube read the exterior, and the
# exterior is 2, whose digit adds a nonzero share to their codes.
PINNED = [
    ((2, 1, 2, (3, 5), 0), [0.0, 0.5, 0.9999]),
    ((2, 2, 1, (4, 4), 1), [0.3, 0.7, 1.0]),
    ((3, 1, 3, (3, 3), 2), [0.0, 0.4, 0.7, 1.0]),
    ((3, 2, 2, (3, 3), 3), [0.2, 0.6, 0.99]),
    ((2, 2, 2, (4, 4), 1), [0.0, 0.3, 0.6, 0.9]),
    ((3, 1, 2, (3, 3), 1), [0.0, 0.35, 0.7, 1.0]),
]


def pinned_examples(test):
    for case, picks in PINNED:
        test = example(case=case, picks=picks)(test)
    return test


# deadline=None: an example's first call builds the pattern tables of a new
# model and the low table of a new box, which takes longer than its later ones.
@settings(max_examples=30, deadline=None, database=None)
@given(case=cases(), picks=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
@pinned_examples
def test_chunk_energies_match_a_cube_by_cube_oracle(case, picks):
    q, r, s, shape, seed = case
    model = symmetric_model(q, r, s, seed)
    assert check_symmetry(model)
    box = Box.from_shape(shape)
    count = q ** box.size
    exterior = 1 + seed % s

    chunks = list(_chunk_ranges(q, box.size))
    assert chunks[0][0] == 0 and chunks[-1][1] == count
    assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
    parts = [_chunk_rows(model, box, exterior, a) for a, _ in chunks]
    digits = np.concatenate([p[0] for p in parts])
    energies = np.concatenate([p[2] for p in parts])
    # every index appears once, in order, with its own digits
    assert np.array_equal(digits @ q ** np.arange(box.size), np.arange(count))

    for pick in picks:
        index = min(int(pick * count), count - 1)
        want, scale = oracle_energy(model, box, exterior, index)
        assert abs(energies[index] - want) <= 1e-12 * max(scale, 1.0)


@pytest.mark.parametrize("case", [case for case, _ in PINNED])
def test_cube_classes_partition_the_cubes(case):
    q, r, s, shape, seed = case
    model = symmetric_model(q, r, s, seed)
    box = Box.from_shape(shape)
    low = _low_table(model, box)
    a, n = _low_digit_count(q, box.size), box.size
    # a cube's row of flat indices, n standing for the exterior
    rows = _grid(model, box).bx.cube_index.tolist()
    reads_low = {j for j, row in enumerate(rows) if any(k < a for k in row)}
    reads_high = {j for j, row in enumerate(rows) if any(a <= k < n for k in row)}
    assert sorted(low.low_only) == sorted(set(range(len(rows))) - reads_high)
    assert sorted(low.straddle) == sorted(reads_low & reads_high)
    assert sorted(low.high_only) == sorted(set(range(len(rows))) - reads_low)
    assert sorted(np.concatenate([low.low_only, low.straddle, low.high_only])) == \
        list(range(len(rows)))
    if case in dict(PINNED[-2:]):
        reads_exterior = {j for j, row in enumerate(rows) if n in row}
        assert 1 + seed % s == 2
        assert reads_exterior & set(low.straddle) and reads_exterior & set(low.low_only)


def oracle_cube_energy(model: ModelSpec, code: int) -> tuple:
    """Energy of one cube pattern: every placement of every term inside the
    cube adds its value over the number of cubes containing it.  Returns the
    energy and the sum of the magnitudes added."""
    sites = cube_sites(model.d, model.r)
    spin = dict(zip(sites, (digits_of(code, model.q, len(sites)) + 1).tolist()))
    parts = []
    for term in model.terms:
        table = dict(term.entries)
        weight = containing_cube_count(term.offsets, model.r)
        for shift in sites:
            placed = [tuple(a + b for a, b in zip(shift, o)) for o in term.offsets]
            if all(site in spin for site in placed):
                parts.append(table.get(tuple(spin[x] for x in placed), 0.0) / weight)
    return math.fsum(parts), math.fsum(abs(v) for v in parts)


def perturb_constant_pattern(model: ModelSpec, eps: float) -> ModelSpec:
    """The model with eps added to its first term's all-ones pattern: the
    constant-1 cube then differs from the constant-2 cube, so for s >= 2 the
    perturbed model is not symmetric."""
    first = model.terms[0]
    table = dict(first.entries)
    ones = (1,) * len(first.offsets)
    table[ones] = table.get(ones, 0.0) + eps
    return ModelSpec(d=model.d, r=model.r, q=model.q, s=model.s,
                     terms=(InteractionTerm.from_table(first.offsets, table),)
                     + model.terms[1:])


@settings(max_examples=30, deadline=None, database=None)
@given(case=cases())
@example(case=(3, 2, 3, (1, 1), 4))
@example(case=(2, 2, 2, (1, 1), 5))
def test_pattern_tables_match_a_placement_oracle(case):
    q, r, s, _, seed = case
    model = symmetric_model(q, r, s, seed)
    u = _tables(model).u
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, model.pattern_count, size=min(200, model.pattern_count))
    for code in [0, model.pattern_count - 1] + codes.tolist():
        want, scale = oracle_cube_energy(model, code)
        assert abs(u[code] - want) <= 1e-12 * max(scale, 1.0)
    assert check_symmetry(model)
    if s >= 2:
        assert not check_symmetry(perturb_constant_pattern(model, 1e-6))


def certified_symmetric_model(q: int, r: int, s: int, seed: int,
                              quarter: bool = False) -> ModelSpec:
    """Potts terms (s = q) or excited Potts terms (s < q) plus a tenth of
    the terms of ``symmetric_model``: symmetric, and small enough a
    perturbation that the s constants stay the certified ground states.
    With ``quarter`` the random terms are rounded to -1/4, 0 or 1/4 instead,
    so that relative energies lie on a level grid; about 1 in 200 such draws
    ties a ground state and is not certified."""
    base = potts_model(r=r, q=q) if s == q else excited_potts_model(q=q, s=s, r=r)
    extra = tuple(InteractionTerm.from_table(
        term.offsets, {pattern: round(value) / 4 if quarter else 0.1 * value
                       for pattern, value in term.entries})
        for term in symmetric_model(q, r, s, seed).terms)
    return ModelSpec(d=2, r=r, q=q, s=s, terms=base.terms + extra)


# Boxes of several sites; q = 2 on 4x4 and q = 3 on 3x3 span several chunks.
SWEEP_SHAPES = {2: [(2, 2), (2, 3), (3, 3), (4, 4)],
                3: [(1, 2), (2, 2), (2, 3), (3, 3)]}


@st.composite
def sweep_cases(draw):
    q = draw(st.integers(2, 3))
    return (q, draw(st.integers(1, 2)), draw(st.integers(1, q)),
            draw(st.sampled_from(SWEEP_SHAPES[q])), draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=12, deadline=None, database=None)
@given(case=sweep_cases(), beta=st.floats(0.0, 2.0), quarter=st.booleans())
@example(case=(2, 1, 2, (4, 4), 6), beta=0.8, quarter=False)
@example(case=(3, 1, 3, (3, 3), 7), beta=1.3, quarter=False)
@example(case=(3, 2, 2, (3, 3), 9), beta=0.6, quarter=False)
@example(case=(3, 1, 3, (3, 3), 2793701318), beta=0.9, quarter=True)  # levels
@example(case=(3, 2, 2, (3, 3), 3), beta=1.7, quarter=True)  # levels, dlr floats
@example(case=(3, 2, 2, (3, 3), 9), beta=0.4, quarter=True)  # grid 1/144, floats
def test_marginal_sweep_matches_the_full_sweep(case, beta, quarter):
    q, r, s, shape, seed = case
    model = certified_symmetric_model(q, r, s, seed, quarter)
    if quarter:
        assume(verify_ground_states(model).certified)
    require_certified(model)
    assert check_symmetry(model)
    box = Box.from_shape(shape)
    exterior = 1 + seed % s

    # oracle: a numpy reduction of the reference sweep
    w = np.exp(-beta * sweep_energies(model, box, exterior))
    digits = digits_of(np.arange(len(w)), q, box.size)
    marginals = np.array([np.bincount(digits[:, k], weights=w, minlength=q)
                          for k in range(box.size)]) / w.sum()

    dist = enumerate_distribution(
        FiniteVolumeEnsemble(box=box, exterior=exterior, beta=beta, model=model))
    assert abs(dist.log_partition - math.log(w.sum())) <= 1e-12
    for k, site in enumerate(box.sites()):
        for v in range(1, q + 1):
            assert abs(dist.marginals[(site, v)] - marginals[k, v - 1]) <= 1e-12

    x = box.sites()[seed % box.size]
    j = exterior % q + 1
    assert marginal_trend(model, box, x, exterior, j, [beta]) == [
        dist.marginals[(x, j)]]
    if s >= 2:
        (gap,) = coexistence_gap(model, box, x, [beta])
        assert gap.permutation_residual <= 1e-12

    corner = Box.from_shape(tuple(min(2, side) for side in shape))
    ens = FiniteVolumeEnsemble(box=box, exterior=exterior, beta=beta, model=model)
    assert dlr_consistency(ens, corner) <= 1e-10


# Boxes of 4 to 6 sites: with CHUNK = 9, q = 2 chunks hold 8 configurations
# and q = 3 chunks 9, so every box spans several chunks.
STATS_SHAPES = {2: [(2, 2), (1, 5), (2, 3)], 3: [(2, 2), (1, 4), (2, 3)]}


@st.composite
def stats_cases(draw):
    q = draw(st.integers(2, 3))
    return (q, draw(st.integers(1, 2)), draw(st.integers(1, q)),
            draw(st.sampled_from(STATS_SHAPES[q])), draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=12, deadline=None, database=None)
@given(case=stats_cases(), betas=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=2))
@example(case=(3, 1, 3, (2, 3), 4), betas=[0.4, 1.5])
@example(case=(3, 2, 2, (2, 3), 5), betas=[0.7])
@example(case=(2, 2, 1, (2, 3), 6), betas=[1.0, 0.0])
def test_contour_statistics_match_the_public_extractor(case, betas):
    q, r, s, shape, seed = case
    model = certified_symmetric_model(q, r, s, seed)
    box = Box.from_shape(shape)
    exterior = 1 + seed % s
    count = q ** box.size

    # oracle: energies from the reference sweep, contours from the public
    # extractor, one configuration at a time
    energies = sweep_energies(model, box, exterior)
    holding = {}  # (serial, size) -> indices of the configurations holding it
    for index in range(count):
        config = config_at(box, exterior, q, index)
        for gamma in contours(config, model):
            holding.setdefault((gamma.serial(), gamma.size), []).append(index)

    _low_table.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact, "CHUNK", 9)
            assert len(list(_chunk_ranges(q, box.size))) > 1
            stats = contour_statistics(model, box, exterior, betas)
    finally:
        _low_table.cache_clear()

    for beta, st_beta in zip(betas, stats):
        w = np.exp(-beta * energies)
        z = w.sum()
        got = {(rec.contour, rec.size): rec.probability for rec in st_beta.records}
        assert len(got) == len(st_beta.records)
        assert got.keys() == holding.keys()
        for key, indices in holding.items():
            assert abs(got[key] - w[indices].sum() / z) <= 1e-13
        keys = [(rec.slack, rec.contour) for rec in st_beta.records]
        assert keys == sorted(keys)


def scratch_key(state: _ChainState, k: int) -> int:
    """The heat-bath key of site k from the digits alone: the digit at ball
    offset s, the exterior's outside the box, times q^s."""
    box, site = state.box, state.box.sites()[k]
    key = 0
    for s, off in enumerate(ball_offsets(box.dimension, state.model.r)):
        x = tuple(a + b for a, b in zip(site, off))
        digit = (state.digits[box.index_of(x)] if box.contains(x)
                 else state.exterior - 1)
        key += digit * state.q ** s
    return key


def follow_key_moves(state: _ChainState, moves) -> None:
    """Apply each move (k, v, u) to a keyed chain state: set site k's digit
    to v when u < 1/2, else redraw it by heat bath with uniform u.  After
    every move the codes and keys equal ones computed from the digits."""
    box, q, exterior = state.box, state.q, state.exterior
    grid = _grid(state.model, box)
    # every site meets its cubes in the same order, so equal keys mean equal
    # sums, term by term, in the conditional
    assert len({tuple(p for _, p in cubes) for cubes in state.site_cubes}) == 1
    for k, v, u in moves:
        k %= box.size
        if u < 0.5:
            state.set_digit(k, v)
        else:
            state.heat_bath(k, u)
        assert state.codes == grid.codes(state.digits, exterior - 1).tolist()
        assert state.keys == [scratch_key(state, j) for j in range(box.size)]
        # a site's key does not move with its own digit
        before = state.keys[k]
        state.set_digit(k, (state.digits[k] + 1) % q)
        assert state.keys[k] == before
        assert state.keys == [scratch_key(state, j) for j in range(box.size)]
    for k in range(box.size):
        cuts = state.thresholds.get(state.keys[k])
        if cuts is not None:
            assert cuts == tuple(itertools.accumulate(state.conditional(k)[:-1]))


@st.composite
def key_cases(draw):
    q = draw(st.integers(2, 3))
    case = (q, draw(st.integers(1, 2)), draw(st.integers(1, q)),
            draw(st.sampled_from([(1, 1), (1, 3), (2, 3), (3, 3), (4, 5)])),
            draw(st.integers(0, 2 ** 32 - 1)))
    moves = draw(st.lists(st.tuples(st.integers(0, 19), st.integers(0, q - 1),
                                    st.floats(0.0, 1.0)), max_size=40))
    return case, moves


@settings(max_examples=40, deadline=None, database=None)
@given(case=key_cases())
@example(case=((2, 1, 2, (3, 3), 1), [(k, 1, 0.5) for k in range(9)]))
@example(case=((3, 2, 3, (4, 5), 2), [(k, (k * 7) % 3, 0.3) for k in range(20)]
               + [(k, 0, 0.9) for k in range(20)]))
def test_heat_bath_keys_follow_the_digits(case):
    (q, r, s, shape, seed), moves = case
    model = certified_symmetric_model(q, r, s, seed)
    follow_key_moves(_ChainState(model, Box.from_shape(shape), 1 + seed % s,
                                 0.9, keyed=True), moves)


@settings(max_examples=20, deadline=None, database=None)
@given(moves=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 1),
                                st.floats(0.0, 1.0)), max_size=40))
def test_heat_bath_keys_follow_the_digits_in_three_dimensions(moves):
    model = potts_model(d=3, r=1, q=2)
    follow_key_moves(_ChainState(model, Box.from_shape((2, 2, 3)), 1, 0.9,
                                 keyed=True), moves)


def traced_peak_and_kept(fn) -> tuple:
    """tracemalloc's peak during fn() and the memory fn() left allocated."""
    tracemalloc.start()
    try:
        fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, kept


# A J that no other test uses, so each test below builds what it measures.
# potts:q=4,r=2 has 4^9 cube patterns: a patterns x cube sites int64 digit
# array takes 18.9 MB, and a Python list of its energies over 8 MB.

def test_pattern_tables_build_without_a_digit_matrix():
    model = potts_model(r=2, q=4, J=1.375)
    peak, _ = traced_peak_and_kept(lambda: check_symmetry(model))
    assert peak < 16e6


def test_a_grid_keeps_no_copy_of_the_tables():
    model = potts_model(r=2, q=4, J=1.625)
    _tables(model)
    _, kept = traced_peak_and_kept(
        lambda: _grid(model, Box.from_shape((2, 2), lower=(11, -5))))
    assert kept < 1e6


def test_a_warm_marginal_chunk_builds_no_whole_digit_rows():
    # ising 4x5, the chunk of indices 3 * 2^14 .. 4 * 2^14, on its level grid
    # and off it: int64 digit and code rows for its 2^14 configurations would
    # take 6.6 MB
    model, box, groups = ising_model(), Box.from_shape((4, 5)), ((7,),)
    for levels in (_level_grid(model, box, groups), None):
        args = (model, box, 1, (0.5, 1.0, 2.0), groups, levels, 3 << 14, 4 << 14)
        _dist_task(args)
        peak, _ = traced_peak_and_kept(lambda: _dist_task(args))
        assert peak < 3e6
