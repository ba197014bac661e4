"""Property tests over random symmetric models.

Models are drawn with d = 2, r in {1, 2} and q <= 3: a few interaction terms
on random shapes inside one cube, each with a random table averaged over the
permutations of the sector spins 1..s, so every drawn model is symmetric.
Exact sweeps also need certified ground states, so the marginal sweep test
adds a tenth of such a model to the Potts or excited Potts terms.
The last two tests bound the memory that building the pattern tables takes
and that a box grid keeps, on one large built-in model.
"""

import itertools
import math
import tracemalloc

import numpy as np
from hypothesis import example, given, settings, strategies as st

from peierls import (Box, CubePotential, FiniteVolumeEnsemble, InteractionTerm,
                     ModelSpec, check_symmetry, coexistence_gap, containing_cube_count,
                     dlr_consistency, enumerate_distribution, excited_potts_model,
                     marginal_trend, potts_model, require_certified)
from peierls.contours import _grid
from peierls.exact import _chunk_energies, _chunk_ranges, config_from_index, full_sweep
from peierls.lattice import cubes_meeting_box
from peierls.model import _tables, cube_sites, digits_of, permute_spins


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
    config = config_from_index(box, exterior, model.q, index)
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


# deadline=None: an example's first call builds the pattern tables of a new
# model and the low table of a new box, which takes longer than its later ones.
@settings(max_examples=30, deadline=None, database=None)
@given(case=cases(), picks=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
@example(case=(2, 1, 2, (3, 5), 0), picks=[0.0, 0.5, 0.9999])
@example(case=(2, 2, 1, (4, 4), 1), picks=[0.3, 0.7, 1.0])
@example(case=(3, 1, 3, (3, 3), 2), picks=[0.0, 0.4, 0.7, 1.0])
@example(case=(3, 2, 2, (3, 3), 3), picks=[0.2, 0.6, 0.99])
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
    parts = [_chunk_energies(model, box, exterior, a, b) for a, b in chunks]
    digits = np.concatenate([p[0] for p in parts])
    energies = np.concatenate([p[2] for p in parts])
    # every index appears once, in order, with its own digits
    assert np.array_equal(digits @ q ** np.arange(box.size), np.arange(count))

    for pick in picks:
        index = min(int(pick * count), count - 1)
        want, scale = oracle_energy(model, box, exterior, index)
        assert abs(energies[index] - want) <= 1e-12 * max(scale, 1.0)


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


def certified_symmetric_model(q: int, r: int, s: int, seed: int) -> ModelSpec:
    """Potts terms (s = q) or excited Potts terms (s < q) plus a tenth of
    the terms of ``symmetric_model``: symmetric, and small enough a
    perturbation that the s constants stay the certified ground states."""
    base = potts_model(r=r, q=q) if s == q else excited_potts_model(q=q, s=s, r=r)
    extra = tuple(InteractionTerm.from_table(
        term.offsets, {pattern: 0.1 * value for pattern, value in term.entries})
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
@given(case=sweep_cases(), beta=st.floats(0.0, 2.0))
@example(case=(2, 1, 2, (4, 4), 6), beta=0.8)
@example(case=(3, 1, 3, (3, 3), 7), beta=1.3)
@example(case=(3, 2, 2, (3, 3), 9), beta=0.6)
def test_marginal_sweep_matches_the_full_sweep(case, beta):
    q, r, s, shape, seed = case
    model = certified_symmetric_model(q, r, s, seed)
    require_certified(model)
    assert check_symmetry(model)
    box = Box.from_shape(shape)
    exterior = 1 + seed % s

    # oracle: a numpy reduction of the materialised sweep
    w = np.exp(-beta * full_sweep(model, box, exterior).energies)
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
