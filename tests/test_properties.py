"""Property tests over random symmetric models.

Models are drawn with d = 2, r in {1, 2} and q <= 3: a few interaction terms
on random shapes inside one cube, each with a random table averaged over the
permutations of the sector spins 1..s, so every drawn model is symmetric.
"""

import itertools
import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from peierls import Box, CubePotential, InteractionTerm, ModelSpec, check_symmetry
from peierls.exact import _chunk_energies, _chunk_ranges, config_from_index
from peierls.lattice import cubes_meeting_box
from peierls.model import _tables, permute_spins


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
