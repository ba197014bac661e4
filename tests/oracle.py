"""The tests' reference sweep: every configuration of a box with a constant
exterior, by sweep index (site k holds base-q digit k plus one), in blocks of
rows that share nothing with the chunk split of ``peierls.exact``.  Energies
are cube energies less their minimum, read from pattern codes; contours come
from the library's one decomposition.  A sweep stops at 2^16 configurations,
the largest box a test sweeps."""

import numpy as np

from peierls import Configuration
from peierls.contours import _grid, _light_contours, _serial
from peierls.model import digits_of

BLOCK = 1 << 12  # rows per code gather


def config_at(box, exterior, q, index):
    """The configuration at a sweep index."""
    return Configuration(box, tuple((digits_of(index, q, box.size) + 1).tolist()), exterior)


def _blocks(model, box, exterior):
    """(digits, cube codes) of every sweep index, BLOCK rows at a time."""
    count = model.q ** box.size
    assert count <= 1 << 16, f"a sweep of {count} configurations"
    grid = _grid(model, box)
    for start in range(0, count, BLOCK):
        digits = digits_of(np.arange(start, min(start + BLOCK, count)), model.q, box.size)
        yield digits, grid.codes(digits, exterior - 1)


def sweep_energies(model, box, exterior):
    """The relative energy of every sweep index."""
    tables = _grid(model, box).tables
    return np.concatenate([(tables.u[codes] - tables.u_min).sum(axis=1)
                           for _, codes in _blocks(model, box, exterior)])


def sweep_contours(model, box, exterior):
    """The contours of every sweep index, each a tuple of (serial, size)."""
    grid = _grid(model, box)
    return [tuple((_serial(key, grid), len(cubes))
                  for key, cubes in _light_contours(row, exterior - 1, improper, grid))
            for digits, codes in _blocks(model, box, exterior)
            for row, improper in zip(digits.tolist(), grid.improper_cubes(codes))]
