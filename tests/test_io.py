import csv
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from peierls import Box, Configuration, InputError, potts_model
from peierls import io as pio
from peierls.io import (format_cell, format_float, load_configuration, load_model,
                        parse_configuration, parse_model, save_configuration,
                        save_model, write_csv)
from peierls.model import potential_spectrum, verify_ground_states

POTTS_TEXT = """\
# two-spin model, all distance-one pairs
dims 2 1 2 2
term
offsets (0,0);(1,0)
entry 1 1 -1
entry 2 2 -1
end
term
offsets (0,0);(0,1)
entry 1 1 -1
entry 2 2 -1
end
term
offsets (0,0);(1,1)
entry 1 1 -1
entry 2 2 -1
end
term
offsets (0,1);(1,0)
entry 1 1 -1
entry 2 2 -1
end
"""


def test_parse_model_matches_builtin(ising):
    parsed = parse_model(POTTS_TEXT)
    assert parsed.d == 2 and parsed.r == 1 and parsed.q == 2 and parsed.s == 2
    assert set(parsed.terms) == set(ising.terms)
    assert potential_spectrum(parsed).gap == pytest.approx(2.0)
    assert verify_ground_states(parsed).certified


def test_model_round_trip(tmp_path, potts3):
    path = tmp_path / "model.txt"
    save_model(potts3, path)
    loaded = load_model(path)
    assert set(loaded.terms) == set(potts3.terms)
    assert (loaded.d, loaded.r, loaded.q, loaded.s) == (2, 1, 3, 3)


@pytest.mark.parametrize("text,fragment", [
    ("term\n", "term before dims"),
    ("dims 2 1 2 2\ndims 2 1 2 2\n", "duplicate dims"),
    ("dims 2 1 2\n", "exactly four"),
    ("dims 2 1 2 2\nterm\nentry 1 1 -1\nend\n", "before the offsets"),
    ("dims 2 1 2 2\nterm\noffsets (0,0)\nentry 1 -1\nbogus\n", "unknown directive"),
    ("dims 2 1 2 2\nterm\noffsets (0,0);(1,0)\nentry 1 1 -1\n", "unterminated"),
    ("dims 2 1 2 2\nterm\noffsets (0 0)\nend\n", "coordinates"),
    ("dims 2 1 2 2\nterm\noffsets (0,0)\nentry 1 1 -1\nend\n", "takes 1 spins"),
])
def test_parse_model_errors_carry_position(text, fragment):
    with pytest.raises(InputError) as err:
        parse_model(text, name="bad.txt")
    message = str(err.value)
    assert fragment in message
    assert message.startswith("bad.txt:")


def test_configuration_round_trip(tmp_path, ising):
    box = Box((-1, 0), (1, 2))
    config = Configuration(box, (1, 2, 1, 2, 2, 1, 1, 1, 2), 1)
    path = tmp_path / "config.txt"
    save_configuration(config, ising, path)
    loaded, header = load_configuration(path)
    assert loaded == config
    assert (header.d, header.r, header.q, header.s, header.exterior) == (2, 1, 2, 2, 1)


def test_parse_configuration_errors():
    with pytest.raises(InputError):
        parse_configuration("config 2 1 2 2 1\nbox 0..1\n1 1\n")  # one range
    with pytest.raises(InputError):
        parse_configuration("config 2 1 2 2 3\nbox 0..1 0..1\n1 1 1 1\n")  # ext > s
    with pytest.raises(InputError):
        parse_configuration("config 2 1 2 2 1\nbox 0..1 0..1\n1 1 3 1\n")  # spin > q
    with pytest.raises(InputError):
        parse_configuration("config 2 1 2 2 1\nbox 0..1 0..1\n1 1 1\n")  # short


def test_format_float_round_trips():
    for x in (0.1, 1 / 3, 2.0, 1e-17, 123456.789):
        assert float(format_float(x)) == x


def test_write_csv_format(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "site"], [(1, 0.5, (0, 1)), (2, 1 / 3, (2, -1))])
    text = path.read_bytes().decode()
    lines = text.strip().split("\r\n")
    assert lines[0] == "a,b,site"
    assert lines[1] == '1,0.5,"(0,1)"'
    assert lines[2].startswith("2,0.33333333333333331,")


# ---------------------------------------------------------------------------
# write_csv against csv.writer over format_cell texts, the plain writer
# ---------------------------------------------------------------------------

def plain_csv(path, header, rows) -> bytes:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([format_cell(v) for v in row] for row in rows)
    return path.read_bytes()


def written_csv(path, header, rows) -> bytes:
    write_csv(path, header, iter(rows))
    return path.read_bytes()


TEXTS = st.one_of(
    st.text(alphabet=st.sampled_from(list(',"\r\n a1.-;\t\xe9')), max_size=6),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=4))
FLOATS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, math.inf, -math.inf,
                                                 math.nan, 1.0, 1 / 3]))
CELLS = {
    "float": FLOATS,
    "int": st.integers(),
    "str": TEXTS,
    "any": st.one_of(
        FLOATS, st.integers(-3, 3), TEXTS, st.booleans(),
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        st.lists(st.integers(-9, 9), max_size=3).map(tuple),
        st.integers(-2 ** 40, 2 ** 40).map(np.int64), FLOATS.map(np.float64),
        st.floats(width=32).map(np.float32), st.booleans().map(np.bool_)),
}


@st.composite
def tables(draw):
    """A header and rectangular rows whose columns each draw one kind of cell."""
    width = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=width,
                          max_size=width))
    rows = [tuple(draw(CELLS[kind]) for kind in kinds)
            for _ in range(draw(st.integers(0, 12)))]
    return draw(st.lists(TEXTS, min_size=width, max_size=width)), rows


@pytest.mark.parametrize("block", [1, 5, 4096])
@settings(max_examples=150, deadline=None, database=None)
@given(table=tables())
def test_write_csv_bytes_match_the_csv_module(tmp_path_factory, block, table):
    header, rows = table
    tmp = tmp_path_factory.mktemp("csv")
    with mock.patch.object(pio, "_BLOCK", block):
        got = written_csv(tmp / "got.csv", header, rows)
    assert got == plain_csv(tmp / "want.csv", header, rows)


@pytest.mark.parametrize("extra", [-1, 0, 1, pio._BLOCK + 1])
def test_write_csv_across_the_block_boundary(tmp_path, extra):
    pool = [("", "a,b", 1, 0.1, (0, -1)), ('say "x"', "\r\n", -7, -0.0, True),
            ("p", "", 2 ** 70, math.nan, np.float64(0.5))]
    rows = [pool[i % 3] for i in range(pio._BLOCK + extra)]
    rows[-1] = ("last", "z", 0, 0.0, False)
    header = ["a", "b", "c", "d", "e"]
    assert (written_csv(tmp_path / "got.csv", header, rows)
            == plain_csv(tmp_path / "want.csv", header, rows))


def test_write_csv_one_column_and_mixed_columns(tmp_path):
    cases = [(["only"], [("",), ("x",), ("",), ('"',)]),
             (["n", "m"], [(1, 1.0), (1.0, True), (True, np.float64(1.0)),
                           (np.int64(1), "1"), (0.0, -0.0), (-0.0, 0.0)])]
    for header, rows in cases:
        assert (written_csv(tmp_path / "got.csv", header, rows)
                == plain_csv(tmp_path / "want.csv", header, rows))


@pytest.mark.parametrize("block", [2, 4096])
@pytest.mark.parametrize("header,rows", [(["a", "b"], [(1, 2), (3,)]),
                                         (["a", "b"], [(1, 2), (3, 4), (5, 6, 7)]),
                                         (["a", "b"], [(1, 2), (3, 4), ()]),
                                         ([], [(), ()]), (["a"], [(1.5, 2), ("",)])])
def test_write_csv_writes_ragged_rows_as_given(tmp_path, block, header, rows):
    with mock.patch.object(pio, "_BLOCK", block):
        got = written_csv(tmp_path / "got.csv", header, rows)
    assert got == plain_csv(tmp_path / "want.csv", header, rows)
