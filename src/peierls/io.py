"""File formats and run artifacts.

Model files are line oriented::

    # comment
    dims d r q s
    term
    offsets (x1,...,xd);(x1,...,xd);...
    entry s1 s2 ... sk value
    end

with one ``offsets`` line per term block and one ``entry`` line per stored
pattern (missing patterns read as zero energy).  Whitespace within a line is
free; ``#`` starts a comment anywhere.

Configuration files::

    config d r q s i
    box lo1..hi1 lo2..hi2 ...
    <row-major spins, whitespace separated>

CSV output is RFC-4180 style with a header row; floats are printed with 17
significant digits so reruns are byte-identical.  Every command of the CLI
writes a JSON run manifest suitable for re-execution.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence

from .contours import Configuration
from .errors import InputError
from .lattice import Box
from .model import InteractionTerm, ModelSpec


# ---------------------------------------------------------------------------
# Tokenizing
# ---------------------------------------------------------------------------

def _tokenize(text: str, name: str):
    """Yield (line_number, [(token, column), ...]) for non-empty lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = []
        col = 0
        for piece in line.split():
            col = line.index(piece, col)
            tokens.append((piece, col + 1))
            col += len(piece)
        if tokens:
            yield lineno, tokens


def _fail(name: str, lineno: int, col: int, message: str):
    raise InputError(f"{name}:{lineno}:{col}: {message}")


def _parse_int(name, lineno, token, col, what):
    try:
        return int(token)
    except ValueError:
        _fail(name, lineno, col, f"expected an integer {what}, got {token!r}")


def _parse_offsets(name, lineno, text, col, d):
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not (chunk.startswith("(") and chunk.endswith(")")):
            _fail(name, lineno, col, f"offset {chunk!r} is not parenthesized")
        parts = chunk[1:-1].split(",")
        if len(parts) != d:
            _fail(name, lineno, col,
                  f"offset {chunk!r} has {len(parts)} coordinates, expected {d}")
        try:
            out.append(tuple(int(p) for p in parts))
        except ValueError:
            _fail(name, lineno, col, f"offset {chunk!r} has a non-integer coordinate")
    return out


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

def parse_model(text: str, name: str = "<model>") -> ModelSpec:
    dims = None
    terms = []
    current_offsets = None
    current_entries = None
    in_term = False
    last = (0, 0)
    for lineno, tokens in _tokenize(text, name):
        word, col = tokens[0]
        last = (lineno, col)
        if word == "dims":
            if dims is not None:
                _fail(name, lineno, col, "duplicate dims line")
            if len(tokens) != 5:
                _fail(name, lineno, col, "dims takes exactly four integers: d r q s")
            d, r, q, s = (_parse_int(name, lineno, t, c, "dimension value")
                          for t, c in tokens[1:])
            dims = (d, r, q, s)
        elif word == "term":
            if dims is None:
                _fail(name, lineno, col, "term before dims")
            if in_term:
                _fail(name, lineno, col, "term block opened inside a term block")
            in_term, current_offsets, current_entries = True, None, {}
        elif word == "offsets":
            if not in_term:
                _fail(name, lineno, col, "offsets outside a term block")
            if current_offsets is not None:
                _fail(name, lineno, col, "duplicate offsets line in a term block")
            if len(tokens) < 2:
                _fail(name, lineno, col, "offsets line without offsets")
            joined = " ".join(t for t, _ in tokens[1:])
            current_offsets = _parse_offsets(name, lineno, joined, tokens[1][1], dims[0])
        elif word == "entry":
            if not in_term:
                _fail(name, lineno, col, "entry outside a term block")
            if current_offsets is None:
                _fail(name, lineno, col, "entry before the offsets line")
            want = len(current_offsets)
            if len(tokens) != want + 2:
                _fail(name, lineno, col,
                      f"entry takes {want} spins and one value, got {len(tokens) - 1} fields")
            pattern = tuple(_parse_int(name, lineno, t, c, "spin")
                            for t, c in tokens[1:-1])
            vtoken, vcol = tokens[-1]
            try:
                value = float(vtoken)
            except ValueError:
                _fail(name, lineno, vcol, f"expected a value, got {vtoken!r}")
            if pattern in current_entries:
                _fail(name, lineno, col, f"duplicate entry for pattern {pattern}")
            current_entries[pattern] = value
        elif word == "end":
            if not in_term:
                _fail(name, lineno, col, "end outside a term block")
            if current_offsets is None:
                _fail(name, lineno, col, "term block without an offsets line")
            terms.append(InteractionTerm.from_table(current_offsets, current_entries))
            in_term = False
        else:
            _fail(name, lineno, col, f"unknown directive {word!r}")
    if in_term:
        _fail(name, last[0], last[1], "unterminated term block at end of file")
    if dims is None:
        _fail(name, 1, 1, "missing dims line")
    d, r, q, s = dims
    return ModelSpec(d=d, r=r, q=q, s=s, terms=tuple(terms))


def load_model(path) -> ModelSpec:
    path = Path(path)
    return parse_model(path.read_text(), name=str(path))


def save_model(model: ModelSpec, path) -> None:
    lines = [f"dims {model.d} {model.r} {model.q} {model.s}"]
    for term in model.terms:
        lines.append("term")
        offs = ";".join("(" + ",".join(str(c) for c in o) + ")" for o in term.offsets)
        lines.append(f"offsets {offs}")
        for pattern, value in term.entries:
            lines.append("entry " + " ".join(str(v) for v in pattern)
                         + " " + format_float(value))
        lines.append("end")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Configuration files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfigHeader:
    d: int
    r: int
    q: int
    s: int
    exterior: int


def parse_configuration(text: str, name: str = "<config>") -> tuple:
    lines = list(_tokenize(text, name))
    if not lines:
        raise InputError(f"{name}:1:1: empty configuration file")
    lineno, tokens = lines[0]
    if tokens[0][0] != "config" or len(tokens) != 6:
        _fail(name, lineno, tokens[0][1],
              "first line must be: config d r q s i")
    d, r, q, s, ext = (_parse_int(name, lineno, t, c, "header value")
                       for t, c in tokens[1:])
    header = ConfigHeader(d=d, r=r, q=q, s=s, exterior=ext)
    if not 1 <= s <= q:
        _fail(name, lineno, tokens[0][1], f"need 1 <= s <= q, got s={s}, q={q}")
    if not 1 <= ext <= s:
        _fail(name, lineno, tokens[0][1],
              f"exterior spin {ext} outside the symmetric sector 1..{s}")
    if len(lines) < 2:
        _fail(name, lineno, 1, "missing box line")
    lineno, tokens = lines[1]
    if tokens[0][0] != "box" or len(tokens) != d + 1:
        _fail(name, lineno, tokens[0][1], f"second line must be: box with {d} ranges")
    lower, upper = [], []
    for token, col in tokens[1:]:
        lo, sep, hi = token.partition("..")
        if not sep:
            _fail(name, lineno, col, f"range {token!r} must look like lo..hi")
        lower.append(_parse_int(name, lineno, lo, col, "range bound"))
        upper.append(_parse_int(name, lineno, hi, col, "range bound"))
    box = Box(tuple(lower), tuple(upper))
    spins = []
    for lineno, tokens in lines[2:]:
        for token, col in tokens:
            v = _parse_int(name, lineno, token, col, "spin")
            if not 1 <= v <= q:
                _fail(name, lineno, col, f"spin {v} outside 1..{q}")
            spins.append(v)
    if len(spins) != box.size:
        raise InputError(
            f"{name}: box has {box.size} sites but {len(spins)} spins were given")
    return Configuration(box, tuple(spins), ext), header


def load_configuration(path) -> tuple:
    path = Path(path)
    return parse_configuration(path.read_text(), name=str(path))


def save_configuration(config: Configuration, model: ModelSpec, path) -> None:
    header = f"config {model.d} {model.r} {model.q} {model.s} {config.exterior}"
    box = " ".join(f"{l}..{u}" for l, u in zip(config.box.lower, config.box.upper))
    width = config.box.shape[-1]
    rows = [
        " ".join(str(v) for v in config.spins[i:i + width])
        for i in range(0, len(config.spins), width)
    ]
    Path(path).write_text(header + "\nbox " + box + "\n" + "\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# CSV and manifests
# ---------------------------------------------------------------------------

def format_float(x: float) -> str:
    return format(float(x), ".17g")


def format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, tuple):
        return "(" + ",".join(str(c) for c in value) + ")"
    return str(value)


# Rows are formatted by column, _BLOCK at a time, each column of a block
# with a fresh memo, so memory stays bounded by the block.
_BLOCK = 4096
_NEEDS_QUOTES = re.compile('[,"\r\n]').search


class _Memo(dict):
    """Cell -> ``field(cell)``, computed once per distinct cell.  Falsy cells
    are not kept: 0.0 == -0.0, yet their texts differ."""

    def __init__(self, field):
        self.field = field

    def __missing__(self, cell):
        text = self.field(cell)
        if cell:
            self[cell] = text
        return text


def _quote(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES(text) else text


def _column(cells) -> Iterable[str]:
    """One column's CSV fields; exact floats and ints never need quotes."""
    kinds = set(map(type, cells))
    if kinds == {int}:
        return map(str, cells)
    if kinds == {float}:
        return map(_Memo("{:.17g}".format).__getitem__, cells)
    return map(_Memo(_quote).__getitem__, cells if kinds == {str} else map(format_cell, cells))


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows; ``rows`` may be a generator, read once.

    The bytes are those of ``csv.writer`` over ``format_cell`` texts.  A
    block of rows of one width, two or more, is built by column: within a
    column of a block each distinct float is formatted, and each distinct
    text quoted, once.  Any other block (ragged rows, one or no cells) goes
    through ``csv.writer``, so ragged rows are written as given.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = iter(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for block in iter(lambda: list(islice(rows, _BLOCK)), []):
            if len(set(map(len, block))) > 1 or len(block[0]) < 2:
                writer.writerows([format_cell(v) for v in row] for row in block)
            else:
                columns = map(_column, zip(*block))
                fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def write_manifest(path, manifest: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def load_manifest(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not a valid manifest: {exc}") from exc
