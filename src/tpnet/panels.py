"""Yearly country-activity data panels: loading, windowing, axis alignment.

A panel holds one layer (technology or product) as a stack of dense yearly
country x activity matrices with labeled, lexicographically sorted axes.
Axis ordering is canonical so every downstream matrix is reproducible
bit-for-bit across runs. Missing cells are zeros: absence of a record means
no activity, not missing data.
"""

from __future__ import annotations

import codecs
import csv
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import AxisMismatchError, PanelError, WindowError

LAYER_KINDS = ("technology", "product")

PANEL_CSV_HEADER = ("country", "activity", "year", "value")

PANEL_FORMAT = "one pass, plain ASCII decimals"  # keys cached panels: bump it with read_panel_csv's rules

_YEARS = range(-(2**63), 2**63)  # a year must fit the int64 years of a cached panel

_BLOCK_BYTES = 512 * 1024  # the most bytes of lines parsed at once: bounds the reader's extra memory

_LF, _CR, _COMMA, _UNDERSCORE, _ZERO, _POINT = b"\n\r,_0."

# The exact decimal kernel runs where a long double is x87's, with a 64-bit significand.
_EXTENDED = np.finfo(np.longdouble).nmant == 63

_DECIMAL_BYTES = 29  # the widest plain decimal _decimals reads: "0." and 27 digits

_POW10 = np.cumprod(np.r_[1, np.full(27, 10)].astype(np.longdouble))  # 10**0 .. 10**27, exact

_LOW_BYTES = np.array([(1 << 8 * i) - 1 for i in range(9)], np.uint64)  # the first i bytes of a key


def _frozen(values: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(values, dtype=np.float64)
    out.setflags(write=False)
    return out


def _check_layer_kind(layer_kind: str) -> None:
    if layer_kind not in LAYER_KINDS:
        raise PanelError(f"layer_kind must be one of {LAYER_KINDS}, got {layer_kind!r}")


def _check_no_duplicates(ids: Sequence[str], what: str) -> None:
    dups = sorted(i for i, n in Counter(ids).items() if n > 1)
    if dups:
        raise PanelError(f"duplicate {what} labels: {dups}")


@dataclass(frozen=True)
class ActivityPanel:
    """Yearly weighted country x activity matrices for one layer."""

    layer_kind: str
    country_ids: tuple[str, ...]
    activity_ids: tuple[str, ...]
    years: tuple[int, ...]
    values: Mapping[int, np.ndarray]

    def __post_init__(self):
        _check_layer_kind(self.layer_kind)
        _check_no_duplicates(self.country_ids, "country")
        _check_no_duplicates(self.activity_ids, "activity")
        shape = (len(self.country_ids), len(self.activity_ids))
        frozen: dict[int, np.ndarray] = {}
        for year in self.years:
            if year not in self.values:
                raise PanelError(f"missing matrix for year {year}")
            mat = np.asarray(self.values[year], dtype=np.float64)
            if mat.shape != shape:
                raise PanelError(
                    f"year {year}: matrix shape {mat.shape} does not match axes {shape}"
                )
            if not np.all(np.isfinite(mat)) or np.any(mat < 0):
                raise PanelError(f"year {year}: values must be finite and >= 0")
            frozen[year] = _frozen(mat)
        object.__setattr__(self, "values", MappingProxyType(frozen))

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.country_ids), len(self.activity_ids))


@dataclass(frozen=True)
class WindowedMatrix:
    """Sum of a panel's yearly matrices over the window ending at ``end_year``."""

    layer_kind: str
    country_ids: tuple[str, ...]
    activity_ids: tuple[str, ...]
    delta: int
    end_year: int
    values: np.ndarray

    def __post_init__(self):
        _check_layer_kind(self.layer_kind)
        if self.delta < 1:
            raise WindowError(f"window length must be >= 1, got {self.delta}")
        mat = np.asarray(self.values, dtype=np.float64)
        if mat.shape != (len(self.country_ids), len(self.activity_ids)):
            raise PanelError("window matrix shape does not match axes")
        object.__setattr__(self, "values", _frozen(mat))


def read_panel_csv(path: str | Path, layer_kind: str) -> ActivityPanel:
    """Read a UTF-8 CSV with header ``country,activity,year,value`` into a panel.

    A leading byte-order mark is ignored, blank lines are skipped, and
    whitespace around the fields is ignored. Years and values are plain ASCII
    decimals, and a year must fit in 64 bits. ``bincount`` adds in file order,
    so duplicate keys sum as a running sum. Axes come out sorted
    lexicographically, years ascending, and unrecorded cells are 0.

    The body is parsed in numpy blocks of whole lines. A file a block refuses
    is read again by a loop over the rows, which takes every other CSV shape
    and names the first bad line; the two give identical rows, which are
    summed and checked here.
    """
    _check_layer_kind(layer_kind)
    path = Path(path)
    axes, seen, weights = _read_blocks(path) or _read_rows(path)
    if not weights:
        raise PanelError(f"{path}: no data rows")
    (years, countries, activities), cells = _sum_cells(axes, seen, weights)
    # values are >= 0: a sum past the float range is inf, the max
    first_max = np.unravel_index(np.argmax(cells), cells.shape)
    if np.isinf(cells[first_max]):
        y, c, a = first_max
        raise PanelError(f"{path}: country {countries[c]!r}, activity {activities[a]!r}, "
                         f"year {years[y]}: values sum past the float range")
    return ActivityPanel(layer_kind, countries, activities, years, dict(zip(years, cells)))


def _read_rows(path: Path):
    """``read_panel_csv``'s rows, one at a time: the authority on what a file
    holds, and the ``PanelError`` naming a bad line or a file it cannot read.
    Each row is parsed, checked and appended in one pass, so the first bad row fails first."""
    axes = y_pos, c_pos, a_pos = {}, {}, {}  # label -> first-seen index
    seen = y_idx, c_idx, a_idx = array("q"), array("q"), array("q")
    weights = array("d")
    try:
        if not path.is_file():
            raise PanelError(f"{path}: {'not a file' if path.exists() else 'no such file'}")
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise PanelError(f"{path}: file is empty")
            if tuple(h.strip().lower() for h in header) != PANEL_CSV_HEADER:
                raise PanelError(
                    f"{path}: expected header {','.join(PANEL_CSV_HEADER)!r}, got {','.join(header)!r}"
                )

            def bad(what: str, raw: str) -> PanelError:
                shown = raw.strip(" \t\r\n\f\v")  # the padding int() and float() take
                return PanelError(f"{path}:{reader.line_num}: {what} {shown!r}")

            # int() and float() skip padding but also take "_" and non-ASCII digits,
            # refused here. Labels are stripped; only a row without 4 fields or a year can be blank.
            year_index = {}  # raw year field -> index in y_pos, each parsed once
            for row in reader:
                if len(row) != 4 or not row[2].strip():
                    if not "".join(row).strip():
                        continue
                    if len(row) != 4:
                        raise PanelError(f"{path}:{reader.line_num}: expected 4 fields, got {len(row)}")
                country, activity, year_raw, value_raw = row
                y = year_index.get(year_raw)
                if y is None:
                    try:
                        if not year_raw.isascii() or "_" in year_raw:
                            raise ValueError
                        year = int(year_raw)
                    except ValueError:
                        raise bad("unparseable year", year_raw)
                    if year not in _YEARS:
                        raise bad("year out of range", year_raw)
                    y = year_index[year_raw] = y_pos.setdefault(year, len(y_pos))
                try:
                    if not value_raw.isascii() or "_" in value_raw:
                        raise ValueError
                    value = float(value_raw)
                except ValueError:
                    raise bad("non-numeric value", value_raw)
                if not math.isfinite(value):
                    raise bad("non-finite value", value_raw)
                if value < 0:
                    raise bad("negative value", value_raw)
                y_idx.append(y)
                c_idx.append(c_pos.setdefault(country.strip(), len(c_pos)))
                a_idx.append(a_pos.setdefault(activity.strip(), len(a_pos)))
                weights.append(value)
    except csv.Error as exc:
        raise PanelError(f"{path}:{reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise PanelError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except OSError as exc:
        raise PanelError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    return axes, seen, weights


def _sum_cells(axes, seen, weights) -> tuple[list[tuple], np.ndarray]:
    """Each axis's sorted labels, and the year x country x activity sums of
    the rows, added in file order. ``axes`` map labels to distinct indices,
    which ``seen`` holds per row; they are overwritten."""
    labels = [tuple(sorted(pos)) for pos in axes]
    # index -> sorted index: argsort inverts "sorted index -> index"
    ranks = [np.argsort([pos[x] for x in order]) for pos, order in zip(axes, labels)]
    shape = tuple(map(len, labels))
    # each row's row-major cell index, built in place over its indices: no temporaries
    flat, *rest = (np.frombuffer(i, np.int64) for i in seen)
    np.take(ranks[0], flat, out=flat, mode="clip")  # "clip" is unbuffered; every index is valid
    for r, i, n in zip(ranks[1:], rest, shape[1:]):
        np.take(r, i, out=i, mode="clip")
        flat *= n
        flat += i
    cells = np.bincount(flat, weights=np.frombuffer(weights), minlength=math.prod(shape))
    return labels, cells.reshape(shape)


def _read_blocks(path: Path):
    """``read_panel_csv``'s rows, parsed in blocks of whole lines of at most
    ``_BLOCK_BYTES``, or None for a file the row loop must read.

    It refuses a file it cannot open, a header that is not exactly the four
    names, a line longer than a block, and any block ``_parse_block`` refuses.
    """
    axes = {}, {}, {}  # year, country, activity -> index
    tables = {}, {}, {}  # per raw key dtype: the sorted raw keys seen and their indices
    seen, weights = (array("q"), array("q"), array("q")), array("d")
    block = bytearray(_BLOCK_BYTES)  # one buffer for every block: no heap churn per block
    try:
        with path.open("rb") as fh:
            header = fh.readline(_BLOCK_BYTES)
            fields = header.removeprefix(codecs.BOM_UTF8).removesuffix(b"\n").removesuffix(b"\r")
            if header[-1:] != b"\n" or b"\r" in fields:  # strip() would take the csv module's line end
                return None
            if tuple(f.strip().lower() for f in fields.decode().split(",")) != PANEL_CSV_HEADER:
                return None
            rest = 0
            while True:
                size = rest + fh.readinto(memoryview(block)[rest:])
                last = size < _BLOCK_BYTES  # a short read is the end of the file
                cut = size if last else block.rfind(b"\n", 0, size) + 1
                if cut:
                    _parse_block(block, cut, axes, tables, seen, weights)
                elif not last:
                    return None  # a line longer than a block
                if last:
                    return axes, seen, weights
                rest = size - cut
                block[:rest] = block[cut:size]
    except (OSError, ValueError):  # ValueError: a refused block, UnicodeDecodeError among them
        return None


def _parse_block(block: bytearray, size: int, axes, tables, seen, weights) -> None:
    """Append the rows of the whole lines of ``block[:size]`` to ``seen`` and
    ``weights``. A ValueError refuses the file: the block holds a ``"``, a
    NUL, a CR not ending its line (the file's last byte may be one), a line
    without exactly 3 commas (a blank line among them), a field too wide for
    the block or the CSV field limit, a bad year, a value that does not parse,
    is not finite or is negative, or text that is not UTF-8."""
    b = np.frombuffer(block, np.uint8, size)
    # the CSV shapes only the row loop takes; a block other than the file's last ends at an LF
    if (block.find(b'"', 0, size) >= 0 or block.find(b"\0", 0, size) >= 0
            or np.any((b[:-1] == _CR) & (b[1:] != _LF))):
        raise ValueError
    ends = np.flatnonzero(b == _LF)
    if b[-1] != _LF:  # the file's last line, without a final newline
        ends = np.append(ends, size)
    n = ends.size
    commas = np.flatnonzero(b == _COMMA)
    if commas.size != 3 * n:
        raise ValueError
    commas = commas.reshape(n, 3)
    starts = np.concatenate(([0], ends[:-1] + 1))
    # commas are sorted and 3n in all, so 3 inside each line means exactly 3 per line
    if np.any(commas[:, 0] < starts) or np.any(commas[:, 2] >= ends):
        raise ValueError
    field_starts = np.column_stack((starts, commas + 1))
    lengths = np.column_stack((commas, ends)) - field_starts  # a CRLF's CR pads the value
    widest = int(lengths.max())
    if n * widest > _BLOCK_BYTES or widest > csv.field_size_limit():
        raise ValueError
    # room before the first value for _decimals and after the last field for an 8-byte key
    padded = np.zeros(_DECIMAL_BYTES + size + max(widest, 8), np.uint8)
    padded[_DECIMAL_BYTES:][:size] = b
    field_starts += _DECIMAL_BYTES
    ends += _DECIMAL_BYTES

    cr = padded[ends - 1] == _CR  # a CRLF's CR, or one ending the file, after the value
    weight, exact = _decimals(padded, ends - cr, lengths[:, 3] - cr)
    rest = np.flatnonzero(~exact)
    if rest.size:
        text = _strings(padded, field_starts[rest, 3], lengths[rest, 3])
        # float() also takes "_" and non-ASCII digits, which the row loop refuses
        if np.any(text.view(np.uint8) >= 0x80) or np.any(text.view(np.uint8) == _UNDERSCORE):
            raise ValueError
        weight[rest] = parsed = text.astype(np.float64)  # Python's float parser
        if not np.all(np.isfinite(parsed)) or np.any(parsed < 0):
            raise ValueError
    for axis, k, key in ((0, 2, _year), (1, 0, _label), (2, 1, _label)):
        keys = _keys(padded, field_starts[:, k], lengths[:, k])
        seen[axis].frombytes(_indices(keys, axes[axis], tables[axis], key).tobytes())
    weights.frombytes(weight.tobytes())


def _decimals(padded: np.ndarray, ends: np.ndarray,
              lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The value of each text of ``lengths`` bytes ending before ``ends`` in
    ``padded``, and whether it is exact: the text is a plain decimal and its
    value is ``float(text)`` bit for bit. A plain decimal has ASCII digits, at
    least one, and at most one ``.``; without leading zeros and the point its
    digits form a mantissa M < 10**19, and at most 27 of them follow the point.

    M and 10**k are exact in a long double, so their quotient is rounded once
    to 64 bits; rounding that to a float64 rounds the decimal correctly
    unless the quotient lies halfway between two float64s, which is not exact.
    Where a long double is not x87's, no text is exact."""
    width = min(int(lengths.max()), _DECIMAL_BYTES)
    if not (width and _EXTENDED):
        return np.empty(len(ends)), np.zeros(len(ends), bool)
    # the last ``width`` bytes before each end less "0", one C-contiguous row per column:
    # "0" to "9" read 0 to 9, and every other byte reads more, wrapping below "0"
    digit = np.ascontiguousarray(_gather(padded, ends - width, width).T)
    digit -= _ZERO
    left = np.arange(width, 0, -1, dtype=np.uint8)[:, None]  # bytes from each column to the end
    digit *= left <= np.minimum(lengths, width).astype(np.uint8)  # the bytes before the text read 0
    is_digit, is_point = digit < 10, digit == _POINT - _ZERO + 256
    point = (is_point * left).max(axis=0)  # 0 without a point, else 1 + the digits after it
    lead = ((digit - 1 < 9) * left).max(axis=0)  # 0 for M = 0, else the bytes from its first digit
    fraction = point - (point > 0)  # k: the digits after the point
    digits = lead - ((point > 0) & (point < lead))  # M's digits
    points = is_point.sum(axis=0, dtype=np.uint8)
    plain = (np.all(is_digit | is_point, axis=0) & (points <= 1) & (points < lengths)
             & (lengths <= width) & (digits <= 19) & (fraction <= 27))
    digit *= is_digit
    mantissa = np.zeros(len(ends), np.uint64)
    for times, plus in zip(10 - 9 * is_point.view(np.uint8), digit):
        mantissa *= times  # the point's column leaves M as it is
        mantissa += plus
    quotient = mantissa.astype(np.longdouble) / _POW10[np.minimum(fraction, 27)]
    # an x87 long double's significand is its first 8 bytes, least significant first
    halfway = quotient.view(np.uint16)[:: quotient.itemsize // 2] & 0x7FF == 0x400
    return quotient.astype(np.float64), plain & ~halfway


def _gather(padded: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes from each of ``starts`` in ``padded``, one row each."""
    at_every_byte = np.ndarray((padded.size - width + 1,), f"S{width}", buffer=padded, strides=(1,))
    return at_every_byte[starts].view(np.uint8).reshape(len(starts), width)


def _strings(padded: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ``lengths`` bytes from each of ``starts`` as ``S`` strings, zeroed past their end."""
    width = max(int(lengths.max()), 1)
    text = _gather(padded, starts, width)
    text *= np.arange(width) < lengths[:, None]
    return text.view(f"S{width}").ravel()


def _keys(padded: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each field's bytes as one key: little-endian uint64s, zeroed past
    their end, where no field is over 8 bytes, else ``S`` strings."""
    if lengths.max() > 8:
        return _strings(padded, starts, lengths)
    words = np.ndarray((padded.size - 7,), "<u8", buffer=padded, strides=(1,))
    return words[starts] & _LOW_BYTES[lengths]


def _indices(keys: np.ndarray, pos: dict, tables: dict, key) -> np.ndarray:
    """Each raw key's index in ``pos``, adding ``key`` of the raw keys not yet
    in ``tables``, which holds the sorted raw keys of each dtype seen so far and
    their indices. A key under two dtypes is parsed once under each."""
    known, index = tables.get(keys.dtype, (keys[:0], np.empty(0, np.int64)))
    at = np.searchsorted(known, keys)
    missed = known[np.minimum(at, known.size - 1)] != keys if known.size else np.ones(keys.size, bool)
    if missed.any():
        new = np.sort(keys[missed])  # not np.unique, which imports numpy.ma: 0.5 MB resident
        new = new[np.concatenate(([True], new[1:] != new[:-1]))]
        # each key's bytes in file order, trailing zeros dropped
        fields = new.astype(new.dtype.newbyteorder("<")).view(f"S{new.itemsize}").tolist()
        added = np.array([pos.setdefault(key(field), len(pos)) for field in fields], np.int64)
        known, index = np.concatenate((known, new)), np.concatenate((index, added))
        order = np.argsort(known)
        tables[keys.dtype] = known, index = known[order], index[order]
        at = np.searchsorted(known, keys)
    return index[at]


def _label(field: bytes) -> str:
    return field.decode().strip()


def _year(field: bytes) -> int:
    # int() also takes "_" and non-ASCII digits, which the row loop refuses
    if not field.isascii() or b"_" in field:
        raise ValueError
    year = int(field.decode())
    if year not in _YEARS:
        raise ValueError
    return year


def missing_years(panel: ActivityPanel, delta: int, end_year: int) -> list[int]:
    """The years of the ``delta``-year window ending at ``end_year`` that
    ``panel`` lacks, ascending; empty when the window fits. A window that
    lacks more years than the panel has is a ``WindowError`` naming the window
    and the panel's year count, so neither the check nor its message grows
    with ``delta``."""
    start = end_year - delta + 1
    if delta - sum(start <= year <= end_year for year in panel.years) > len(panel.years):
        raise WindowError(f"{panel.layer_kind} panel has {len(panel.years)} years, too few "
                          f"for the {delta}-year window ending {end_year}")
    return sorted(set(range(start, end_year + 1)) - set(panel.years))


def aggregate_window(panel: ActivityPanel, delta: int, end_year: int) -> WindowedMatrix:
    """Sum the yearly matrices over [end_year - delta + 1, end_year]; a
    ``delta`` below 1 is a ``WindowError`` from ``WindowedMatrix``."""
    missing = missing_years(panel, delta, end_year)
    if missing:
        raise WindowError(
            f"{panel.layer_kind} panel is missing years {missing} for the "
            f"{delta}-year window ending {end_year}"
        )
    total = np.zeros(panel.shape)
    for year in range(end_year - delta + 1, end_year + 1):
        total += panel.values[year]
    return WindowedMatrix(
        layer_kind=panel.layer_kind,
        country_ids=panel.country_ids,
        activity_ids=panel.activity_ids,
        delta=delta,
        end_year=end_year,
        values=total,
    )


def aggregate_activities(panel: ActivityPanel, prefix_len: int) -> ActivityPanel:
    """Sum activity columns that share the same code prefix of ``prefix_len`` chars.

    Used to coarsen product codes (e.g. 6-digit subheadings to 2-digit
    chapters). Codes shorter than the prefix are kept whole, so re-aggregating
    at or above the native code length is a no-op.
    """
    if prefix_len < 1:
        raise PanelError(f"prefix_len must be >= 1, got {prefix_len}")
    groups: dict[str, list[int]] = {}
    for j, activity in enumerate(panel.activity_ids):
        groups.setdefault(activity[:prefix_len], []).append(j)
    new_ids = tuple(sorted(groups))
    if new_ids == panel.activity_ids:
        return panel
    values = {}
    for year in panel.years:
        mat = panel.values[year]
        out = np.zeros((len(panel.country_ids), len(new_ids)))
        for k, code in enumerate(new_ids):
            out[:, k] = mat[:, groups[code]].sum(axis=1)
        values[year] = out
    return ActivityPanel(panel.layer_kind, panel.country_ids, new_ids, panel.years, values)


def align_countries(tech, prod):
    """Restrict two binary matrices (``rca.BinaryMatrix``) to the sorted
    intersection of their country sets.

    Column axes are untouched. Returns the two restricted matrices and the
    common country list.
    """
    common = tuple(sorted(set(tech.country_ids) & set(prod.country_ids)))
    if not common:
        raise AxisMismatchError("the two layers share no countries")
    if tech.country_ids == common and prod.country_ids == common:
        return tech, prod, common
    return tech.restrict_countries(common), prod.restrict_countries(common), common
