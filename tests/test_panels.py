"""Panel loading, window aggregation, and country alignment."""

import codecs
import csv
import re
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpnet import (
    PanelError,
    WindowError,
    AxisMismatchError,
    aggregate_activities,
    aggregate_window,
    align_countries,
    read_panel_csv,
)
from tpnet import panels
from tpnet.panels import ActivityPanel, WindowedMatrix
from tpnet.rca import BinaryMatrix

from .conftest import read_records
from .oracles import decimal_kernel_takes, reference_panel


def test_single_record_identity(tmp_path):
    panel = read_records(tmp_path / "panel.csv", [("FRA", "Y02A 10", 2012, 1.5)], "technology")
    assert panel.country_ids == ("FRA",)
    assert panel.activity_ids == ("Y02A 10",)
    assert panel.years == (2012,)
    assert panel.values[2012][0, 0] == 1.5


def test_duplicate_keys_are_summed(tmp_path):
    panel = read_records(
        tmp_path / "panel.csv",
        [("FRA", "Y02A 10", 2012, 1.0), ("FRA", "Y02A 10", 2012, 0.5)],
        "technology",
    )
    assert panel.values[2012][0, 0] == 1.5


def test_full_scale_export_panel_shape(tmp_path):
    # 169 countries over 2007-2017 loads with eleven yearly matrices
    countries = [f"C{i:03d}" for i in range(169)]
    records = [
        (c, code, year, 1.0)
        for c in countries
        for code in ("01", "02")
        for year in range(2007, 2018)
    ]
    panel = read_records(tmp_path / "panel.csv", records, "product")
    assert len(panel.country_ids) == 169
    assert len(panel.years) == 11
    assert panel.years == tuple(range(2007, 2018))


def test_axes_are_sorted_and_missing_cells_zero(tmp_path):
    panel = read_records(
        tmp_path / "panel.csv", [("B", "y", 2000, 1.0), ("A", "x", 2001, 2.0)], "product"
    )
    assert panel.country_ids == ("A", "B")
    assert panel.activity_ids == ("x", "y")
    assert panel.values[2000][1, 1] == 1.0
    assert panel.values[2000][0, 0] == 0.0
    assert panel.values[2001][0, 0] == 2.0


@pytest.mark.parametrize(
    "record",
    [
        ("FRA", "x", 2000, -1.0),
        ("FRA", "x", 2000, "abc"),
        ("FRA", "x", "not-a-year", 1.0),
        ("FRA", "x", 2000, float("nan")),
    ],
)
def test_bad_records_rejected(tmp_path, record):
    with pytest.raises(PanelError):
        read_records(tmp_path / "panel.csv", [record], "product")


def test_read_panel_csv_roundtrip(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text(
        "country,activity,year,value\nFRA,Y02A 10,2012,1.5\nFRA,Y02A 10,2012,0.5\n",
        encoding="utf-8",
    )
    panel = read_panel_csv(path, "technology")
    assert panel.values[2012][0, 0] == 2.0


def test_read_panel_csv_bad_header(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("a,b,c,d\nFRA,x,2000,1\n", encoding="utf-8")
    with pytest.raises(PanelError, match="header"):
        read_panel_csv(path, "product")


def test_read_panel_csv_accepts_byte_order_mark(tmp_path):
    # Excel writes UTF-8 CSVs with a leading BOM
    path = tmp_path / "panel.csv"
    path.write_bytes(b"\xef\xbb\xbfcountry,activity,year,value\nFRA,x,2000,1.5\n")
    panel = read_panel_csv(path, "product")
    assert panel.country_ids == ("FRA",)
    assert panel.values[2000][0, 0] == 1.5


@pytest.mark.parametrize(
    "row, message",
    [
        ("FRA,x,20o1,1", "unparseable year '20o1'"),
        ("FRA,x,20o1,abc", "unparseable year '20o1'"),
        ("FRA,x,2001,abc", "non-numeric value 'abc'"),
        ("FRA,x,2001,nan", "non-finite value 'nan'"),
        ("FRA,x,2001,inf", "non-finite value 'inf'"),
        ("FRA,x,2001,-3", "negative value '-3'"),
        ("FRA,x,2001", "expected 4 fields, got 3"),
        (" FRA , x , 20o1 , 1 ", "unparseable year '20o1'"),
        ("FRA,x,  ,1", "unparseable year ''"),
        ("FRA,x, 2001 ,\tabc ", "non-numeric value 'abc'"),
        (" FRA ,x,2001, nan", "non-finite value 'nan'"),
        ("FRA, x ,2001 , -3 ", "negative value '-3'"),
        (" FRA , x , 2001 ", "expected 4 fields, got 3"),
        # int() and float() take these; a plain decimal does not
        ("FRA,x,20_01,1", "unparseable year '20_01'"),
        ("FRA,x,2001,1_0", "non-numeric value '1_0'"),
        ("FRA,x,\u0662\u0660\u0660\u0661,1", "unparseable year '\u0662\u0660\u0660\u0661'"),
        ("FRA,x,2001,\u0661", "non-numeric value '\u0661'"),
        ("FRA,x,2000\u00a0,1", "unparseable year '2000\\xa0'"),
        ("FRA,x,100000000000000000000,1", "year out of range '100000000000000000000'"),
    ],
    ids=["year", "year-before-value", "value", "nan", "inf", "negative", "fields", "padded-year",
         "blank-year", "padded-value", "padded-nan", "padded-negative", "padded-fields",
         "underscore-year", "underscore-value", "arabic-indic-year", "arabic-indic-value",
         "no-break-space-year", "year-past-int64"],
)
def test_read_panel_csv_names_offending_line(tmp_path, row, message):
    # a blank line 3 is skipped but still counted; without it the blocks
    # parse up to the bad row, then hand the file to the row loop
    path = tmp_path / "panel.csv"
    for blank, line in (("\n", 4), ("", 3)):
        path.write_text(f"country,activity,year,value\nFRA,x,2000,1\n{blank}{row}\n", encoding="utf-8")
        with pytest.raises(PanelError) as excinfo:
            read_panel_csv(path, "product")
        assert str(excinfo.value) == f"{path}:{line}: {message}"


def test_read_panel_csv_ignores_field_padding(tmp_path):
    plain, padded = tmp_path / "plain.csv", tmp_path / "padded.csv"
    plain.write_text("country,activity,year,value\nFRA,x,2000,1.5\nDEU,y,2001,2\n", encoding="utf-8")
    padded.write_text(
        "country,activity,year,value\n FRA ,\tx, 2000 ,1.5 \n , , , \nDEU , y,2001\t, 2\n",
        encoding="utf-8",
    )
    a, b = read_panel_csv(plain, "product"), read_panel_csv(padded, "product")
    assert (a.country_ids, a.activity_ids, a.years) == (b.country_ids, b.activity_ids, b.years)
    for year in a.years:
        assert a.values[year].tobytes() == b.values[year].tobytes()


@pytest.mark.parametrize(
    "body",
    ['"FRA",x,2000,1.5\nDEU,"y",2001,2\n', "FRA,x,2000,1.5\n\nDEU,y,2001,2\n",
     "FRA,x,2000,1.5\r\nDEU,y,2001,2\r\n", "FRA,x,2000,1.5\rDEU,y,2001,2"],
    ids=["quoted", "blank-line", "crlf", "lone-cr"],
)
def test_read_panel_csv_reads_other_csv_shapes_like_plain_lines(tmp_path, body):
    plain, shaped = tmp_path / "plain.csv", tmp_path / "shaped.csv"
    plain.write_text("country,activity,year,value\nFRA,x,2000,1.5\nDEU,y,2001,2\n", encoding="utf-8")
    shaped.write_bytes(b"country,activity,year,value\r\n" + body.encode())
    assert _outcome(read_panel_csv, shaped) == _outcome(read_panel_csv, plain)


def test_read_panel_csv_header_only_has_no_data_rows(tmp_path):
    path = tmp_path / "panel.csv"
    for body in ("", "\n , ,,\n"):
        path.write_text("country,activity,year,value\n" + body, encoding="utf-8")
        with pytest.raises(PanelError, match="no data rows"):
            read_panel_csv(path, "product")


def test_read_panel_csv_zero_byte_file_is_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_bytes(b"")
    with pytest.raises(PanelError, match=re.escape(f"{path}: file is empty")):
        read_panel_csv(path, "product")


def test_read_panel_csv_names_file_it_cannot_read(tmp_path):
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"country,activity,year,value\nFRA,caf\xe9,2000,1\n")
    with pytest.raises(PanelError, match=f"^{re.escape(str(latin1))}: not UTF-8 text"):
        read_panel_csv(latin1, "product")
    too_long = tmp_path / ("x" * 5000)
    with pytest.raises(PanelError, match=r"x{5000}: cannot read \("):
        read_panel_csv(too_long, "product")


def test_read_panel_csv_names_line_of_overlong_field(tmp_path):
    # csv.reader refuses a field over its size limit; the error names file and line
    path = tmp_path / "panel.csv"
    path.write_text(
        "country,activity,year,value\nFRA,x" + "x" * csv.field_size_limit() + ",2000,1\n",
        encoding="utf-8",
    )
    with pytest.raises(PanelError) as excinfo:
        read_panel_csv(path, "product")
    assert str(excinfo.value) == (
        f"{path}:2: field larger than field limit ({csv.field_size_limit()})"
    )


def test_read_panel_csv_names_cell_whose_sum_overflows(tmp_path):
    # every value is finite, but one cell's duplicates sum past the float range
    path = tmp_path / "panel.csv"
    path.write_text(
        "country,activity,year,value\nA,w,2000,1\nA,x,2000,1e308\nB,y,2001,1\nA,x,2000,1e308\n",
        encoding="utf-8",
    )
    with pytest.raises(PanelError) as excinfo:
        read_panel_csv(path, "product")
    assert str(excinfo.value) == (
        f"{path}: country 'A', activity 'x', year 2000: values sum past the float range"
    )


def test_block_read_file_names_cell_whose_sum_overflows(tmp_path, monkeypatch):
    # the blocks read every row; the overflow is found once, after them, with no second read
    path = tmp_path / "panel.csv"
    path.write_text(
        "country,activity,year,value\nA,w,2000,1\nA,x,2000,1e308\nB,y,2001,1\nA,x,2000,1e308\n",
        encoding="utf-8",
    )
    calls = _spy_on_readers(monkeypatch)
    with pytest.raises(PanelError) as excinfo:
        read_panel_csv(path, "product")
    assert str(excinfo.value) == (
        f"{path}: country 'A', activity 'x', year 2000: values sum past the float range"
    )
    assert calls == ["_parse_block"]


_IDS = st.text(alphabet="AZaz019", min_size=1, max_size=6)
_VALUES = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 0.3]),
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False),
)


@st.composite
def _panel_records(draw):
    """Shuffled records over mixed-length ids and gapped years, with repeated
    keys; one key gets 0.1, 0.2 and 0.3 in a drawn order, whose float sum
    depends on that order."""
    countries = draw(st.lists(_IDS, min_size=1, max_size=5, unique=True))
    activities = draw(st.lists(_IDS, min_size=1, max_size=5, unique=True))
    years = draw(st.lists(st.integers(1990, 2030), min_size=1, max_size=4, unique=True))
    keys = st.tuples(*map(st.sampled_from, (countries, activities, years)))
    records = [(*key, draw(_VALUES)) for key in draw(st.lists(keys, min_size=1, max_size=25))]
    repeated = draw(keys)
    records += [(*repeated, v) for v in draw(st.permutations([0.1, 0.2, 0.3]))]
    return draw(st.permutations(records))


@settings(max_examples=60, deadline=None)
@given(_panel_records())
def test_ingest_matches_reference_panel(tmp_path_factory, records):
    countries, activities, years, values = reference_panel(records)
    panel = read_records(tmp_path_factory.mktemp("ingest") / "panel.csv", records, "product")
    assert panel.country_ids == countries
    assert panel.activity_ids == activities
    assert panel.years == years
    for year in years:
        assert panel.values[year].tobytes() == values[year].tobytes()


def _outcome(read, path):
    """A panel's labels, years and value bytes, or the text of its ``PanelError``."""
    try:
        panel = read(path, "product")
    except PanelError as exc:
        return str(exc)
    return (panel.country_ids, panel.activity_ids, panel.years,
            [panel.values[year].tobytes() for year in panel.years])


def _row_outcome(path):
    """``_outcome`` of ``read_panel_csv`` with the rows read by the row loop."""
    with mock.patch.object(panels, "_read_blocks", lambda path: None):
        return _outcome(read_panel_csv, path)


def _spy_on_readers(monkeypatch) -> list[str]:
    """The names of ``_parse_block`` and ``_read_rows``, in the order they are called."""
    calls = []
    for name in ("_parse_block", "_read_rows"):
        def spy(*args, _fn=getattr(panels, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(panels, name, spy)
    return calls


def _no_row_loop(path):
    raise AssertionError(f"{path} went to the row loop")


_TOKENS = [*',"\r\n\t _\u00a0\u0662\u00e9.e-', *"0129", "nan", "inf", "A"]
_NOISE = st.lists(st.sampled_from(_TOKENS), max_size=4).map("".join)


def _field(usual: list[str], odd: list[str]) -> st.SearchStrategy[str]:
    """One of ``usual`` in 16 draws of 20, else one of ``odd`` or, once in 20, noise."""
    return st.integers(0, 19).flatmap(
        lambda i: _NOISE if i == 0 else st.sampled_from(odd if i < 4 else usual))


_ROW = st.tuples(
    _field(["A", "B", " A ", "\u00e9"], ["A\u00a0", "", '"A"', "A\rB", "\x1cB\x0b", "A\x00"]),
    _field(["x", "\u00e9t\u00e9", "y "], ["x\r", '"x,y"', "\u2028"]),
    _field(["2000", "2001", " 2001\t"],
           ["20_01", "\u0662\u0660\u0660\u0661", "2001\u00a0", " ", "-9223372036854775808",
            "9223372036854775808"]),
    _field(["1", "0.5", "1e3", " 2 ", "1e308"],
           ["1_0", "nan", "inf", "1e999", "-1", "-0", "\u0661", "", '"1"']),
)
_HEADER = _field(["country,activity,year,value", " Country,ACTIVITY ,year,value"],
                 ['"country",activity,year,value', "country\r,activity,year,value"])
_LINE = st.integers(0, 19).flatmap(
    lambda i: st.one_of(st.just(""), _NOISE) if i == 0 else _ROW.map(",".join))


@st.composite
def _panel_files(draw):
    """CSV bytes that are mostly valid rows, with quotes, stray CRs and LFs,
    commas, NULs, padding, non-ASCII digits, blank lines, a BOM, CRLF line
    ends and a missing final newline mixed in."""
    lines = [draw(_HEADER), *draw(st.lists(_LINE, max_size=8))]
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return codecs.BOM_UTF8 * draw(st.booleans()) + text.encode()


@settings(max_examples=400, deadline=None)
@given(_panel_files(), st.sampled_from([40, 64, panels._BLOCK_BYTES]))
def test_read_panel_csv_matches_row_loop(tmp_path_factory, data, block_bytes):
    path = tmp_path_factory.mktemp("differential") / "panel.csv"
    path.write_bytes(data)
    expected = _row_outcome(path)
    with mock.patch.object(panels, "_BLOCK_BYTES", block_bytes):
        assert _outcome(read_panel_csv, path) == expected


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_block_reader_splits_rows_and_characters_across_blocks(tmp_path, monkeypatch, newline):
    # rows of 17 to 22 bytes whose labels have 2- and 3-byte characters; a CRLF is split too
    path = tmp_path / "panel.csv"
    rows = [f"{c},{a},{2000 + i % 3},{i % 4 + 0.5}"
            for i, (c, a) in enumerate(zip(["Z\u00fcri", "\u6771\u4eac", "\u00c5s"] * 9,
                                           ["\u00e9t\u00e9", "x\u4e00", "a\u00df"] * 9))]
    path.write_bytes(newline.join(["country,activity,year,value", *rows, ""]).encode())
    expected = _row_outcome(path)
    monkeypatch.setattr(panels, "_read_rows", _no_row_loop)
    for block_bytes in range(32, 64):
        monkeypatch.setattr(panels, "_BLOCK_BYTES", block_bytes)
        assert _outcome(read_panel_csv, path) == expected


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("last", ['"A",x,2000,1', "A\0,x,2000,1", "A\rB,x,2000,1", "", " \t"],
                         ids=["quote", "nul", "lone-cr", "blank-line", "whitespace-line"])
def test_row_loop_shapes_are_refused_by_the_block_that_holds_them(tmp_path, monkeypatch, newline, last):
    # the shape sits on the last line, in a later block than the first at some block sizes
    path = tmp_path / "panel.csv"
    lines = ["country,activity,year,value", *(f"C{i},x,2000,{i}" for i in range(6)), last]
    path.write_bytes(newline.join(lines).encode() + newline.encode())
    expected = _row_outcome(path)
    for block_bytes in range(32, 80):
        monkeypatch.setattr(panels, "_BLOCK_BYTES", block_bytes)
        assert panels._read_blocks(path) is None
        assert _outcome(read_panel_csv, path) == expected


@pytest.mark.parametrize("body, fields", [
    ("A,x,2000,1,5\nB,y,2000\n", 5), ("A,x,2000\nB,y,2000,1,5\n", 3),
], ids=["4-then-2", "2-then-4"])
def test_block_reader_refuses_misplaced_commas(tmp_path, body, fields):
    # 3 commas per line on average, so the count passes and their placement refuses the block
    path = tmp_path / "panel.csv"
    path.write_text("country,activity,year,value\n" + body, encoding="utf-8")
    assert panels._read_blocks(path) is None
    with pytest.raises(PanelError, match=rf":2: expected 4 fields, got {fields}$"):
        read_panel_csv(path, "product")


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_block_reader_reads_a_file_whose_last_byte_is_a_lone_cr(tmp_path, monkeypatch, newline):
    path = tmp_path / "panel.csv"
    lines = ["country,activity,year,value", *(f"C{i},x,2000,{i}" for i in range(6))]
    path.write_bytes(newline.join(lines).encode() + b"\r")
    expected = _row_outcome(path)
    monkeypatch.setattr(panels, "_read_rows", _no_row_loop)
    for block_bytes in range(32, 80):
        monkeypatch.setattr(panels, "_BLOCK_BYTES", block_bytes)
        assert _outcome(read_panel_csv, path) == expected


def test_block_reader_reads_a_label_near_the_field_limit(tmp_path, monkeypatch):
    # one row may fill most of a block; zero-filling its fields costs memory by the block, not the width squared
    path = tmp_path / "panel.csv"
    path.write_text(f"country,activity,year,value\nFRA,{'x' * 100_000},2000,1\nDEU,y,2001,2\n",
                    encoding="utf-8")
    expected = _row_outcome(path)
    monkeypatch.setattr(panels, "_read_rows", _no_row_loop)
    tracemalloc.start()
    try:
        assert _outcome(read_panel_csv, path) == expected
        assert tracemalloc.get_traced_memory()[1] < 8 * 2**20
    finally:
        tracemalloc.stop()


def test_block_reader_hands_a_line_longer_than_a_block_to_the_row_loop(tmp_path, monkeypatch):
    # the first row is parsed in a block; the next holds no line end in a full block
    path = tmp_path / "panel.csv"
    path.write_text(f"country,activity,year,value\nFRA,x,2000,1\nDEU,{'y' * 100},2000,2\n"
                    "ITA,x,2001,3\n", encoding="utf-8")
    expected = _row_outcome(path)
    calls = _spy_on_readers(monkeypatch)
    monkeypatch.setattr(panels, "_BLOCK_BYTES", 64)
    assert _outcome(read_panel_csv, path) == expected
    assert calls == ["_parse_block", "_read_rows"]


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8], ids=["no-bom", "bom"])
@pytest.mark.parametrize("final_newline", [True, False], ids=["final-newline", "no-final-newline"])
def test_bench_shaped_file_never_reaches_row_loop(tmp_path, monkeypatch, newline, bom, final_newline):
    # the benchmark's panels: chapter-prefixed codes and repr() floats
    rng = np.random.default_rng(3)
    rows = [f"C{c:03d},{p:02d}{q:04d},{year},{v!r}"
            for year in range(2008, 2011)
            for c, p, q, v in zip(rng.integers(0, 150, 400), rng.integers(1, 98, 400),
                                  rng.integers(0, 60, 400), rng.lognormal(3.0, 1.5, 400).tolist())]
    text = newline.join(["country,activity,year,value", *rows]) + newline * final_newline
    path = tmp_path / "panel.csv"
    path.write_bytes(bom + text.encode())
    expected = _row_outcome(path)
    monkeypatch.setattr(panels, "_read_rows", _no_row_loop)
    monkeypatch.setattr(panels, "_BLOCK_BYTES", 4096)  # many blocks, each ending mid-row
    assert _outcome(read_panel_csv, path) == expected


def _kernel(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """``_decimals`` of ``texts`` laid out as the value fields of a block."""
    body = "".join(f",{text}" for text in texts).encode()
    padded = np.zeros(panels._DECIMAL_BYTES + len(body) + 8, np.uint8)
    padded[panels._DECIMAL_BYTES:][:len(body)] = np.frombuffer(body, np.uint8)
    lengths = np.array([len(text) for text in texts])
    ends = panels._DECIMAL_BYTES + np.cumsum(lengths + 1)
    return panels._decimals(padded, ends, lengths)


def _bits(values) -> list[bytes]:
    return [struct.pack("<d", value) for value in values]


def _assert_kernel_matches_float(texts: list[str]) -> np.ndarray:
    values, exact = _kernel(texts)
    assert exact.tolist() == list(map(decimal_kernel_takes, texts))
    assert _bits(values[exact]) == _bits(float(text) for text, e in zip(texts, exact) if e)
    return exact


@st.composite
def _decimal_texts(draw):
    """1 to 22 digits, a point anywhere or none, and up to 8 leading zeros
    and, after a point, 8 trailing ones: fractions of 0 to 30 digits."""
    digits = draw(st.text("0123456789", min_size=1, max_size=22))
    point = draw(st.none() | st.integers(0, len(digits)))
    zeros = draw(st.integers(0, 8))
    if point is None:
        return "0" * zeros + digits
    return "0" * zeros + digits[:point] + "." + digits[point:] + "0" * draw(st.integers(0, 8))


@pytest.mark.skipif(not panels._EXTENDED, reason="the kernel needs an x87 long double")
@settings(max_examples=300, deadline=None)
@given(st.lists(_decimal_texts(), min_size=1, max_size=30))
def test_decimal_kernel_matches_float_bit_for_bit(texts):
    _assert_kernel_matches_float(texts)


@pytest.mark.skipif(not panels._EXTENDED, reason="the kernel needs an x87 long double")
@pytest.mark.parametrize("text, taken", [
    ("9007199254740993", False),  # 2**53 + 1: the decimal itself is halfway
    ("18.988222672245195", False),  # only its 64-bit quotient is halfway (found by search)
    ("1234567890123456789", True),  # 19 digits
    ("9999999999999999999", True),
    ("12345678901234567890", False),  # 20 digits
    ("00000000000000000000012345.6", True),  # leading zeros are not digits of M
    ("0", True), ("0.", True), (".0", True), ("5.", True), (".5", True),
    ("0.000000000000000000000000001", True),  # 27 digits after the point
    (".0000000000000000000000000001", False),  # 28
    ("0.0000000000000000000000000001", False),  # 30 bytes
    (".", False), ("", False), ("1.2.3", False), ("1e3", False), ("-1", False), (" 2", False),
])
def test_decimal_kernel_pinned_texts(text, taken):
    assert _assert_kernel_matches_float([text]).tolist() == [taken]


@pytest.mark.skipif(not panels._EXTENDED, reason="the kernel needs an x87 long double")
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_halfway_quotients_take_the_fallback(tmp_path, monkeypatch, newline):
    texts = ["9007199254740993", "18.988222672245195", "2.5"]
    path = tmp_path / "panel.csv"
    path.write_bytes(newline.join(["country,activity,year,value",
                                   *(f"C{i},x,2000,{t}" for i, t in enumerate(texts)), ""]).encode())
    calls = []

    def spy(*args, _decimals=panels._decimals):
        values, exact = _decimals(*args)
        calls.append((values.copy(), exact))  # the reader overwrites the values it parses again
        return values, exact

    monkeypatch.setattr(panels, "_decimals", spy)
    monkeypatch.setattr(panels, "_read_rows", _no_row_loop)
    panel = read_panel_csv(path, "product")
    [(values, exact)] = calls
    assert exact.tolist() == [False, False, True]
    # one more rounding of the second quotient misses its float by one unit: float() must parse it
    assert _bits(values[1:2]) != _bits([float(texts[1])])
    assert _bits(panel.values[2000][:, 0]) == _bits(map(float, texts))


@settings(max_examples=200, deadline=None)
@given(_panel_files(), st.sampled_from([40, 64, panels._BLOCK_BYTES]))
def test_read_panel_csv_without_the_decimal_kernel_reads_the_same(tmp_path_factory, data, block_bytes):
    # where a long double is not x87's, every value goes through float()
    path = tmp_path_factory.mktemp("no_kernel") / "panel.csv"
    path.write_bytes(data)
    taken = []

    def spy(*args, _decimals=panels._decimals):
        values, exact = _decimals(*args)
        taken.append(exact.any())
        return values, exact

    with mock.patch.object(panels, "_BLOCK_BYTES", block_bytes):
        expected = _outcome(read_panel_csv, path)
        with mock.patch.object(panels, "_EXTENDED", False), mock.patch.object(panels, "_decimals", spy):
            assert _outcome(read_panel_csv, path) == expected
    assert not any(taken)


_KEY_CASES = {
    "new-keys-in-later-blocks": ["A,x,2000,1", "A,x,2000,2", "B,y,2001,3", "A,x,2000,4", "C,z,2002,5",
                                 "B,x,2003,6", "D,w,2000,7", "A,z,2003,8"],
    "eight-byte-label": ["ABCDEFGH,x,2000,1", "ABCDEFG,x,2000,2", "A,12345678,2001,3",
                         "ABCDEFGH,1234567,2000,4", "ABCDEFG,12345678,2001,5"],
    "wide-label-in-one-block": ["A,x,2000,1", "ABCDEFGH,xy,2000,2", "ABCDEFGHIJ,x,2001,3",
                                "A,abcdefghij,2000,4", "ABCDEFGH,abcdefgh,2001,5", "AB,x,2001,6",
                                "ABCDEFGHIJ,xy,2000,7", "A,x,2000,8"],
    "padded-year-in-another-block": ["A,x,2008,1", "B,x,2009,2", "C,x,2008,3", "A,y, 2008,4",
                                     "B,y,2009 ,5", "C,x,2008,6", "A,x, 2008,7"],
}


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("rows", list(_KEY_CASES.values()), ids=list(_KEY_CASES))
def test_block_keys_match_row_loop_across_blocks(tmp_path, monkeypatch, rows, newline):
    # blocks of 1 to 4 rows: each block's keys are looked up among the earlier blocks' raw keys
    path = tmp_path / "panel.csv"
    path.write_bytes(newline.join(["country,activity,year,value", *rows, ""]).encode())
    expected = _row_outcome(path)
    monkeypatch.setattr(panels, "_read_rows", _no_row_loop)
    for block_bytes in range(32, 80):
        monkeypatch.setattr(panels, "_BLOCK_BYTES", block_bytes)
        assert _outcome(read_panel_csv, path) == expected


def _two_year_panel():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    return ActivityPanel(
        "product", ("A", "B"), ("x", "y"), (2016, 2017), {2016: a, 2017: b}
    )


def test_window_of_one_is_identity():
    panel = _two_year_panel()
    window = aggregate_window(panel, 1, 2016)
    assert np.array_equal(window.values, panel.values[2016])
    assert window.delta == 1 and window.end_year == 2016


def test_window_of_two_sums_elementwise():
    panel = _two_year_panel()
    window = aggregate_window(panel, 2, 2017)
    assert np.array_equal(window.values, panel.values[2016] + panel.values[2017])


def test_window_additivity():
    rng = np.random.default_rng(11)
    years = tuple(range(2010, 2016))
    values = {y: rng.random((3, 4)) for y in years}
    panel = ActivityPanel("product", ("A", "B", "C"), ("w", "x", "y", "z"), years, values)
    left = aggregate_window(panel, 3, 2012)
    right = aggregate_window(panel, 3, 2015)
    both = aggregate_window(panel, 6, 2015)
    assert np.allclose(both.values, left.values + right.values)


def test_window_length_below_one_rejected():
    with pytest.raises(WindowError, match=r"^window length must be >= 1, got 0$"):
        aggregate_window(_two_year_panel(), 0, 2017)


def test_activity_panel_rejects_duplicate_labels_missing_years_and_unknown_kinds():
    one_year = {2016: np.ones((1, 1))}
    with pytest.raises(PanelError, match=re.escape("duplicate country labels: ['A']")):
        ActivityPanel("product", ("A", "A"), ("x",), (2016,), {2016: np.ones((2, 1))})
    with pytest.raises(PanelError, match="missing matrix for year 2017"):
        ActivityPanel("product", ("A",), ("x",), (2016, 2017), one_year)
    with pytest.raises(PanelError, match="layer_kind must be one of"):
        ActivityPanel("trade", ("A",), ("x",), (2016,), one_year)


def test_window_out_of_range_names_missing_years():
    panel = _two_year_panel()
    with pytest.raises(WindowError, match=r"\[2014, 2015\]"):
        aggregate_window(panel, 4, 2017)


@pytest.mark.parametrize("delta", [7, 10**6])
def test_window_lacking_more_years_than_the_panel_has_is_one_line(delta):
    # the 7-year window lacks 5 years, more than the panel's 2, so none is listed
    tracemalloc.start()
    try:
        with pytest.raises(WindowError) as err:
            aggregate_window(_two_year_panel(), delta, 2017)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == (
        f"product panel has 2 years, too few for the {delta}-year window ending 2017"
    )
    assert peak < 2**20


@pytest.mark.parametrize("name, problem", [("", "not a file"), ("missing.csv", "no such file")])
def test_panel_path_that_is_not_a_file_is_named(tmp_path, name, problem):
    path = tmp_path / name
    with pytest.raises(PanelError, match=f"^{re.escape(str(path))}: {problem}$"):
        read_panel_csv(path, "product")


def test_aggregation_commutes_with_country_permutation():
    rng = np.random.default_rng(5)
    years = (2000, 2001)
    values = {y: rng.random((3, 2)) for y in years}
    panel = ActivityPanel("product", ("A", "B", "C"), ("x", "y"), years, values)
    perm = [2, 0, 1]
    permuted = ActivityPanel(
        "product",
        tuple(panel.country_ids[i] for i in perm),
        panel.activity_ids,
        years,
        {y: values[y][perm, :] for y in years},
    )
    direct = aggregate_window(permuted, 2, 2001).values
    after = aggregate_window(panel, 2, 2001).values[perm, :]
    assert np.array_equal(direct, after)


def _binary(countries, values):
    return BinaryMatrix(countries, ("x", "y"), np.asarray(values))


def test_align_countries_intersection():
    tech = _binary(("A", "B", "C"), [[1, 1], [0, 1], [1, 0]])
    prod = _binary(("B", "C", "D"), [[1, 0], [0, 0], [1, 1]])
    tech2, prod2, common = align_countries(tech, prod)
    assert common == ("B", "C")
    assert tech2.country_ids == ("B", "C")
    assert np.array_equal(tech2.values, [[0, 1], [1, 0]])
    assert np.array_equal(prod2.values, [[1, 0], [0, 0]])


def test_align_countries_identity_and_idempotence():
    tech = _binary(("A", "B"), [[1, 0], [0, 1]])
    prod = _binary(("A", "B"), [[1, 1], [0, 0]])
    tech2, prod2, common = align_countries(tech, prod)
    assert tech2 is tech and prod2 is prod
    tech3, prod3, common3 = align_countries(tech2, prod2)
    assert common3 == common
    assert np.array_equal(tech3.values, tech2.values)


def test_align_countries_paper_scale_counts():
    # 48-country layer against 169-country layer sharing 47 labels
    tech_ids = tuple(f"S{i:03d}" for i in range(47)) + ("ONLY_TECH",)
    prod_ids = tuple(f"S{i:03d}" for i in range(47)) + tuple(
        f"X{i:03d}" for i in range(122)
    )
    tech = _binary(tech_ids, [[1, 0]] * 48)
    prod = _binary(prod_ids, [[0, 1]] * 169)
    _, _, common = align_countries(tech, prod)
    assert len(common) == 47


def test_align_countries_empty_intersection_rejected():
    tech = _binary(("A",), [[1, 0]])
    prod = _binary(("B",), [[0, 1]])
    with pytest.raises(AxisMismatchError):
        align_countries(tech, prod)


def test_aggregate_activities_prefix_sums(tmp_path):
    panel = read_records(
        tmp_path / "panel.csv",
        [
            ("A", "810520", 2000, 1.0),
            ("A", "810530", 2000, 2.0),
            ("A", "720110", 2000, 4.0),
        ],
        "product",
    )
    coarse = aggregate_activities(panel, 2)
    assert coarse.activity_ids == ("72", "81")
    assert coarse.values[2000][0].tolist() == [4.0, 3.0]


def test_aggregate_activities_noop_when_codes_short(tmp_path):
    panel = read_records(tmp_path / "panel.csv", [("A", "81", 2000, 1.0)], "product")
    assert aggregate_activities(panel, 6) is panel


@pytest.mark.parametrize("build, message", [
    (lambda: WindowedMatrix("product", ("A", "B"), ("x",), 1, 2016, np.ones((1, 2))),
     "window matrix shape does not match axes"),
    (lambda: aggregate_activities(
        ActivityPanel("product", ("A",), ("0101",), (2016,), {2016: np.ones((1, 1))}), 0),
     "prefix_len must be >= 1, got 0"),
])
def test_panel_inputs_are_checked(build, message):
    with pytest.raises(PanelError, match=f"^{re.escape(message)}$"):
        build()
