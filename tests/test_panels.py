"""Panel loading, window aggregation, and country alignment."""

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
    load_panel,
    read_panel_csv,
)
from tpnet.panels import ActivityPanel, WindowedMatrix

from .oracles import reference_panel


def test_single_record_identity():
    panel = load_panel([("FRA", "Y02A 10", 2012, 1.5)], "technology")
    assert panel.country_ids == ("FRA",)
    assert panel.activity_ids == ("Y02A 10",)
    assert panel.years == (2012,)
    assert panel.values[2012][0, 0] == 1.5


def test_duplicate_keys_are_summed():
    panel = load_panel(
        [("FRA", "Y02A 10", 2012, 1.0), ("FRA", "Y02A 10", 2012, 0.5)],
        "technology",
    )
    assert panel.values[2012][0, 0] == 1.5


def test_full_scale_export_panel_shape():
    # 169 countries over 2007-2017 loads with eleven yearly matrices
    countries = [f"C{i:03d}" for i in range(169)]
    records = [
        (c, code, year, 1.0)
        for c in countries
        for code in ("01", "02")
        for year in range(2007, 2018)
    ]
    panel = load_panel(records, "product")
    assert len(panel.country_ids) == 169
    assert len(panel.years) == 11
    assert panel.years == tuple(range(2007, 2018))


def test_axes_are_sorted_and_missing_cells_zero():
    panel = load_panel(
        [("B", "y", 2000, 1.0), ("A", "x", 2001, 2.0)], "product"
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
def test_bad_records_rejected(record):
    with pytest.raises(PanelError):
        load_panel([record], "product")


def test_empty_input_rejected():
    with pytest.raises(PanelError):
        load_panel([], "product")


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
    ],
    ids=["year", "value", "nan", "inf", "negative", "fields", "padded-year",
         "blank-year", "padded-value", "padded-nan", "padded-negative", "padded-fields"],
)
def test_read_panel_csv_names_offending_line(tmp_path, row, message):
    # the blank line 3 is skipped but still counted
    path = tmp_path / "panel.csv"
    path.write_text(
        f"country,activity,year,value\nFRA,x,2000,1\n\n{row}\n",
        encoding="utf-8",
    )
    with pytest.raises(PanelError) as excinfo:
        read_panel_csv(path, "product")
    assert str(excinfo.value) == f"{path}:4: {message}"


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


def test_read_panel_csv_header_only_has_no_data_rows(tmp_path):
    path = tmp_path / "panel.csv"
    for body in ("", "\n , ,,\n"):
        path.write_text("country,activity,year,value\n" + body, encoding="utf-8")
        with pytest.raises(PanelError, match="no data rows"):
            read_panel_csv(path, "product")


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
    path = tmp_path_factory.mktemp("ingest") / "panel.csv"
    lines = [f"{c},{a},{y},{v!r}\n" for c, a, y, v in records]
    path.write_text("country,activity,year,value\n" + "".join(lines), encoding="utf-8")
    for panel in (load_panel(records, "product"), read_panel_csv(path, "product")):
        assert panel.country_ids == countries
        assert panel.activity_ids == activities
        assert panel.years == years
        for year in years:
            assert panel.values[year].tobytes() == values[year].tobytes()


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


def test_window_out_of_range_names_missing_years():
    panel = _two_year_panel()
    with pytest.raises(WindowError, match=r"\[2014, 2015\]"):
        aggregate_window(panel, 4, 2017)


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


def _window(countries, values):
    return WindowedMatrix(
        "product", countries, ("x",), 1, 2000, np.asarray(values, dtype=float)
    )


def test_align_countries_intersection():
    tech = _window(("A", "B", "C"), [[1.0], [2.0], [3.0]])
    prod = _window(("B", "C", "D"), [[4.0], [5.0], [6.0]])
    tech2, prod2, common = align_countries(tech, prod)
    assert common == ("B", "C")
    assert tech2.country_ids == ("B", "C")
    assert np.array_equal(tech2.values, [[2.0], [3.0]])
    assert np.array_equal(prod2.values, [[4.0], [5.0]])


def test_align_countries_identity_and_idempotence():
    tech = _window(("A", "B"), [[1.0], [2.0]])
    prod = _window(("A", "B"), [[3.0], [4.0]])
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
    tech = _window(tech_ids, [[1.0]] * 48)
    prod = _window(prod_ids, [[1.0]] * 169)
    _, _, common = align_countries(tech, prod)
    assert len(common) == 47


def test_align_countries_empty_intersection_rejected():
    tech = _window(("A",), [[1.0]])
    prod = _window(("B",), [[1.0]])
    with pytest.raises(AxisMismatchError):
        align_countries(tech, prod)


def test_aggregate_activities_prefix_sums():
    panel = load_panel(
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


def test_aggregate_activities_noop_when_codes_short():
    panel = load_panel([("A", "81", 2000, 1.0)], "product")
    assert aggregate_activities(panel, 6) is panel
