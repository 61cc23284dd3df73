"""Artifact writers: formats, determinism, and third-party readability."""

import csv
import json
from xml.sax import saxutils

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tpnet import degree_report, exports, load_hs_sections
from tpnet.assist import AssistMatrix
from tpnet.efc import ActivityRanking
from tpnet.validate import (
    TIER_ORDER,
    PairValidation,
    intersect_pairs,
    tier_threshold,
)

from .oracles import reference_graphml, reference_report_json


def _network():
    validation = PairValidation(
        tech_ids=("Y02A 10", "Y02E 60", "Y02W 30"),
        product_ids=("810520", "282200", "010101"),
        exceed_counts=np.array([[9995, 0, 0], [0, 9600, 0], [0, 0, 0]]),
        n_samples=10000, t1=2012, t2=2012,
    )
    empirical = np.array([[0.4, 0.0, 0.0], [0.0, 0.2, 0.0], [0.0, 0.0, 0.0]])
    return intersect_pairs([validation], "95", [empirical])


def test_edge_csv_format(tmp_path):
    path = tmp_path / "edges.csv"
    exports.write_network(_network(), path, tmp_path / "net.graphml", {})
    rows = list(csv.DictReader(path.read_text().splitlines()))
    assert [r["tech"] for r in rows] == ["Y02A 10", "Y02E 60"]
    assert rows[0]["product"] == "810520"
    assert rows[0]["p_value"] == "0.0005"
    assert rows[0]["tier"] == "99.9"
    assert rows[1]["tier"] == "95"


def test_edge_csv_matches_csv_writer_on_ids_that_need_quoting(tmp_path):
    tech_ids = ('Y02A, "10"', "Y02E\n60", "Y02W 30", "")
    product_ids = ('81,05"20', "28 \u00e9t\u00e9", "'01'", " 72 ")
    rng = np.random.default_rng(5)
    exceed_counts = rng.choice([0, 960, 995, 1000], size=(4, 4))
    exceed_counts[[0, 1, 3], [0, 1, 3]] = 1000
    validation = PairValidation(
        tech_ids=tech_ids, product_ids=product_ids,
        exceed_counts=exceed_counts, n_samples=1000, t1=2012, t2=2012,
    )
    net = intersect_pairs([validation], "95", [rng.random((4, 4))])
    assert net.edge_count > 4
    path = tmp_path / "edges.csv"
    exports.write_network(net, path, tmp_path / "net.graphml", {})
    rows, cols, weights, p_values, tiers = net.edge_arrays()
    with open(tmp_path / "reference.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tech", "product", "weight", "p_value", "tier"])
        for i, j, weight, p_value, tier in zip(
            rows.tolist(), cols.tolist(), weights.tolist(), p_values.tolist(), tiers.tolist()
        ):
            writer.writerow([net.tech_ids[i], net.product_ids[j], repr(weight), repr(p_value),
                             tier or net.tier])
    assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()
    written = path.read_bytes()
    assert b'\r\n"Y02A, ""10""","81,05""20",' in written
    assert '\r\n"Y02E\n60",28 \u00e9t\u00e9,'.encode() in written
    assert b"\r\n, 72 ," in written


def test_graphml_is_readable_by_networkx(tmp_path):
    networkx = pytest.importorskip("networkx")
    path = tmp_path / "net.graphml"
    exports.write_network(_network(), tmp_path / "edges.csv", path, load_hs_sections())
    graph = networkx.read_graphml(path)
    assert graph.number_of_nodes() == 4  # only connected nodes are emitted
    assert graph.number_of_edges() == 2
    node = graph.nodes["t:Y02A 10"]
    assert node["layer"] == "technology"
    assert node["group"] == "Y02A"
    assert node["degree"] == 1
    product = graph.nodes["p:810520"]
    assert product["group"] == "Metals"
    edge = graph.edges["t:Y02A 10", "p:810520"]
    assert edge["weight"] == pytest.approx(0.4)


def test_graphml_matches_reference_on_markup_and_non_ascii_ids(tmp_path):
    tech_ids = ('Y02A & <10>', "Y02E \"60\"", "Y02W '30'", "Y04S \u00e9t\u00e9", "Y10T 1")
    product_ids = ("85<01>", "28&2200", "01'01\"01", "72 \u4e2d\u6587", "99 <x>")
    rng = np.random.default_rng(4)
    n = 1000
    validations, empirical = [], []
    for k in range(2):
        empirical.append(rng.random((5, 5)))
        validations.append(PairValidation(
            tech_ids=tech_ids, product_ids=product_ids,
            # 900-999 passes tier 90 only, so those edges carry no main tier
            exceed_counts=rng.choice([0, 900, 960, 995, 1000], size=(5, 5)),
            n_samples=n, t1=2012 + k, t2=2014 + k,
        ))
    net = intersect_pairs(validations, "90", empirical)
    tiers = net.edge_arrays()[4]
    assert None in tiers.tolist() and net.edge_count > 5
    sections = {"85": "Machinery & <electrical>", "72": "M\u00e9taux"}
    for product_sections in ({}, sections):
        path = tmp_path / "net.graphml"
        exports.write_network(net, tmp_path / "edges.csv", path, product_sections)
        assert path.read_bytes() == reference_graphml(net, product_sections).encode("utf-8")


# every character the escapes treat specially, other control characters,
# then non-ASCII and astral ones
_XML_TEXT = st.text(st.one_of(
    st.sampled_from("\"'&<>\n\r\t"),
    st.characters(max_codepoint=0x1F),
    st.characters(min_codepoint=0x80, max_codepoint=0xFFFF),
    st.characters(min_codepoint=0x10000),
    st.characters(),
))


@settings(max_examples=500, deadline=None)
@given(_XML_TEXT)
@example("")
@example("\"")
@example("'")
@example("\"'")
@example("&amp; <&#10;>\r\n\t'\"")
def test_xml_escapes_equal_the_standard_library(text):
    assert exports._escape(text) == saxutils.escape(text)
    assert exports._quoteattr(text) == saxutils.quoteattr(text)


def test_matrix_and_assist_csv(tmp_path):
    values = np.array([[0.5, 0.0], [0.25, 1.0]])
    exports.write_matrix_csv(("c0", "c1"), ("a0", "a1"), values, tmp_path / "m.csv")
    lines = (tmp_path / "m.csv").read_text().splitlines()
    assert lines[0] == ",a0,a1"
    assert lines[1] == "c0,0.5,0.0"

    assist = AssistMatrix(
        tech_ids=("t0",), product_ids=("p0", "p1"),
        values=np.array([[0.75, 0.0]]),
    )
    exports.write_assist_csv(assist, tmp_path / "assist.csv")
    rows = list(csv.DictReader((tmp_path / "assist.csv").read_text().splitlines()))
    assert rows == [{"tech": "t0", "product": "p0", "value": "0.75"}]


def test_ranking_csv(tmp_path):
    ranking = ActivityRanking(ranks={"a": 1, "b": 2, "z": 3}, stripped=("z",))
    exports.write_ranking_csv(ranking, tmp_path / "ranks.csv")
    rows = list(csv.DictReader((tmp_path / "ranks.csv").read_text().splitlines()))
    assert [r["activity"] for r in rows] == ["a", "b", "z"]
    assert rows[2]["stripped"] == "1"


def test_subclass_degrees_group_by_leading_token():
    degrees = exports.tech_subclass_degrees(_network())
    assert degrees == {"Y02A": 1, "Y02E": 1}


_ODD_TECHS = ('Y02A "10"', "Y02E \\ 60", "Y02W \u00e930", "Y02C \u2603", "Y02P \U0001d11e 9")
_ODD_PRODUCTS = ("81\u00e90520", '28"22', "01\\01", "2801", "9")


def _profile_pairs(rng, sample_counts, layout):
    """Pairs over ids with quotes, backslashes and non-ASCII characters.
    Column 0 holds a cell at every tier and one below them all (the tiers
    are distinct once N >= 200); the other cells draw from counts whose
    fractions have long reprs (1/3, 0.1, 7/N).
    ``layout`` "single" keeps only product 0 connected at tier 95, "empty"
    none. Returns the pairs and their empirical matrices."""
    shape = (len(_ODD_TECHS), len(_ODD_PRODUCTS))
    pairs, empirical = [], []
    for k, n in enumerate(sample_counts):
        floor = tier_threshold("95", n)
        choices = [0, 1, min(7, n), n // 3, n, floor - 1, floor]
        choices += [tier_threshold(t, n) for t in TIER_ORDER]
        counts = rng.choice(choices, size=shape)
        counts[:4, 0] = [n, tier_threshold("99", n), floor, floor - 1]
        if layout == "single":
            counts[:, 1:] = np.minimum(counts[:, 1:], floor - 1)
        elif layout == "empty":
            counts = np.minimum(counts, floor - 1)
        empirical.append(rng.random(shape))
        pairs.append(PairValidation(
            tech_ids=_ODD_TECHS, product_ids=_ODD_PRODUCTS, exceed_counts=counts,
            n_samples=n, t1=2010 + k, t2=2012 + k,
        ))
    return pairs, empirical


@pytest.mark.parametrize(
    "sample_counts", [(3,), (10, 9), (7, 11, 13), (300,), (1000, 301), (313, 1000, 210)]
)
@pytest.mark.parametrize("layout", ["full", "single", "empty"])
def test_report_json_matches_direct_encoding(sample_counts, layout, tmp_path, monkeypatch):
    rng = np.random.default_rng(sum(sample_counts) + len(layout))
    pairs, empirical = _profile_pairs(rng, sample_counts, layout)
    net = intersect_pairs(pairs, "95", empirical)
    report = degree_report(net, load_hs_sections())
    subclass = exports.tech_subclass_degrees(net)
    meta = {"delta": 2, "samples": sample_counts[0], "seed": 7, "tier": "95",
            "label": "caf\u00e9 \"q\" \\"}
    path = tmp_path / "report.json"
    expected = reference_report_json(
        net, report, subclass, meta, TIER_ORDER, tier_threshold
    ).encode("utf-8")
    # the default block holds every product here; 1, 2 and 3 products per
    # block end blocks inside the product list and at its end
    for products_per_block in (None, 1, 2, 3):
        if products_per_block is not None:
            monkeypatch.setattr(
                exports, "_PROFILE_BLOCK_CELLS", products_per_block * len(_ODD_TECHS)
            )
        exports.write_report(net, report, meta, path)
        assert path.read_bytes() == expected, products_per_block

    profiles = json.loads(path.read_text(encoding="utf-8"))["significance_profiles"]
    connected = {"full": None, "single": [_ODD_PRODUCTS[0]], "empty": []}[layout]
    if connected is not None:
        assert list(profiles) == connected
    else:
        assert len(profiles) > 1
        tiers = {e["highest_tier"] for e in profiles[_ODD_PRODUCTS[0]]}
        assert tiers == ({None, *TIER_ORDER} if min(sample_counts) >= 200 else {None, "99.9"})


@pytest.mark.parametrize("width", [1, 2])
def test_profiles_are_computed_one_block_at_a_time(width, tmp_path, monkeypatch):
    pairs, empirical = _profile_pairs(np.random.default_rng(6), (1000, 301), "full")
    net = intersect_pairs(pairs, "95", empirical)
    connected = sorted(np.flatnonzero(net.mask.any(axis=0)).tolist(),
                       key=net.product_ids.__getitem__)
    assert len(connected) == 5  # with 2 per block, the last block is short
    monkeypatch.setattr(exports, "_PROFILE_BLOCK_CELLS", width * len(_ODD_TECHS) + 1)
    calls = []
    standing = exports._standing

    def spy(validations, index):
        calls.append(index)
        return standing(validations, index)

    monkeypatch.setattr(exports, "_standing", spy)
    exports.write_report(net, degree_report(net, {}), {}, tmp_path / "report.json")
    assert len(calls) == -(-len(connected) // width)
    for rows, cols in calls:
        assert rows == slice(None) and len(cols) <= width
    assert np.concatenate([cols for _, cols in calls]).tolist() == connected


def test_write_json_other_payloads_unchanged(tmp_path):
    payload = {"b": [1, (2, 3)], "a": {"x": 0.1, "\u00e9": None, "d": True}}
    exports.write_json(payload, tmp_path / "other.json")
    assert (tmp_path / "other.json").read_text(encoding="utf-8") == (
        '{\n  "a": {\n    "d": true,\n    "x": 0.1,\n    "\\u00e9": null\n  },\n'
        '  "b": [\n    1,\n    [\n      2,\n      3\n    ]\n  ]\n}\n'
    )
