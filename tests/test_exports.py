"""Artifact writers: formats, determinism, and third-party readability."""

import csv

import numpy as np
import pytest

from tpnet import exports, load_hs_sections
from tpnet.assist import AssistMatrix
from tpnet.efc import ActivityRanking
from tpnet.validate import PairValidation, intersect_pairs


def _network():
    validation = PairValidation(
        tech_ids=("Y02A 10", "Y02E 60", "Y02W 30"),
        product_ids=("810520", "282200", "010101"),
        empirical=np.array([[0.4, 0.0, 0.0], [0.0, 0.2, 0.0], [0.0, 0.0, 0.0]]),
        exceed_counts=np.array([[9995, 0, 0], [0, 9600, 0], [0, 0, 0]]),
        n_samples=10000, t1=2012, t2=2012,
    )
    return intersect_pairs([validation], "95")


def test_edge_csv_format(tmp_path):
    path = tmp_path / "edges.csv"
    exports.write_edge_csv(_network(), path)
    rows = list(csv.DictReader(path.read_text().splitlines()))
    assert [r["tech"] for r in rows] == ["Y02A 10", "Y02E 60"]
    assert rows[0]["product"] == "810520"
    assert rows[0]["p_value"] == "0.0005"
    assert rows[0]["tier"] == "99.9"
    assert rows[1]["tier"] == "95"


def test_graphml_is_readable_by_networkx(tmp_path):
    networkx = pytest.importorskip("networkx")
    path = tmp_path / "net.graphml"
    exports.write_graphml(_network(), path, load_hs_sections())
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


def test_matrix_and_assist_csv(tmp_path):
    values = np.array([[0.5, 0.0], [0.25, 1.0]])
    exports.write_matrix_csv(("c0", "c1"), ("a0", "a1"), values, tmp_path / "m.csv")
    lines = (tmp_path / "m.csv").read_text().splitlines()
    assert lines[0] == ",a0,a1"
    assert lines[1] == "c0,0.5,0.0"

    assist = AssistMatrix(
        tech_ids=("t0",), product_ids=("p0", "p1"),
        values=np.array([[0.75, 0.0]]), common_country_ids=("A",),
    )
    exports.write_assist_csv(assist, tmp_path / "assist.csv")
    rows = list(csv.DictReader((tmp_path / "assist.csv").read_text().splitlines()))
    assert rows == [{"tech": "t0", "product": "p0", "value": "0.75"}]


def test_ranking_csv(tmp_path):
    ranking = ActivityRanking(
        kind="product", ranks={"a": 1, "b": 2, "z": 3}, stripped=("z",)
    )
    exports.write_ranking_csv(ranking, tmp_path / "ranks.csv")
    rows = list(csv.DictReader((tmp_path / "ranks.csv").read_text().splitlines()))
    assert [r["activity"] for r in rows] == ["a", "b", "z"]
    assert rows[2]["stripped"] == "1"


def test_subclass_degrees_group_by_leading_token():
    degrees = exports.tech_subclass_degrees(_network())
    assert degrees == {"Y02A": 1, "Y02E": 1}
