"""Deterministic writers for network, ranking, and audit artifacts.

Every writer sorts its rows and formats floats through Python's float repr,
so identical inputs always produce byte-identical files. Nothing here embeds
timestamps or environment details.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Mapping, Optional, Sequence
from xml.sax.saxutils import escape, quoteattr

import numpy as np

from .assist import AssistMatrix
from .efc import ActivityRanking, LinkDifferenceCurve
from .validate import DegreeReport, ValidatedNetwork, product_chapter


def _fmt(value: float) -> str:
    return repr(float(value))


def write_matrix_csv(
    row_ids: Sequence[str], col_ids: Sequence[str], values: np.ndarray, path: str | Path
) -> None:
    """Dense matrix dump with row labels in the first column."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["", *col_ids])
        for i, row_id in enumerate(row_ids):
            writer.writerow([row_id, *(_fmt(v) for v in values[i])])


def write_assist_csv(assist: AssistMatrix, path: str | Path) -> None:
    """Nonzero contraction entries as (tech, product, value) rows."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tech", "product", "value"])
        for i, tech in enumerate(assist.tech_ids):
            for j, product in enumerate(assist.product_ids):
                v = assist.values[i, j]
                if v != 0:
                    writer.writerow([tech, product, _fmt(v)])


def write_edge_csv(net: ValidatedNetwork, path: str | Path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tech", "product", "weight", "p_value", "tier"])
        for tech, product, weight, p_value, tier in _edge_rows(net):
            writer.writerow([tech, product, _fmt(weight), _fmt(p_value), tier])


def _edge_rows(net: ValidatedNetwork):
    """(tech, product, weight, p_value, tier) per edge, in id order; the tier
    is the strongest one passed in every pair, at least the network's."""
    rows, cols, weights, p_values, tiers = net.edge_arrays()
    for i, j, weight, p_value, tier in zip(
        rows.tolist(), cols.tolist(), weights.tolist(), p_values.tolist(), tiers.tolist()
    ):
        yield net.tech_ids[i], net.product_ids[j], weight, p_value, tier or net.tier


def _tech_group(tech_id: str) -> str:
    """Grouping label for a technology node: the code's leading token."""
    return tech_id.split(" ")[0]


def write_graphml(
    net: ValidatedNetwork,
    path: str | Path,
    product_sections: Optional[Mapping[str, str]] = None,
) -> None:
    """Directed GraphML with layer/group/degree node data and weighted edges.

    Only nodes with at least one edge are emitted; disconnected axis entries
    would render as clutter in graph viewers.
    """
    sections = dict(product_sections) if product_sections else {}
    tech_degrees = net.tech_degrees()
    product_degrees = net.product_degrees()
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="layer" for="node" attr.name="layer" attr.type="string"/>',
        '  <key id="group" for="node" attr.name="group" attr.type="string"/>',
        '  <key id="degree" for="node" attr.name="degree" attr.type="int"/>',
        '  <key id="weight" for="edge" attr.name="weight" attr.type="double"/>',
        '  <key id="p_value" for="edge" attr.name="p_value" attr.type="double"/>',
        '  <key id="tier" for="edge" attr.name="tier" attr.type="string"/>',
        '  <graph id="G" edgedefault="directed">',
    ]

    def node(node_id: str, layer: str, group: str, degree: int) -> None:
        lines.append(f"    <node id={quoteattr(node_id)}>")
        lines.append(f'      <data key="layer">{escape(layer)}</data>')
        lines.append(f'      <data key="group">{escape(group)}</data>')
        lines.append(f'      <data key="degree">{degree}</data>')
        lines.append("    </node>")

    for tech in sorted(t for t, d in tech_degrees.items() if d > 0):
        node(f"t:{tech}", "technology", _tech_group(tech), tech_degrees[tech])
    for product in sorted(p for p, d in product_degrees.items() if d > 0):
        group = sections.get(product_chapter(product), product_chapter(product))
        node(f"p:{product}", "product", group, product_degrees[product])
    for tech, product, weight, p_value, tier in _edge_rows(net):
        lines.append(
            f"    <edge source={quoteattr('t:' + tech)} "
            f"target={quoteattr('p:' + product)}>"
        )
        lines.append(f'      <data key="weight">{_fmt(weight)}</data>')
        lines.append(f'      <data key="p_value">{_fmt(p_value)}</data>')
        lines.append(f'      <data key="tier">{escape(tier)}</data>')
        lines.append("    </edge>")
    lines.append("  </graph>")
    lines.append("</graphml>")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _json_ready(obj):
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def write_json(payload: dict, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(_json_ready(payload), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )


def degree_report_dict(report: DegreeReport) -> dict:
    return {
        "rows": [
            {
                "section": r.section,
                "chapters": r.chapters,
                "products_in_axis": r.products_in_axis,
                "nodes": r.nodes,
                "node_pct": r.node_pct,
                "edges": r.edges,
                "edge_pct": r.edge_pct,
            }
            for r in report.rows
        ],
        "total_nodes": report.total_nodes,
        "total_edges": report.total_edges,
        "unclassified_chapters": list(report.unclassified_chapters),
    }


def network_report(
    net: ValidatedNetwork,
    report: DegreeReport,
    profile: tuple[np.ndarray, np.ndarray],
    tech_subclass_degrees: Mapping[str, int],
    meta: Mapping[str, object],
) -> dict:
    """The report.json payload. ``profile`` holds the exceedance fraction and
    highest tier matrices over (tech, product), as ``significance_profile``
    gives them one product column at a time; only connected products are
    reported."""
    fractions, tiers = profile
    connected = sorted(
        (net.product_ids[j], j) for j in np.flatnonzero(net.mask.any(axis=0)).tolist()
    )
    return {
        "meta": dict(meta),
        "tier": net.tier,
        "lag": net.lag,
        "pairs": [list(p) for p in net.pairs],
        "edge_count": net.edge_count,
        "tech_nodes": sum(1 for d in net.tech_degrees().values() if d > 0),
        "product_nodes": sum(1 for d in net.product_degrees().values() if d > 0),
        "degree_report": degree_report_dict(report),
        "tech_subclass_degrees": dict(sorted(tech_subclass_degrees.items())),
        "significance_profiles": {
            product: [
                {"tech": tech, "exceed_fraction": fraction, "highest_tier": tier}
                for tech, fraction, tier in zip(
                    net.tech_ids, fractions[:, j].tolist(), tiers[:, j].tolist()
                )
            ]
            for product, j in connected
        },
    }


def tech_subclass_degrees(net: ValidatedNetwork) -> dict[str, int]:
    """Edge counts grouped by technology code prefix (leading token)."""
    groups: dict[str, int] = {}
    for tech, degree in net.tech_degrees().items():
        if degree > 0:
            group = _tech_group(tech)
            groups[group] = groups.get(group, 0) + degree
    return groups


def write_ranking_csv(ranking: ActivityRanking, path: str | Path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["activity", "rank", "stripped"])
        stripped = set(ranking.stripped)
        for activity in sorted(ranking.ranks, key=lambda a: (ranking.ranks[a], a)):
            writer.writerow(
                [activity, ranking.ranks[activity], int(activity in stripped)]
            )


def write_curve_csv(curve: LinkDifferenceCurve, path: str | Path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["position", "activity", "degree_base", "degree_lagged",
             "cumulative", "quartile"]
        )
        for point in curve.points:
            writer.writerow(
                [
                    point.position,
                    point.activity_id,
                    point.degree_base,
                    point.degree_lagged,
                    point.cumulative,
                    point.quartile_label or "",
                ]
            )

