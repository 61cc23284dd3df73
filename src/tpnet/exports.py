"""Deterministic writers for network, ranking, and audit artifacts.

Every writer sorts its rows and formats floats through Python's float repr,
so identical inputs always produce byte-identical files. Nothing here embeds
timestamps or environment details.
"""

from __future__ import annotations

import csv
import io
import json
import operator
from dataclasses import asdict
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .assist import AssistMatrix
from .efc import ActivityRanking, LinkDifferenceCurve
from .validate import (
    TIER_ORDER,
    DegreeReport,
    PairValidation,
    ValidatedNetwork,
    _standing,
    product_chapter,
)


# xml.sax.saxutils' rules, without its import of urllib, http, email and ssl:
# text escapes &, < and >; an attribute also turns \n, \r and \t into
# character references.
_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
_ATTR_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;",
                               "\n": "&#10;", "\r": "&#13;", "\t": "&#9;"})


def _escape(text: str) -> str:
    return text.translate(_TEXT_ESCAPES)


def _quoteattr(text: str) -> str:
    """``text`` escaped and quoted as an attribute value: in double quotes
    unless it holds one and no single quote, with each double quote turned
    into &quot; when it holds both."""
    text = text.translate(_ATTR_ESCAPES)
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A header line, then one line per row, as csv.writer writes them."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_matrix_csv(
    row_ids: Sequence[str], col_ids: Sequence[str], values: np.ndarray, path: str | Path
) -> None:
    """Dense matrix dump with row labels in the first column."""
    _write_csv(path, ["", *col_ids],
               ([row_id, *map(_fmt, values[i])] for i, row_id in enumerate(row_ids)))


def write_assist_csv(assist: AssistMatrix, path: str | Path) -> None:
    """Nonzero contraction entries as (tech, product, value) rows."""
    rows, cols = np.nonzero(assist.values)
    values = assist.values[rows, cols].tolist()
    _write_csv(path, ["tech", "product", "value"], (
        [assist.tech_ids[i], assist.product_ids[j], _fmt(v)]
        for i, j, v in zip(rows.tolist(), cols.tolist(), values)
    ))


class _CsvFields(dict):  # each text as csv.writer writes it inside a row, quoted once
    def __missing__(self, text: str) -> str:
        buffer = io.StringIO()
        csv.writer(buffer).writerow([text, ""])  # its own line end: it quotes "\r" and "\n"
        self[text] = field = buffer.getvalue()[:-3]  # drop ",\r\n"
        return field


def _tech_group(tech_id: str) -> str:
    """Grouping label for a technology node: the code's leading token."""
    return tech_id.split(" ")[0]


_GRAPHML_HEAD = """\
<?xml version="1.0" encoding="UTF-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="layer" for="node" attr.name="layer" attr.type="string"/>
  <key id="group" for="node" attr.name="group" attr.type="string"/>
  <key id="degree" for="node" attr.name="degree" attr.type="int"/>
  <key id="weight" for="edge" attr.name="weight" attr.type="double"/>
  <key id="p_value" for="edge" attr.name="p_value" attr.type="double"/>
  <key id="tier" for="edge" attr.name="tier" attr.type="string"/>
  <graph id="G" edgedefault="directed">
"""


def write_network(
    net: ValidatedNetwork,
    edge_path: str | Path,
    graphml_path: str | Path,
    product_sections: Mapping[str, str],
) -> None:
    """The network's edges in id order, as ``edge_path``'s CSV rows (tech,
    product, weight, p_value, tier) and as directed GraphML at
    ``graphml_path``, both written in one walk over ``net.edge_arrays()``.
    An edge's tier is the strongest one passed in every pair, at least the
    network's.

    GraphML nodes carry layer/group/degree data. A product's group is its
    chapter's section in ``product_sections``, else the chapter itself. Only
    nodes with at least one edge are emitted; disconnected axis entries
    would render as clutter in graph viewers.
    """
    tech_ids, product_ids, lowest = net.tech_ids, net.product_ids, net.tier
    tech_degrees = {t: d for t, d in net.tech_degrees().items() if d > 0}
    product_degrees = {p: d for p, d in net.product_degrees().items() if d > 0}
    # each connected id is quoted once, for its node and all of its edges
    tech_attrs = {t: _quoteattr(f"t:{t}") for t in tech_degrees}
    product_attrs = {p: _quoteattr(f"p:{p}") for p in product_degrees}
    quoted = _CsvFields()  # one f-string per edge, in the bytes csv.writer writes
    tier_text: dict[str, str] = {}
    p_text: dict[float, str] = {}  # at most N + 1 distinct p-values, each formatted once
    rows, cols, weights, p_values, tiers = net.edge_arrays()
    with (
        Path(edge_path).open("w", newline="", encoding="utf-8") as csv_fh,
        Path(graphml_path).open("w", encoding="utf-8") as xml_fh,
    ):
        csv_fh.write("tech,product,weight,p_value,tier\r\n")
        xml_fh.write(_GRAPHML_HEAD)

        def node(node_attr: str, layer: str, group: str, degree: int) -> None:
            xml_fh.write(
                f"    <node id={node_attr}>\n"
                f'      <data key="layer">{_escape(layer)}</data>\n'
                f'      <data key="group">{_escape(group)}</data>\n'
                f'      <data key="degree">{degree}</data>\n'
                "    </node>\n"
            )

        for tech in sorted(tech_degrees):
            node(tech_attrs[tech], "technology", _tech_group(tech), tech_degrees[tech])
        for product in sorted(product_degrees):
            group = product_sections.get(product_chapter(product), product_chapter(product))
            node(product_attrs[product], "product", group, product_degrees[product])
        for i, j, weight, p_value, tier in zip(
            rows.tolist(), cols.tolist(), weights.tolist(), p_values.tolist(), tiers.tolist()
        ):
            tech, product, tier = tech_ids[i], product_ids[j], tier or lowest
            if p_value not in p_text:
                p_text[p_value] = repr(p_value)
            if tier not in tier_text:
                tier_text[tier] = _escape(tier)
            weight, p_value = repr(weight), p_text[p_value]
            csv_fh.write(f"{quoted[tech]},{quoted[product]},{weight},{p_value},"
                         f"{quoted[tier]}\r\n")
            xml_fh.write(
                f"    <edge source={tech_attrs[tech]} target={product_attrs[product]}>\n"
                f'      <data key="weight">{weight}</data>\n'
                f'      <data key="p_value">{p_value}</data>\n'
                f'      <data key="tier">{tier_text[tier]}</data>\n'
                "    </edge>\n"
            )
        xml_fh.write("  </graph>\n</graphml>\n")


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_json(payload: dict, path: str | Path) -> None:
    """``payload``, JSON-native (string keys; no numpy scalars), as sorted,
    indent=2 JSON with one final newline: every JSON artifact's encoding."""
    Path(path).write_text(_json_text(payload), encoding="utf-8")


_PROFILES_KEY = '\n  "significance_profiles": '
# The JSON value of each tier level: null below every tier, then TIER_ORDER.
_TIER_JSON = ("null", *(json.dumps(t) for t in TIER_ORDER))
# Profile cells (technologies x products) computed and encoded at once.
_PROFILE_BLOCK_CELLS = 1 << 16


class _EntryHeads(dict):  # per fraction, an entry's head for each tier level, encoded once
    def __missing__(self, fraction: float) -> tuple[str, ...]:
        text = ('      {\n        "exceed_fraction": ' + json.dumps(fraction)
                + ',\n        "highest_tier": ')
        self[fraction] = heads = tuple(text + tier for tier in _TIER_JSON)
        return heads


def _profile_chunks(
    tech_ids: Sequence[str],
    products: Sequence[str],
    cols: np.ndarray,
    validations: Sequence[PairValidation],
):
    """The ``significance_profiles`` value as an indent=2 top-level member,
    one product per chunk. Products are taken in blocks of at most
    ``_PROFILE_BLOCK_CELLS`` cells. Each entry is a head encoded once per
    distinct (fraction, tier) plus a tail encoded once per technology."""
    if not products:
        yield "{}"
        return
    entry_heads = _EntryHeads()
    tails = [
        ',\n        "tech": ' + json.dumps(tech) + "\n      }"
        for tech in tech_ids
    ]
    width = max(1, _PROFILE_BLOCK_CELLS // len(tech_ids))
    opening = "{\n"
    for start in range(0, len(products), width):
        fractions, levels = _standing(validations, (slice(None), cols[start:start + width]))
        values, index = np.unique(fractions, return_inverse=True)
        heads = np.array(
            [head for value in values.tolist() for head in entry_heads[value]], dtype=object
        )
        cells = heads[index.reshape(levels.shape) * len(_TIER_JSON) + levels]
        for product, column in zip(products[start:start + width], cells.T.tolist()):
            yield (
                opening + "    " + json.dumps(product) + ": [\n"
                + ",\n".join(map(operator.add, column, tails)) + "\n    ]"
            )
            opening = ",\n"
    yield "\n  }"


def write_report(
    net: ValidatedNetwork, report: DegreeReport, meta: Mapping[str, object], path: str | Path
) -> None:
    """report.json: the network's summary, ``report`` and ``meta``, as sorted,
    indent=2 JSON. Only connected products are profiled, each as a list of
    {"tech", "exceed_fraction", "highest_tier"} entries in tech axis order,
    as ``significance_profile`` gives them. The profiles are computed from
    the pairs' exceedance counts and written one block of products at a
    time, in exactly the bytes their dict-of-lists form would encode to."""
    product_ids = net.product_ids
    cols = sorted(np.flatnonzero(net.mask.any(axis=0)).tolist(), key=product_ids.__getitem__)
    text = _json_text({
        "meta": dict(meta),
        "tier": net.tier,
        "lag": net.lag,
        "pairs": [list(p) for p in net.pairs],
        "edge_count": net.edge_count,
        "tech_nodes": sum(1 for d in net.tech_degrees().values() if d > 0),
        "product_nodes": sum(1 for d in net.product_degrees().values() if d > 0),
        "degree_report": asdict(report),
        "tech_subclass_degrees": dict(sorted(tech_subclass_degrees(net).items())),
        "significance_profiles": None,
    })
    # a raw newline cannot occur inside an encoded string, so this top-level
    # key line is found exactly once
    head, _, tail = text.partition(_PROFILES_KEY + "null")
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(head + _PROFILES_KEY)
        fh.writelines(_profile_chunks(
            net.tech_ids, [product_ids[j] for j in cols],
            np.array(cols, dtype=np.intp), net.validations,
        ))
        fh.write(tail)


def tech_subclass_degrees(net: ValidatedNetwork) -> dict[str, int]:
    """Edge counts grouped by technology code prefix (leading token)."""
    groups: dict[str, int] = {}
    for tech, degree in net.tech_degrees().items():
        if degree > 0:
            group = _tech_group(tech)
            groups[group] = groups.get(group, 0) + degree
    return groups


def write_ranking_csv(ranking: ActivityRanking, path: str | Path) -> None:
    ranks, stripped = ranking.ranks, set(ranking.stripped)
    _write_csv(path, ["activity", "rank", "stripped"], (
        [activity, ranks[activity], int(activity in stripped)]
        for activity in sorted(ranks, key=lambda a: (ranks[a], a))
    ))


def write_curve_csv(curve: LinkDifferenceCurve, path: str | Path) -> None:
    _write_csv(
        path,
        ["position", "activity", "degree_base", "degree_lagged", "cumulative", "quartile"],
        ([p.position, p.activity_id, p.degree_base, p.degree_lagged, p.cumulative,
          p.quartile_label or ""] for p in curve.points),
    )

