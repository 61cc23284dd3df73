"""Independent reference implementations used as test oracles.

Everything here is written separately from the library's vectorized paths,
mostly with plain loops, so a bug cannot hide in both at once.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction
from xml.sax.saxutils import escape, quoteattr

import numpy as np

from tpnet.nullmodel import _UNIT_BITS, _diversification_table
from tpnet.validate import product_chapter


def reference_panel(records):
    """(countries, activities, years, {year: matrix}) from long-format records:
    a per-key running sum in a dict, in input order, then one dense zero
    matrix per year filled cell by cell."""
    cells = {}
    for country, activity, year, value in records:
        key = (str(country), str(activity), int(str(year)))
        cells[key] = cells.get(key, 0.0) + float(value)
    countries = tuple(sorted({k[0] for k in cells}))
    activities = tuple(sorted({k[1] for k in cells}))
    years = tuple(sorted({k[2] for k in cells}))
    values = {year: np.zeros((len(countries), len(activities))) for year in years}
    for (country, activity, year), value in cells.items():
        values[year][countries.index(country), activities.index(activity)] = value
    return countries, activities, years, values


def decimal_kernel_takes(text: str) -> bool:
    """Whether ``panels._decimals`` may parse ``text``, decided in exact
    rational arithmetic: a plain decimal of at most 29 bytes, whose digits
    without leading zeros and the point form M < 10**19, with k <= 27 digits
    after the point, and whose M / 10**k, rounded to a 64-bit significand
    with ties to even, is not halfway between two float64s."""
    match = re.fullmatch(r"([0-9]*)(?:\.([0-9]*))?", text)
    if not match or not text.strip(".") or len(text) > 29:
        return False
    whole, fraction = match[1], match[2] or ""
    mantissa = int(whole + fraction)
    if mantissa >= 10**19 or len(fraction) > 27:
        return False
    if mantissa == 0:
        return True
    scaled = Fraction(mantissa, 10 ** len(fraction))
    while scaled >= 2**64:
        scaled /= 2
    while scaled < 2**63:
        scaled *= 2
    # a float64 keeps the top 53 of the 64 bits: halfway leaves 1 followed by ten 0s
    return round(scaled) % 2**11 != 2**10


def reference_rca(weights: np.ndarray) -> np.ndarray:
    """Entrywise specialization ratio: (cell/row total) / (col total/grand total)."""
    n_rows, n_cols = weights.shape
    total = weights.sum()
    out = np.zeros((n_rows, n_cols))
    for i in range(n_rows):
        row_total = weights[i].sum()
        if row_total == 0:
            continue
        for j in range(n_cols):
            col_total = weights[:, j].sum()
            if col_total == 0:
                continue
            out[i, j] = (weights[i, j] / row_total) / (col_total / total)
    return out


def reference_assist(tech: np.ndarray, prod: np.ndarray) -> np.ndarray:
    """Loop evaluation of the contraction with the same degeneracy rules."""
    n_countries, n_tech = tech.shape
    n_prod = prod.shape[1]
    d = prod.sum(axis=1)
    u = tech.sum(axis=0)
    out = np.zeros((n_tech, n_prod))
    for t in range(n_tech):
        if u[t] == 0:
            continue
        for p in range(n_prod):
            s = 0.0
            for c in range(n_countries):
                if tech[c, t] and prod[c, p] and d[c] > 0:
                    s += 1.0 / d[c]
            out[t, p] = s / u[t]
    return out


def reference_exceedance_counts(tech_model, prod_model, empirical, n, seed, stream_key=()):
    """Exceedance counts of the pair-validation loop, computed draw by draw:
    each layer's substream (seed, *stream_key, i, layer) drawn here with
    ``rng.random(shape) < p``, contracted with the float expression of the
    library's kernel on the same operand layout (transposed technology draw,
    product draw scaled by 1/d, then rows by 1/u), and compared strictly.

    Returns (counts, degree_sums) with degree_sums per layer (technology,
    product) as (row sums, column sums) over the n draws.
    """
    models = (tech_model, prod_model)
    counts = np.zeros(empirical.shape, dtype=np.int64)
    degree_sums = [
        (np.zeros(m.shape[0]), np.zeros(m.shape[1])) for m in models
    ]
    for i in range(n):
        tech, prod = (
            np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(*stream_key, i, layer))
            ).random(m.shape) < m.link_probabilities
            for layer, m in enumerate(models)
        )
        for draw, (row_sum, col_sum) in zip((tech, prod), degree_sums):
            row_sum += draw.sum(axis=1)
            col_sum += draw.sum(axis=0)
        d = prod.sum(axis=1, dtype=np.int64)
        u = tech.sum(axis=0, dtype=np.int64)
        inv_d = np.divide(1.0, d, out=np.zeros(d.shape), where=d > 0)
        values = tech.T.astype(np.float64) @ (prod * inv_d[:, None])
        values *= np.divide(1.0, u, out=np.zeros(u.shape), where=u > 0)[:, None]
        counts += empirical > values
    return counts, tuple(degree_sums)


def reference_class_counts(tech_model, prod_model, empirical, n, seed, stream_key=()):
    """Exceedance counts of the per-class pair-validation loop, computed draw
    by draw and cell by cell.

    Activities are grouped by their probability column as a tuple of floats,
    classes in sorted order. Draw i takes M uniforms (one per class-column
    link of both layers and one per country) from its own generator, the
    PCG64 of (seed, stream_key) built afresh and moved on with
    ``advance(i * M)``, in this order: the class columns of the technology
    and of the product layer with ``rng.random(shape) < p``, then one uniform
    per country. That uniform's top bits pick the country's count over the
    other members of its product classes from the library's diversification table (which
    ``test_diversification_table_is_the_exact_law`` checks against exact
    convolutions), one threshold at a time. The class columns are contracted
    with the float expression of the library's kernel on the same operand
    layout, with d the class columns' row sums plus those counts, and each
    cell is compared strictly with its class pair's null weight.

    Returns (counts, drift): drift per layer (technology, product) is the
    largest |z| over every drawn degree, each activity carrying its class
    column's sum and its own probabilities, and the product layer's
    countries their d; technology country degrees are not drawn.
    """
    layers = []
    for m in (tech_model, prod_model):
        columns = [tuple(col) for col in m.link_probabilities.T]
        classes = sorted(set(columns))
        layers.append((
            np.array(classes).T,
            [classes.index(col) for col in columns],
            np.array([columns.count(c) for c in classes]),
        ))
    (tech_p, tech_class, _), (prod_p, prod_class, prod_size) = layers
    counts = np.zeros(empirical.shape, dtype=np.int64)
    tech_cols, prod_cols = np.zeros(tech_p.shape[1]), np.zeros(prod_p.shape[1])
    prod_rows = np.zeros(prod_p.shape[0])
    first, table = _diversification_table(prod_p, prod_size - 1)
    m = tech_p.size + prod_p.size + prod_p.shape[0]
    for i in range(n):
        pcg = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=stream_key))
        pcg.advance(i * m)
        rng = np.random.Generator(pcg)
        tech = rng.random(tech_p.shape) < tech_p
        prod = rng.random(prod_p.shape) < prod_p
        bits = [int(u * 2**_UNIT_BITS) for u in rng.random(prod_p.shape[0])]
        diversification = [
            start + sum(1 for threshold in row if threshold <= b)
            for start, row, b in zip(first.tolist(), table.tolist(), bits)
        ]
        d = prod.sum(axis=1, dtype=np.int64) + np.array(diversification)
        u = tech.sum(axis=0, dtype=np.int64)
        tech_cols += u
        prod_cols += prod.sum(axis=0)
        prod_rows += d
        inv_d = np.divide(1.0, d, out=np.zeros(d.shape), where=d > 0)
        values = tech.T.astype(np.float64) @ (prod * inv_d[:, None])
        values *= np.divide(1.0, u, out=np.zeros(u.shape), where=u > 0)[:, None]
        for t, a in enumerate(tech_class):
            for p, b in enumerate(prod_class):
                counts[t, p] += empirical[t, p] > values[a, b]

    def worst(sums, probabilities):
        # node j's degree summed over the n draws against its links' p;
        # a node without variance scores 0
        z = 0.0
        for total, p in zip(sums, probabilities):
            var = sum(q * (1.0 - q) for q in p)
            if var > 0:
                z = max(z, abs(total / n - sum(p)) / math.sqrt(var / n))
        return z

    tech_all, prod_all = tech_model.link_probabilities, prod_model.link_probabilities
    drift = (
        worst([tech_cols[a] for a in tech_class], tech_all.T),
        max(worst(prod_rows, prod_all), worst([prod_cols[b] for b in prod_class], prod_all.T)),
    )
    return counts, drift


def exact_diversification_law(q, extra):
    """{value: probability} of sum_k Binomial(extra[k], q[k]) as exact
    fractions. Each float q is a / b with b a power of two, so each
    binomial's PMF is integers over b**trials; the convolution runs on those
    integer numerators, term by term, over one growing denominator."""
    law, denominator = {0: 1}, 1
    for p, trials in zip(q, extra):
        a, b = float(p).as_integer_ratio()
        term = [math.comb(trials, r) * a**r * (b - a) ** (trials - r) for r in range(trials + 1)]
        convolved = {}
        for value, weight in law.items():
            for r, w in enumerate(term):
                if w:
                    convolved[value + r] = convolved.get(value + r, 0) + weight * w
        law, denominator = convolved, denominator * b**trials
    return {value: Fraction(weight, denominator) for value, weight in law.items()}


def _all_configs(prob: np.ndarray):
    """Every binary matrix of prob's shape with its Bernoulli probability."""
    n_rows, n_cols = prob.shape
    for bits in itertools.product((0, 1), repeat=n_rows * n_cols):
        m = np.array(bits, dtype=np.int8).reshape(n_rows, n_cols)
        weight = float(np.prod(np.where(m, prob, 1.0 - prob)))
        yield m, weight


def enumerate_exceedance(
    tech_prob: np.ndarray, prod_prob: np.ndarray, empirical: np.ndarray
) -> np.ndarray:
    """Exact per-link probability that the empirical weight strictly exceeds
    a null contraction of two independent Bernoulli layer draws."""
    prod_configs = list(_all_configs(prod_prob))
    q = np.zeros(empirical.shape)
    for tech_m, tech_w in _all_configs(tech_prob):
        if tech_w == 0.0:
            continue
        for prod_m, prod_w in prod_configs:
            weight = tech_w * prod_w
            if weight == 0.0:
                continue
            q += weight * (empirical > reference_assist(tech_m, prod_m))
    return q


def reference_fitness_complexity(
    m: np.ndarray, n_iterations: int
) -> tuple[np.ndarray, np.ndarray]:
    """Plain-loop fitness/complexity iteration from flat starts."""
    n_countries, n_activities = m.shape
    fitness = [1.0] * n_countries
    complexity = [1.0] * n_activities
    for _ in range(n_iterations):
        raw_f = [
            sum(m[c, a] * complexity[a] for a in range(n_activities))
            for c in range(n_countries)
        ]
        raw_q = [
            1.0 / sum(m[c, a] / fitness[c] for c in range(n_countries))
            for a in range(n_activities)
        ]
        mean_f = sum(raw_f) / n_countries
        mean_q = sum(raw_q) / n_activities
        fitness = [v / mean_f for v in raw_f]
        complexity = [v / mean_q for v in raw_q]
    return np.array(fitness), np.array(complexity)


def _reference_highest_tier(counts, n_samples, tier_order, tier_threshold):
    """Strongest tier whose threshold every pair's count reaches, or None."""
    highest = None
    for tier in tier_order:
        if all(c >= tier_threshold(tier, n) for c, n in zip(counts, n_samples)):
            highest = tier
    return highest


def reference_network(validations, empirical, tier, tier_order, tier_threshold):
    """Edges of the pairs intersected at ``tier``, one Python loop per cell:
    (tech, product, mean weight over the pairs' ``empirical`` matrices,
    largest p-value, highest tier) rows sorted by the id strings."""
    first = validations[0]
    n_samples = [v.n_samples for v in validations]
    rows = []
    for i, tech in enumerate(first.tech_ids):
        for j, product in enumerate(first.product_ids):
            counts = [int(v.exceed_counts[i, j]) for v in validations]
            if not all(c >= tier_threshold(tier, n) for c, n in zip(counts, n_samples)):
                continue
            weight = sum(float(e[i, j]) for e in empirical) / len(empirical)
            p_value = max((n - c) / n for c, n in zip(counts, n_samples))
            highest = _reference_highest_tier(counts, n_samples, tier_order, tier_threshold)
            rows.append((tech, product, weight, p_value, highest))
    return sorted(rows, key=lambda row: (row[0], row[1]))


def reference_profile(product_id, validations, tier_order, tier_threshold):
    """(tech, smallest exceedance fraction, highest tier) for every technology
    against one product, in axis order."""
    first = validations[0]
    j = first.product_ids.index(product_id)
    n_samples = [v.n_samples for v in validations]
    entries = []
    for i, tech in enumerate(first.tech_ids):
        counts = [int(v.exceed_counts[i, j]) for v in validations]
        fraction = min(c / n for c, n in zip(counts, n_samples))
        highest = _reference_highest_tier(counts, n_samples, tier_order, tier_threshold)
        entries.append((tech, fraction, highest))
    return entries


def _reference_json_ready(obj):
    if isinstance(obj, dict):
        return {str(k): _reference_json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_json_ready(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def reference_report_json(
    net, report, tech_subclass_degrees, meta, tier_order, tier_threshold
):
    """report.json text encoded the direct way: one dict per technology per
    connected product, from ``reference_profile``, then the standard
    library's sorted indent=2 dump."""
    connected = sorted(
        net.product_ids[j] for j in range(len(net.product_ids)) if net.mask[:, j].any()
    )
    payload = {
        "meta": dict(meta),
        "tier": net.tier,
        "lag": net.lag,
        "pairs": [list(p) for p in net.pairs],
        "edge_count": net.edge_count,
        "tech_nodes": sum(1 for d in net.tech_degrees().values() if d > 0),
        "product_nodes": sum(1 for d in net.product_degrees().values() if d > 0),
        "degree_report": {
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
        },
        "tech_subclass_degrees": dict(sorted(tech_subclass_degrees.items())),
        "significance_profiles": {
            product: [
                {"tech": tech, "exceed_fraction": fraction, "highest_tier": highest}
                for tech, fraction, highest in reference_profile(
                    product, net.validations, tier_order, tier_threshold
                )
            ]
            for product in connected
        },
    }
    return json.dumps(_reference_json_ready(payload), sort_keys=True, indent=2) + "\n"


def reference_graphml(net, product_sections):
    """GraphML text built the direct way: every line in a list, each id quoted
    and each tier escaped where it is written, joined once at the end."""
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

    def node(node_id, layer, group, degree):
        lines.append(f"    <node id={quoteattr(node_id)}>")
        lines.append(f'      <data key="layer">{escape(layer)}</data>')
        lines.append(f'      <data key="group">{escape(group)}</data>')
        lines.append(f'      <data key="degree">{degree}</data>')
        lines.append("    </node>")

    for tech in sorted(t for t, d in tech_degrees.items() if d > 0):
        node(f"t:{tech}", "technology", tech.split(" ")[0], tech_degrees[tech])
    for product in sorted(p for p, d in product_degrees.items() if d > 0):
        group = product_sections.get(product_chapter(product), product_chapter(product))
        node(f"p:{product}", "product", group, product_degrees[product])
    rows, cols, weights, p_values, tiers = net.edge_arrays()
    for i, j, weight, p_value, tier in zip(rows, cols, weights, p_values, tiers):
        lines.append(
            f"    <edge source={quoteattr('t:' + net.tech_ids[i])} "
            f"target={quoteattr('p:' + net.product_ids[j])}>"
        )
        lines.append(f'      <data key="weight">{float(weight)!r}</data>')
        lines.append(f'      <data key="p_value">{float(p_value)!r}</data>')
        lines.append(f'      <data key="tier">{escape(tier or net.tier)}</data>')
        lines.append("    </edge>")
    lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"
