"""Independent reference implementations used as test oracles.

Everything here is written with plain loops, separately from the library's
vectorized paths, so a bug cannot hide in both at once.
"""

from __future__ import annotations

import itertools

import numpy as np


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


def reference_network(validations, tier, tier_order, tier_threshold):
    """Edges of the pairs intersected at ``tier``, one Python loop per cell:
    (tech, product, mean weight, largest p-value, highest tier) rows sorted by
    the id strings."""
    first = validations[0]
    n_samples = [v.n_samples for v in validations]
    rows = []
    for i, tech in enumerate(first.tech_ids):
        for j, product in enumerate(first.product_ids):
            counts = [int(v.exceed_counts[i, j]) for v in validations]
            if not all(c >= tier_threshold(tier, n) for c, n in zip(counts, n_samples)):
                continue
            weight = sum(float(v.empirical[i, j]) for v in validations) / len(validations)
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
