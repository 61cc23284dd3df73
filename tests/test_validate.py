"""Exceedance counting, tiers, pair intersection, and reporting."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpnet import (
    AxisMismatchError,
    compute_assist,
    compute_pvalues,
    degree_report,
    fit_bicm,
    intersect_pairs,
    load_hs_sections,
    null_assist_ensemble,
    significance_profile,
    tier_threshold,
)
from tpnet.assist import AssistMatrix
from tpnet.rca import BinaryMatrix
from tpnet import exports
from tpnet.validate import TIER_ORDER, PairValidation

from .oracles import reference_network, reference_profile


def _assist(values, techs=None, prods=None, t1=2012, t2=2012):
    values = np.asarray(values, dtype=float)
    techs = techs or tuple(f"t{i}" for i in range(values.shape[0]))
    prods = prods or tuple(f"{10 + j} p" for j in range(values.shape[1]))
    return AssistMatrix(
        tech_ids=techs, product_ids=prods, values=values,
        common_country_ids=("A", "B"), t1=t1, t2=t2,
    )


def _validation(counts, n, techs=None, prods=None, t1=2012, t2=2012, empirical=None):
    counts = np.asarray(counts, dtype=int)
    if empirical is None:
        empirical = np.ones(counts.shape)
    techs = techs or tuple(f"t{i}" for i in range(counts.shape[0]))
    prods = prods or tuple(f"{10 + j} p" for j in range(counts.shape[1]))
    return PairValidation(
        tech_ids=techs, product_ids=prods, empirical=np.asarray(empirical, float),
        exceed_counts=counts, n_samples=n, t1=t1, t2=t2,
    )


def test_tier_thresholds_integer_arithmetic():
    assert tier_threshold("95", 10000) == 9500
    assert tier_threshold("99", 10000) == 9900
    assert tier_threshold("99.9", 10000) == 9990
    assert tier_threshold("90", 10000) == 9000
    assert tier_threshold("95", 999) == 950  # ceil(949.05)
    assert tier_threshold("99.9", 1000) == 999
    with pytest.raises(ValueError):
        tier_threshold("97", 100)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=10**6))
def test_tier_thresholds_nest_for_any_sample_count(n):
    assert tier_threshold("90", n) <= tier_threshold("95", n)
    assert tier_threshold("95", n) <= tier_threshold("99", n)
    assert tier_threshold("99", n) <= tier_threshold("99.9", n) <= n


def test_boundary_count_passes_95_fails_99():
    v = _validation([[9500]], 10000)
    link = v.link("t0", "10 p")
    assert link.passes("95") and not link.passes("99")
    assert link.p_value == 0.05


def test_link_names_an_unknown_id():
    v = _validation([[1]], 10)
    with pytest.raises(AxisMismatchError, match="'nope'"):
        v.link("nope", "10 p")
    with pytest.raises(AxisMismatchError, match="'zz'"):
        v.link("t0", "zz")


def test_zero_empirical_weight_is_never_significant():
    tech = BinaryMatrix("technology", ("A", "B"), ("t0",), [[1], [1]])
    prod = BinaryMatrix("product", ("A", "B"), ("p0", "p1"), [[1, 0], [1, 0]])
    empirical = compute_assist(tech, prod)
    assert empirical.values[0, 1] == 0.0
    nulls = null_assist_ensemble(fit_bicm(tech), fit_bicm(prod), 300, seed=4)
    validation = compute_pvalues(empirical, nulls)
    assert validation.exceed_counts[0, 1] == 0
    link = validation.link("t0", empirical.product_ids[1])
    assert not link.passes("95")


def test_all_tied_nulls_give_zero_exceedance():
    # fully pinned model: every null draw equals the empirical contraction
    tech = BinaryMatrix("technology", ("A", "B"), ("t0",), [[1], [0]])
    prod = BinaryMatrix("product", ("A", "B"), ("p0", "p1"), [[1, 1], [1, 0]])
    empirical = compute_assist(tech, prod)
    nulls = null_assist_ensemble(fit_bicm(tech), fit_bicm(prod), 100, seed=1)
    validation = compute_pvalues(empirical, nulls)
    assert (validation.exceed_counts == 0).all()
    assert (validation.p_values == 1.0).all()


def test_exceedance_fractions_consistent_across_seeds():
    # independent seeds may only disagree within the binomial noise floor
    tech = BinaryMatrix("technology", ("A", "B", "C"), ("t0", "t1"),
                        [[1, 0], [0, 1], [1, 1]])
    prod = BinaryMatrix("product", ("A", "B", "C"), ("p0", "p1", "p2"),
                        [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    empirical = compute_assist(tech, prod)
    tech_model, prod_model = fit_bicm(tech), fit_bicm(prod)
    n = 4000
    fractions = []
    for seed in (71, 72):
        v = compute_pvalues(
            empirical, null_assist_ensemble(tech_model, prod_model, n, seed=seed)
        )
        fractions.append(v.exceed_counts / n)
    assert np.abs(fractions[0] - fractions[1]).max() < 3 * np.sqrt(0.25 / n)


def test_compute_pvalues_rejects_axis_mismatch():
    empirical = _assist([[1.0]])
    bad = _assist([[1.0]], techs=("other",))
    with pytest.raises(AxisMismatchError):
        compute_pvalues(empirical, iter([bad]))


def test_intersect_single_pair_is_that_pair():
    v = _validation([[9600, 100], [9991, 9985]], 10000)
    net = intersect_pairs([v], "95")
    assert net.edge_set() == {("t0", "10 p"), ("t1", "10 p"), ("t1", "11 p")}
    assert net.lag == 0
    assert net.pairs == ((2012, 2012),)


def test_intersection_of_two_pairs():
    a = _validation([[9600, 9600, 0]], 10000, t1=2012, t2=2012)
    b = _validation([[0, 9600, 9600]], 10000, t1=2017, t2=2017)
    net = intersect_pairs([a, b], "95")
    assert net.edge_set() == {("t0", "11 p")}
    assert net.pairs == ((2012, 2012), (2017, 2017))


def test_tier_monotonicity_on_random_instances():
    rng = np.random.default_rng(44)
    for _ in range(40):
        counts = rng.integers(0, 10001, size=(3, 4))
        v = _validation(counts, 10000)
        e999 = intersect_pairs([v], "99.9").edge_set()
        e99 = intersect_pairs([v], "99").edge_set()
        e95 = intersect_pairs([v], "95").edge_set()
        assert e999 <= e99 <= e95


def test_intersection_shrinks_with_more_pairs():
    rng = np.random.default_rng(45)
    for _ in range(20):
        pairs = [_validation(rng.integers(0, 10001, size=(3, 4)), 10000) for _ in range(4)]
        previous = None
        for k in range(1, 5):
            edges = intersect_pairs(pairs[:k], "95").edge_set()
            if previous is not None:
                assert edges <= previous
            previous = edges


def test_edge_aggregates_weight_and_pvalue():
    a = _validation([[9700]], 10000, empirical=[[0.4]])
    b = _validation([[9600]], 10000, empirical=[[0.6]], t1=2017, t2=2017)
    net = intersect_pairs([a, b], "95")
    _, _, weight, p_value, highest_tier = net.edge_arrays()
    assert weight[0] == pytest.approx(0.5)
    assert p_value[0] == pytest.approx(0.04)
    assert highest_tier[0] == "95"


def _network(edges, techs, prods, tier="95"):
    counts = np.zeros((len(techs), len(prods)), dtype=int)
    for tech, prod in edges:
        counts[techs.index(tech), prods.index(prod)] = 9999
    validation = _validation(counts, 10000, techs, prods, empirical=(counts > 0) * 1.0)
    return intersect_pairs([validation], tier)


def test_degree_report_empty_network():
    net = _network([], ("t0",), ("01 x", "02 y"))
    report = degree_report(net, load_hs_sections())
    assert report.total_nodes == 0 and report.total_edges == 0
    assert all(r.nodes == 0 and r.edges == 0 for r in report.rows)


def test_degree_report_counts_sections():
    net = _network(
        [("t0", "010101"), ("t1", "010101"), ("t0", "020202"), ("t0", "280101")],
        ("t0", "t1"),
        ("010101", "020202", "280101", "390000"),
    )
    report = degree_report(net, load_hs_sections())
    by_name = {r.section: r for r in report.rows}
    animal = by_name["Animal & animal products"]
    assert animal.nodes == 2 and animal.edges == 3
    chem = by_name["Chemicals & allied industries"]
    assert chem.nodes == 1 and chem.edges == 1
    assert report.total_nodes == 3 and report.total_edges == 4
    assert animal.edge_pct == pytest.approx(75.0)
    assert not report.flagged


def test_degree_report_flags_unmapped_chapters():
    net = _network([("t0", "ZZ123")], ("t0",), ("ZZ123",))
    report = degree_report(net, load_hs_sections())
    assert report.flagged
    assert report.unclassified_chapters == ("ZZ",)
    assert report.rows[-1].section == "Unclassified"


def test_bundled_sections_cover_all_chapters():
    sections = load_hs_sections()
    assert len(sections) == 97
    assert sections["27"] == "Mineral products"
    assert sections["81"] == "Metals"
    assert len(set(sections.values())) == 21


def test_significance_profile_zero_row_product():
    v = _validation([[0], [0]], 1000, empirical=[[0.0], [0.0]])
    profile = significance_profile("10 p", [v])
    assert all(entry.highest_tier is None for entry in profile)
    assert all(entry.exceed_fraction == 0.0 for entry in profile)


def test_significance_profile_tier_chain():
    v = _validation([[9995], [9600]], 10000)
    profile = significance_profile("10 p", [v])
    by_tech = {e.tech_id: e for e in profile}
    assert by_tech["t0"].highest_tier == "99.9"
    assert by_tech["t1"].highest_tier == "95"
    link = v.link("t0", "10 p")
    assert link.tiers == {"95": True, "99": True, "99.9": True}
    # a bare pair, not a list, with the weakest standing below every tier
    bare = PairValidation(
        tech_ids=("t0", "t1"), product_ids=("p0",),
        empirical=np.array([[0.3], [0.0]]),
        exceed_counts=np.array([[9991], [0]]), n_samples=10000,
    )
    assert [e.highest_tier for e in significance_profile("p0", bare)] == ["99.9", None]


def test_significance_profile_multiple_pairs_takes_binding_tier():
    a = _validation([[9995]], 10000)
    b = _validation([[9905]], 10000, t1=2017, t2=2017)
    profile = significance_profile("10 p", [a, b])
    assert profile[0].highest_tier == "99"
    assert profile[0].exceed_fraction == pytest.approx(0.9905)


def test_significance_profile_unknown_product():
    v = _validation([[1]], 10)
    with pytest.raises(AxisMismatchError):
        significance_profile("nope", [v])


def _oracle_pairs(rng, n_pairs, empty=False):
    """Pairs on shuffled id axes (mixed id lengths, so string order is not
    axis or numeric order), a different N per pair, counts at and around
    every tier threshold."""
    techs = [f"Y02{c} {k}" for c in "AEW" for k in (1, 10, 3)]
    prods = [str(k) for k in (9, 10, 100, 2, 20, 200, 281, 28, 3)]
    techs = tuple(rng.permutation(techs).tolist())
    prods = tuple(rng.permutation(prods).tolist())
    pairs = []
    for k in range(n_pairs):
        n = int(rng.integers(20, 2001))
        choices = [0, n // 2, n]
        for tier in ("90", *TIER_ORDER):
            t = tier_threshold(tier, n)
            choices += [t - 1, t]
        counts = rng.choice(choices, size=(len(techs), len(prods)))
        if empty:
            counts = np.minimum(counts, tier_threshold("90", n) - 1)
        pairs.append(PairValidation(
            tech_ids=techs, product_ids=prods,
            empirical=rng.random((len(techs), len(prods))),
            exceed_counts=counts, n_samples=n, t1=2010 + k, t2=2012 + k,
        ))
    return pairs


@pytest.mark.parametrize("n_pairs", [1, 2, 3, 4])
@pytest.mark.parametrize("empty", [False, True])
def test_network_matches_loop_oracle(n_pairs, empty, tmp_path):
    rng = np.random.default_rng(1000 + 10 * n_pairs + empty)
    for _ in range(5):
        pairs = _oracle_pairs(rng, n_pairs, empty)
        for tier in ("90", *TIER_ORDER):
            expected = reference_network(pairs, tier, TIER_ORDER, tier_threshold)
            net = intersect_pairs(pairs, tier)
            rows, cols, weight, p_value, highest = net.edge_arrays()
            got = [
                (net.tech_ids[i], net.product_ids[j], w, p, h)
                for i, j, w, p, h in zip(
                    rows.tolist(), cols.tolist(), weight.tolist(),
                    p_value.tolist(), highest.tolist(),
                )
            ]
            assert repr(got) == repr(expected)
            assert not (empty and expected)
            assert net.edge_count == len(expected)
            assert net.edge_set() == {(t, p) for t, p, *_ in expected}
            assert sum(net.tech_degrees().values()) == len(expected)
            assert net.lag == 2 and len(net.pairs) == n_pairs

            path = tmp_path / "edges.csv"
            exports.write_edge_csv(net, path)
            with path.open(newline="") as fh:
                written = list(csv.reader(fh))
            assert written == [["tech", "product", "weight", "p_value", "tier"]] + [
                [t, p, repr(w), repr(pv), h or tier] for t, p, w, pv, h in expected
            ]
        for product in pairs[0].product_ids:
            profile = significance_profile(product, pairs)
            assert [(e.tech_id, e.exceed_fraction, e.highest_tier) for e in profile] == (
                reference_profile(product, pairs, TIER_ORDER, tier_threshold)
            )
