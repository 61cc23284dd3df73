"""Exceedance counting, tiers, pair intersection, and reporting."""

import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpnet import (
    AxisMismatchError,
    compute_assist,
    degree_report,
    fit_bicm,
    intersect_pairs,
    load_hs_sections,
    significance_profile,
    tier_threshold,
)
from tpnet.nullmodel import null_exceedance_counts
from tpnet.rca import BinaryMatrix
from tpnet import exports
from tpnet.validate import TIER_ORDER, PairValidation, ValidatedNetwork, _chapter_ranges

from .oracles import reference_network, reference_profile


def _null_validation(empirical, tech, prod, n, seed):
    """The pair's counts from the pipeline's null loop."""
    counts, _ = null_exceedance_counts(
        fit_bicm(tech), fit_bicm(prod), empirical.values, n, seed
    )
    return PairValidation(
        tech_ids=empirical.tech_ids, product_ids=empirical.product_ids,
        exceed_counts=counts, n_samples=n, t1=2012, t2=2012,
    )


def _validation(counts, n, techs=None, prods=None, t1=2012, t2=2012):
    counts = np.asarray(counts, dtype=int)
    techs = techs or tuple(f"t{i}" for i in range(counts.shape[0]))
    prods = prods or tuple(f"{10 + j} p" for j in range(counts.shape[1]))
    return PairValidation(
        tech_ids=techs, product_ids=prods, exceed_counts=counts, n_samples=n, t1=t1, t2=t2,
    )


def _ones(pairs):
    """An empirical matrix of ones for each pair, for tests of the mask alone."""
    return [np.ones(v.exceed_counts.shape) for v in pairs]


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
    assert v.tier_mask("95")[0, 0] and not v.tier_mask("99")[0, 0]
    assert (v.n_samples - v.exceed_counts[0, 0]) / v.n_samples == 0.05


def test_fewer_than_one_sample_is_rejected():
    # with N = 0 every threshold is 0, so a count of 0 would pass 99.9 with a
    # p-value of 0/0
    with pytest.raises(ValueError, match="n_samples must be >= 1, got 0"):
        _validation([[0]], 0)


def test_zero_empirical_weight_is_never_significant():
    tech = BinaryMatrix(("A", "B"), ("t0",), [[1], [1]])
    prod = BinaryMatrix(("A", "B"), ("p0", "p1"), [[1, 0], [1, 0]])
    empirical = compute_assist(tech, prod)
    assert empirical.values[0, 1] == 0.0
    validation = _null_validation(empirical, tech, prod, 300, seed=4)
    assert validation.exceed_counts[0, 1] == 0
    assert not validation.tier_mask("95")[0, 1]


def test_all_tied_nulls_give_zero_exceedance():
    # fully pinned model: every null draw equals the empirical contraction
    tech = BinaryMatrix(("A", "B"), ("t0",), [[1], [0]])
    prod = BinaryMatrix(("A", "B"), ("p0", "p1"), [[1, 1], [1, 0]])
    empirical = compute_assist(tech, prod)
    validation = _null_validation(empirical, tech, prod, 100, seed=1)
    assert (validation.exceed_counts == 0).all()
    p_values = (validation.n_samples - validation.exceed_counts) / validation.n_samples
    assert (p_values == 1.0).all()


def test_exceedance_fractions_consistent_across_seeds():
    # independent seeds may only disagree within the binomial noise floor
    tech = BinaryMatrix(("A", "B", "C"), ("t0", "t1"),
                        [[1, 0], [0, 1], [1, 1]])
    prod = BinaryMatrix(("A", "B", "C"), ("p0", "p1", "p2"),
                        [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    empirical = compute_assist(tech, prod)
    n = 4000
    fractions = []
    for seed in (71, 72):
        v = _null_validation(empirical, tech, prod, n, seed=seed)
        fractions.append(v.exceed_counts / n)
    assert np.abs(fractions[0] - fractions[1]).max() < 3 * np.sqrt(0.25 / n)


def test_intersect_single_pair_is_that_pair():
    v = _validation([[9600, 100], [9991, 9985]], 10000)
    net = intersect_pairs([v], "95", _ones([v]))
    assert net.edge_set() == {("t0", "10 p"), ("t1", "10 p"), ("t1", "11 p")}
    assert net.lag == 0
    assert net.pairs == ((2012, 2012),)


def test_intersect_pairs_needs_pairs_on_one_pair_of_axes():
    with pytest.raises(ValueError, match="need at least one validated pair"):
        intersect_pairs([], "95", [])
    a = _validation([[9999]], 10000)
    b = _validation([[9999]], 10000, techs=("other",))
    with pytest.raises(AxisMismatchError, match="validated pairs do not share axes"):
        intersect_pairs([a, b], "95", _ones([a, b]))


def test_intersect_pairs_takes_one_matrix_per_pair_on_its_axes():
    a = _validation([[9999, 0]], 10000)
    b = _validation([[9999, 9999]], 10000, t1=2017, t2=2017)
    with pytest.raises(ValueError, match="2 pairs but 1 empirical matrices"):
        intersect_pairs([a, b], "95", _ones([a]))
    with pytest.raises(AxisMismatchError, match="empirical matrices do not match"):
        intersect_pairs([a, b], "95", [np.ones((1, 2)), np.ones((2, 1))])
    net = intersect_pairs([a, b], "95", [[[0.25, 7.0]], [[0.5, 9.0]]])
    assert net.weights.tolist() == [0.375]


def test_pair_validation_checks_shapes_and_count_range():
    with pytest.raises(AxisMismatchError, match="validation matrices do not match axes"):
        PairValidation(("t0",), ("10 p",), np.zeros((1, 2), int), 10, 2012, 2012)
    for count in (-1, 11):
        with pytest.raises(ValueError, match=re.escape("exceedance counts must lie in [0, n_samples]")):
            PairValidation(("t0",), ("10 p",), np.full((1, 1), count), 10, 2012, 2012)
    with pytest.raises(ValueError, match="n_samples must be <= 2147483647, got 2147483648"):
        PairValidation(("t0",), ("10 p",), np.zeros((1, 1), int), 2**31, 2012, 2012)


@pytest.mark.parametrize("counts, dtype", [
    ([[9600.7]], "float64"),  # once truncated to 9600, which passes tier 95
    (np.ones((1, 1), bool), "bool"),  # once read as a count of 1
])
def test_pair_validation_refuses_counts_that_are_not_integers(counts, dtype):
    with pytest.raises(ValueError, match=f"exceedance counts must be integers, got dtype {dtype}"):
        PairValidation(("t",), ("10 p",), counts, 10000, 2012, 2012)
    for ints in ([[9600]], np.full((1, 1), 9600, np.uint16)):
        v = PairValidation(("t",), ("10 p",), ints, 10000, 2012, 2012)
        assert v.exceed_counts.dtype == np.uint16 and v.tier_mask("95")[0, 0]
        assert v.exceed_counts.tolist() == [[9600]]


# N on both sides of the switch from uint16 to uint32 counts
_NARROW_COUNTS = ((10_000, np.uint16), (65_535, np.uint16), (65_536, np.uint32))


@pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32])
def test_counts_keep_their_dtype_and_values(dtype, tmp_path):
    # whatever dtype they come in, counts are held in the narrowest unsigned
    # dtype of at least 16 bits that holds n, with their values; int8 cannot
    # even hold a tier's threshold, and at n = 65,535 a uint16 n - counts sits
    # at the edge of wrapping
    for n, narrow in _NARROW_COUNTS:
        _check_narrowed_counts(dtype, n, narrow, tmp_path)


def _check_narrowed_counts(dtype, n, narrow, tmp_path):
    high = np.iinfo(dtype).max
    thresholds = [tier_threshold(t, n) for t in ("90", *TIER_ORDER)]
    choices = [c for c in (0, 1, 7, 127, 3333, *thresholds, n - 1, n) if c <= high]
    rng = np.random.default_rng(high % 1000 + n)
    tech_ids, product_ids = ("Y02A 1", "Y02E 2", "Y02W 3"), ("01 a", "28 b", "85 c", "72 d")
    shape = (len(tech_ids), len(product_ids))
    empirical, counts = rng.random((2, *shape)), rng.choice(choices, (2, *shape))
    pairs = {
        d: [PairValidation(tech_ids, product_ids, c.astype(d), n, t, t)
            for t, c in zip((2012, 2017), counts)]
        for d in (dtype, np.int64)
    }
    for ps in pairs.values():
        assert {v.exceed_counts.dtype for v in ps} == {np.dtype(narrow)}
        assert all(np.array_equal(v.exceed_counts, c) for v, c in zip(ps, counts))
    everything = np.ones(shape, dtype=bool)
    weights = sum(e[everything] for e in empirical) / 2
    arrays = {d: ValidatedNetwork("95", tuple(ps), everything, weights).edge_arrays()
              for d, ps in pairs.items()}
    for got, want in zip(arrays[dtype], arrays[np.int64]):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    rows, cols, _, p_value, _ = arrays[dtype]
    assert p_value.tolist() == [
        max((n - int(c[i, j])) / n for c in counts) for i, j in zip(rows, cols)
    ]
    for tier in ("90", *TIER_ORDER):
        mask = intersect_pairs(pairs[dtype], tier, empirical).mask
        assert np.array_equal(mask, intersect_pairs(pairs[np.int64], tier, empirical).mask)
        assert np.array_equal(mask, np.logical_and.reduce(counts >= tier_threshold(tier, n)))
    for product in product_ids:
        assert significance_profile(product, pairs[dtype]) == significance_profile(
            product, pairs[np.int64]
        )
    written = []
    for d, ps in pairs.items():
        net = ValidatedNetwork("90", tuple(ps), everything, weights)
        exports.write_report(net, degree_report(net, {}), {}, tmp_path / "report.json")
        written.append((tmp_path / "report.json").read_bytes())
    assert written[0] == written[1]


def test_intersection_of_two_pairs():
    a = _validation([[9600, 9600, 0]], 10000, t1=2012, t2=2012)
    b = _validation([[0, 9600, 9600]], 10000, t1=2017, t2=2017)
    net = intersect_pairs([a, b], "95", _ones([a, b]))
    assert net.edge_set() == {("t0", "11 p")}
    assert net.pairs == ((2012, 2012), (2017, 2017))


def test_tier_monotonicity_on_random_instances():
    rng = np.random.default_rng(44)
    for _ in range(40):
        counts = rng.integers(0, 10001, size=(3, 4))
        v = _validation(counts, 10000)
        e999 = intersect_pairs([v], "99.9", _ones([v])).edge_set()
        e99 = intersect_pairs([v], "99", _ones([v])).edge_set()
        e95 = intersect_pairs([v], "95", _ones([v])).edge_set()
        assert e999 <= e99 <= e95


def test_intersection_shrinks_with_more_pairs():
    rng = np.random.default_rng(45)
    for _ in range(20):
        pairs = [_validation(rng.integers(0, 10001, size=(3, 4)), 10000) for _ in range(4)]
        previous = None
        for k in range(1, 5):
            edges = intersect_pairs(pairs[:k], "95", _ones(pairs[:k])).edge_set()
            if previous is not None:
                assert edges <= previous
            previous = edges


def test_edge_aggregates_weight_and_pvalue():
    a = _validation([[9700]], 10000)
    b = _validation([[9600]], 10000, t1=2017, t2=2017)
    net = intersect_pairs([a, b], "95", [[[0.4]], [[0.6]]])
    _, _, weight, p_value, highest_tier = net.edge_arrays()
    assert weight[0] == pytest.approx(0.5)
    assert p_value[0] == pytest.approx(0.04)
    assert highest_tier[0] == "95"


def _network(edges, techs, prods, tier="95"):
    counts = np.zeros((len(techs), len(prods)), dtype=int)
    for tech, prod in edges:
        counts[techs.index(tech), prods.index(prod)] = 9999
    validation = _validation(counts, 10000, techs, prods)
    return intersect_pairs([validation], tier, [(counts > 0) * 1.0])


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
    assert not report.unclassified_chapters


def test_chapter_ranges_break_at_gaps_and_codes_that_are_not_numbers():
    assert _chapter_ranges(["01", "02", "05", "ZZ"]) == "01-02,05,ZZ"


def test_degree_report_flags_unmapped_chapters():
    net = _network([("t0", "ZZ123")], ("t0",), ("ZZ123",))
    report = degree_report(net, load_hs_sections())
    assert report.unclassified_chapters == ("ZZ",)
    assert report.rows[-1].section == "Unclassified"


def test_bundled_sections_cover_all_chapters():
    sections = load_hs_sections()
    assert len(sections) == 97
    assert sections["27"] == "Mineral products"
    assert sections["81"] == "Metals"
    assert len(set(sections.values())) == 21


def test_significance_profile_zero_row_product():
    v = _validation([[0], [0]], 1000)
    profile = significance_profile("10 p", [v])
    assert all(entry.highest_tier is None for entry in profile)
    assert all(entry.exceed_fraction == 0.0 for entry in profile)


def test_significance_profile_tier_chain():
    v = _validation([[9995], [9600]], 10000)
    profile = significance_profile("10 p", [v])
    by_tech = {e.tech_id: e for e in profile}
    assert by_tech["t0"].highest_tier == "99.9"
    assert by_tech["t1"].highest_tier == "95"
    assert {t: bool(v.tier_mask(t)[0, 0]) for t in TIER_ORDER} == {
        "95": True, "99": True, "99.9": True
    }
    # one pair built directly, with the weakest standing below every tier
    bare = PairValidation(
        tech_ids=("t0", "t1"), product_ids=("p0",),
        exceed_counts=np.array([[9991], [0]]), n_samples=10000, t1=2012, t2=2012,
    )
    assert [e.highest_tier for e in significance_profile("p0", [bare])] == ["99.9", None]


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
    every tier threshold; and each pair's empirical matrix."""
    techs = [f"Y02{c} {k}" for c in "AEW" for k in (1, 10, 3)]
    prods = [str(k) for k in (9, 10, 100, 2, 20, 200, 281, 28, 3)]
    techs = tuple(rng.permutation(techs).tolist())
    prods = tuple(rng.permutation(prods).tolist())
    pairs, empirical = [], []
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
            exceed_counts=counts, n_samples=n, t1=2010 + k, t2=2012 + k,
        ))
        empirical.append(rng.random((len(techs), len(prods))))
    return pairs, empirical


@pytest.mark.parametrize("n_pairs", [1, 2, 3, 4])
@pytest.mark.parametrize("empty", [False, True])
def test_network_matches_loop_oracle(n_pairs, empty, tmp_path):
    rng = np.random.default_rng(1000 + 10 * n_pairs + empty)
    for _ in range(5):
        pairs, empirical = _oracle_pairs(rng, n_pairs, empty)
        for tier in ("90", *TIER_ORDER):
            expected = reference_network(pairs, empirical, tier, TIER_ORDER, tier_threshold)
            net = intersect_pairs(pairs, tier, empirical)
            rows, cols, weight, p_value, highest = net.edge_arrays()
            # bit for bit the mean that edge_arrays took over the pairs' matrices
            # when each pair kept its own
            assert weight.tobytes() == (
                sum(e[rows, cols] for e in empirical) / len(empirical)
            ).tobytes()
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
            exports.write_network(net, path, tmp_path / "network.graphml", {})
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
