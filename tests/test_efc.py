"""Fitness-complexity iteration, rankings, and the link-difference curve."""

import re

import numpy as np
import pytest

from tpnet import (
    AllZeroError,
    AxisMismatchError,
    cumulative_link_difference,
    rank_activities,
    run_efc,
)
from tpnet import efc
from tpnet.efc import ActivityRanking, _ranking_order
from tpnet.validate import _id_ranks
from tpnet.rca import BinaryMatrix
from tpnet.validate import PairValidation, intersect_pairs

from .conftest import random_binary_no_empty
from .oracles import reference_fitness_complexity


def _binary(values):
    values = np.asarray(values, dtype=int)
    return BinaryMatrix(
        tuple(f"c{i}" for i in range(values.shape[0])),
        tuple(f"a{j}" for j in range(values.shape[1])),
        values,
    )


def test_all_ones_matrix_is_flat_at_every_iteration():
    result = run_efc(_binary(np.ones((4, 6))))
    assert np.array_equal(result.fitness, np.ones(4))
    assert np.array_equal(result.complexity, np.ones(6))
    assert result.rank_stable
    for mean_f, mean_q in result.mean_history:
        assert mean_f == 1.0 and mean_q == 1.0


def test_diversified_country_and_exclusive_activity_win():
    result = run_efc(_binary([[1, 1], [1, 0]]))
    assert result.fitness[0] > result.fitness[1]
    assert result.complexity[1] > result.complexity[0]
    assert result.country_rank == {"c0": 1, "c1": 2}
    assert result.activity_rank == {"a1": 1, "a0": 2}


def test_matches_reference_iteration(monkeypatch):
    monkeypatch.setattr(efc, "_MAX_ITERATIONS", 40)
    monkeypatch.setattr(efc, "_RANK_STABILITY_WINDOW", 10**9)
    rng = np.random.default_rng(101)
    for _ in range(10):
        values = random_binary_no_empty(rng, (5, 6), 0.5)
        mine = run_efc(_binary(values))
        ref_f, ref_q = reference_fitness_complexity(values, 40)
        assert np.allclose(mine.fitness, ref_f, atol=1e-10)
        assert np.allclose(mine.complexity, ref_q, atol=1e-10)


def test_nested_triangle_ranks_by_reverse_ubiquity():
    values = np.tril(np.ones((5, 5), dtype=int))
    m = _binary(values)
    result = run_efc(m)
    assert result.rank_stable
    ubiquity = values.sum(axis=0)  # a0 most ubiquitous ... a4 rarest
    expected = {f"a{j}": int(ubiquity[j]) for j in range(5)}
    assert result.activity_rank == expected
    ref_f, ref_q = reference_fitness_complexity(values, result.iterations_run)
    assert list(np.argsort(-ref_q)) == [4, 3, 2, 1, 0]


def test_mean_normalization_every_iteration():
    rng = np.random.default_rng(7)
    values = random_binary_no_empty(rng, (6, 8), 0.4)
    result = run_efc(_binary(values))
    for mean_f, mean_q in result.mean_history:
        assert abs(mean_f - 1.0) <= 1e-12
        assert abs(mean_q - 1.0) <= 1e-12


def test_permutation_equivariance():
    rng = np.random.default_rng(31)
    values = random_binary_no_empty(rng, (5, 6), 0.5)
    base = run_efc(_binary(values))
    row_perm = rng.permutation(5)
    col_perm = rng.permutation(6)
    permuted = BinaryMatrix(
        tuple(f"c{i}" for i in row_perm),
        tuple(f"a{j}" for j in col_perm),
        values[np.ix_(row_perm, col_perm)],
    )
    shuffled = run_efc(permuted)
    assert shuffled.activity_rank == base.activity_rank
    assert shuffled.country_rank == base.country_rank


def test_row_dominance_gives_weakly_higher_fitness(monkeypatch):
    monkeypatch.setattr(efc, "_RANK_STABILITY_WINDOW", 10**9)
    rng = np.random.default_rng(53)
    for _ in range(20):
        values = random_binary_no_empty(rng, (4, 6), 0.5)
        values[0] = np.maximum(values[0], values[1])  # row 0 contains row 1
        for k in range(1, 30):
            monkeypatch.setattr(efc, "_MAX_ITERATIONS", k)
            result = run_efc(_binary(values))
            assert result.fitness[0] >= result.fitness[1] - 1e-12


def test_zero_rows_or_columns_rejected_by_core():
    values = np.array([[1, 0], [1, 0]])
    with pytest.raises(AllZeroError):
        run_efc(_binary(values))


def test_permanent_rank_oscillation_is_flagged_not_raised(monkeypatch):
    # two countries' fitness values converge to the same limit and keep
    # swapping order at machine precision: the run must end flagged
    values = np.array(
        [
            [0, 1, 0, 0, 0],
            [1, 0, 0, 1, 0],
            [0, 0, 1, 0, 1],
            [0, 0, 1, 1, 1],
            [0, 0, 1, 0, 0],
            [1, 1, 0, 0, 0],
        ]
    )
    monkeypatch.setattr(efc, "_MAX_ITERATIONS", 600)
    result = run_efc(_binary(values))
    assert not result.rank_stable
    assert result.iterations_run == 600
    assert np.isfinite(result.fitness).all()
    assert np.isfinite(result.complexity).all()


def test_values_drifting_to_zero_stay_finite(monkeypatch):
    # most fitness values decay geometrically here; once they underflow to
    # exact zero the complexity update must not produce NaN
    values = np.array(
        [
            [1, 0, 0, 1, 0, 0],
            [0, 1, 1, 1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 1, 0, 1, 0, 1],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 1, 1, 0, 1],
            [0, 1, 0, 1, 0, 1],
        ]
    )
    monkeypatch.setattr(efc, "_MAX_ITERATIONS", 3000)
    monkeypatch.setattr(efc, "_RANK_STABILITY_WINDOW", 10**9)
    result = run_efc(_binary(values))
    assert not np.isnan(result.fitness).any()
    assert not np.isnan(result.complexity).any()
    assert (result.fitness >= 0).all() and (result.complexity >= 0).all()
    for mean_f, mean_q in result.mean_history:
        assert abs(mean_f - 1.0) <= 1e-12
        assert abs(mean_q - 1.0) <= 1e-12


def test_rank_activities_strips_and_assigns_worst_rank():
    values = np.array([[1, 1, 0], [1, 0, 0], [0, 0, 0]])
    ranking, result = rank_activities(_binary(values))
    assert ranking.stripped == ("a2",)
    assert ranking.ranks["a2"] == 3  # worst, after the 2 ranked activities
    assert set(ranking.ranks) == {"a0", "a1", "a2"}
    assert result.rank_stable
    # a1 held only by the diversified country: most complex
    assert ranking.ranks["a1"] == 1


def test_rank_ties_break_lexicographically():
    values = np.ones((3, 3), dtype=int)  # all activities identical
    ranking, _ = rank_activities(_binary(values))
    assert ranking.ranks == {"a0": 1, "a1": 2, "a2": 3}


def _net(edges, techs, prods):
    counts = np.zeros((len(techs), len(prods)), dtype=int)
    for t, p in edges:
        counts[techs.index(t), prods.index(p)] = 9999
    validation = PairValidation(
        tech_ids=techs, product_ids=prods,
        exceed_counts=counts, n_samples=10000, t1=2012, t2=2012,
    )
    return intersect_pairs([validation], "95", [(counts > 0) * 1.0])


def _ranking(ids):
    # ids listed most complex first
    return ActivityRanking(ranks={a: i + 1 for i, a in enumerate(ids)})


def test_identical_networks_give_zero_curve():
    techs, prods = ("t0",), ("p0", "p1")
    net = _net([("t0", "p0")], techs, prods)
    ranking = _ranking(["p0", "p1"])
    curve = cumulative_link_difference(net, net, ranking, "product")
    assert [pt.cumulative for pt in curve.points] == [0, 0]
    assert curve.final_value == 0


def test_single_extra_edge_on_most_complex_product():
    techs, prods = ("t0",), ("p0", "p1", "p2", "p3")
    base = _net([("t0", "p1")], techs, prods)
    lagged = _net([("t0", "p1"), ("t0", "p0")], techs, prods)
    ranking = _ranking(["p0", "p1", "p2", "p3"])  # p0 most complex
    curve = cumulative_link_difference(base, lagged, ranking, "product")
    assert [pt.activity_id for pt in curve.points] == ["p3", "p2", "p1", "p0"]
    assert [pt.cumulative for pt in curve.points] == [0, 0, 0, 1]


def test_curve_endpoint_is_total_edge_difference():
    techs, prods = ("t0", "t1"), ("p0", "p1", "p2")
    base = _net([("t0", "p0"), ("t1", "p2")], techs, prods)
    lagged = _net(
        [("t0", "p0"), ("t0", "p1"), ("t1", "p1"), ("t1", "p2")], techs, prods
    )
    ranking = _ranking(["p2", "p1", "p0"])
    curve = cumulative_link_difference(base, lagged, ranking, "product")
    assert curve.final_value == lagged.edge_count - base.edge_count
    tech_ranking = ActivityRanking(ranks={"t0": 1, "t1": 2})
    tech_curve = cumulative_link_difference(base, lagged, tech_ranking, "technology")
    assert tech_curve.final_value == 2


def test_curve_quartile_positions():
    prods = tuple(f"p{i:02d}" for i in range(100))
    ranking = _ranking(list(prods))
    net = _net([], ("t0",), prods)
    curve = cumulative_link_difference(net, net, ranking, "product")
    labeled = {pt.position: pt.quartile_label for pt in curve.points if pt.quartile_label}
    assert labeled == {75: "25%", 50: "50%", 25: "75%"}
    # with two activities the 50% and 75% boundaries coincide; 75% labels it
    prods = ("p0", "p1")
    net = _net([], ("t0",), prods)
    curve = cumulative_link_difference(net, net, _ranking(list(prods)), "product")
    assert [pt.quartile_label for pt in curve.points] == ["75%", "25%"]


def test_curve_rejects_unranked_connected_node():
    techs, prods = ("t0",), ("p0", "p1")
    net = _net([("t0", "p0")], techs, prods)
    ranking = _ranking(["p1"])  # p0 connected but unranked
    with pytest.raises(AxisMismatchError):
        cumulative_link_difference(net, net, ranking, "product")


def test_stripped_activities_order_in_positions():
    ranking = ActivityRanking(ranks={"a": 1, "b": 2, "z1": 3, "z0": 3}, stripped=("z1", "z0"))
    # worst rank first (ascending complexity), ties lexicographic
    assert ranking.positions_ascending_complexity() == ("z0", "z1", "b", "a")


def test_ranking_order_on_id_ranks_matches_string_lexsort():
    rng = np.random.default_rng(11)
    pool = ["9", "10", "100", "A01", "A01B", "A1", "a01", "B", "", "\u00e9", "10 "]
    for size in (1, 2, 5, 11, 40):
        ids = rng.choice(pool, size=size).tolist()  # repeated ids too
        scores = rng.choice([0.5, 1.0, 1.0 + 2**-52, 2.0], size=size)
        expected = tuple(int(i) for i in np.lexsort((np.array(ids), -scores)))
        assert _ranking_order(_id_ranks(ids), scores) == expected


def test_tied_complexities_rank_by_id_string_order():
    # identical columns tie exactly; "10" < "9" and "A01" < "A01B" as strings
    values = np.array([[1, 1, 1, 1, 1], [1, 1, 0, 0, 1], [1, 1, 0, 0, 1]])
    m = BinaryMatrix(("c2", "c10", "c1"), ("9", "A01B", "10", "A01", "x"), values)
    result = run_efc(m)
    assert result.rank_stable
    assert result.activity_rank == {"10": 1, "A01": 2, "9": 3, "A01B": 4, "x": 5}
    assert result.country_rank == {"c2": 1, "c1": 2, "c10": 3}


@pytest.mark.parametrize("call, error, message", [
    (lambda: run_efc(BinaryMatrix((), (), np.zeros((0, 0), dtype=int))),
     AllZeroError, "cannot rank an empty matrix"),
    (lambda: rank_activities(BinaryMatrix(("c0", "c1"), ("a0",), [[0], [0]])),
     AllZeroError, "matrix has no nonzero rows or columns to rank"),
    (lambda: cumulative_link_difference(
        _net([("t0", "p0")], ("t0",), ("p0",)), _net([], ("t0",), ("p0",)),
        _ranking(["p0"]), "country"),
     ValueError, "side must be one of ('technology', 'product'), got 'country'"),
])
def test_ranking_inputs_are_checked(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
