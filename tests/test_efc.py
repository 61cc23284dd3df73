"""Fitness-complexity iteration, rankings, and the link-difference curve."""

import numpy as np
import pytest

from tpnet import (
    AllZeroError,
    AxisMismatchError,
    cumulative_link_difference,
    rank_activities,
    run_efc,
)
from tpnet.efc import ActivityRanking
from tpnet.rca import BinaryMatrix
from tpnet.validate import PairValidation, intersect_pairs

from .conftest import random_binary_no_empty
from .oracles import reference_fitness_complexity


def _binary(values):
    values = np.asarray(values, dtype=int)
    return BinaryMatrix(
        "product",
        tuple(f"c{i}" for i in range(values.shape[0])),
        tuple(f"a{j}" for j in range(values.shape[1])),
        values,
    )


def test_all_ones_matrix_is_flat_at_every_iteration():
    result = run_efc(_binary(np.ones((4, 6))), track_means=True)
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


def test_matches_reference_iteration():
    rng = np.random.default_rng(101)
    for _ in range(10):
        values = random_binary_no_empty(rng, (5, 6), 0.5)
        mine = run_efc(_binary(values), max_iterations=40,
                       rank_stability_window=10**9, track_means=True)
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
    result = run_efc(_binary(values), track_means=True)
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
        "product",
        tuple(f"c{i}" for i in row_perm),
        tuple(f"a{j}" for j in col_perm),
        values[np.ix_(row_perm, col_perm)],
    )
    shuffled = run_efc(permuted)
    assert shuffled.activity_rank == base.activity_rank
    assert shuffled.country_rank == base.country_rank


def test_row_dominance_gives_weakly_higher_fitness():
    rng = np.random.default_rng(53)
    for _ in range(20):
        values = random_binary_no_empty(rng, (4, 6), 0.5)
        values[0] = np.maximum(values[0], values[1])  # row 0 contains row 1
        for k in range(1, 30):
            result = run_efc(_binary(values), max_iterations=k,
                             rank_stability_window=10**9)
            assert result.fitness[0] >= result.fitness[1] - 1e-12


def test_zero_rows_or_columns_rejected_by_core():
    values = np.array([[1, 0], [1, 0]])
    with pytest.raises(AllZeroError):
        run_efc(_binary(values))


def test_permanent_rank_oscillation_is_flagged_not_raised():
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
    result = run_efc(_binary(values), max_iterations=600)
    assert not result.rank_stable
    assert result.iterations_run == 600
    assert np.isfinite(result.fitness).all()
    assert np.isfinite(result.complexity).all()


def test_values_drifting_to_zero_stay_finite():
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
    result = run_efc(
        _binary(values), max_iterations=3000, rank_stability_window=10**9,
        track_means=True,
    )
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
        tech_ids=techs, product_ids=prods, empirical=(counts > 0) * 1.0,
        exceed_counts=counts, n_samples=10000, t1=2012, t2=2012,
    )
    return intersect_pairs([validation], "95")


def _ranking(ids):
    # ids listed most complex first
    return ActivityRanking(
        kind="product", ranks={a: i + 1 for i, a in enumerate(ids)}
    )


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
    tech_ranking = ActivityRanking(kind="technology", ranks={"t0": 1, "t1": 2})
    tech_curve = cumulative_link_difference(base, lagged, tech_ranking, "technology")
    assert tech_curve.final_value == 2


def test_curve_quartile_positions():
    prods = tuple(f"p{i:02d}" for i in range(100))
    ranking = _ranking(list(prods))
    net = _net([], ("t0",), prods)
    curve = cumulative_link_difference(net, net, ranking, "product")
    assert curve.quartile_positions == {"25%": 75, "50%": 50, "75%": 25}
    labeled = {pt.position: pt.quartile_label for pt in curve.points if pt.quartile_label}
    assert labeled == {75: "25%", 50: "50%", 25: "75%"}


def test_curve_rejects_unranked_connected_node():
    techs, prods = ("t0",), ("p0", "p1")
    net = _net([("t0", "p0")], techs, prods)
    ranking = _ranking(["p1"])  # p0 connected but unranked
    with pytest.raises(AxisMismatchError):
        cumulative_link_difference(net, net, ranking, "product")


def test_stripped_activities_order_in_positions():
    ranking = ActivityRanking(
        kind="product", ranks={"a": 1, "b": 2, "z1": 3, "z0": 3}, stripped=("z1", "z0")
    )
    # worst rank first (ascending complexity), ties lexicographic
    assert ranking.positions_ascending_complexity() == ("z0", "z1", "b", "a")
