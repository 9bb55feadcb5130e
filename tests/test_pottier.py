"""Tests for the Hilbert basis / Pottier machinery (Theorem 5.6, Cor. 5.7)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import binary_threshold, flat_threshold
from repro.core.errors import SearchBudgetExceeded
from repro.diophantine.pottier import (
    _dominates,
    brute_force_minimal_solutions,
    decompose,
    is_solution,
    pottier_norm_bound,
    solve_equalities,
    solve_inequalities,
)
from repro.obs import RecordingExporter, Tracer, set_tracer
from repro.reachability.pseudo import realisability_matrix


class TestSolveEqualities:
    def test_simple_balance(self):
        # x1 - x2 = 0  =>  minimal solution (1, 1)
        assert solve_equalities([[1, -1]]) == [(1, 1)]

    def test_two_to_one(self):
        # 2 x1 - x2 = 0 => (1, 2)
        assert solve_equalities([[2, -1]]) == [(1, 2)]

    def test_no_nontrivial_solutions(self):
        # x1 + x2 = 0 has only the zero solution
        assert solve_equalities([[1, 1]]) == []

    def test_free_variables(self):
        # 0 = 0: every unit vector is minimal
        assert solve_equalities([[0, 0]]) == [(0, 1), (1, 0)]

    def test_multiple_equations(self):
        # x1 = x2 and x2 = x3 => (1,1,1)
        assert solve_equalities([[1, -1, 0], [0, 1, -1]]) == [(1, 1, 1)]

    def test_classic_example(self):
        # x1 + x2 - 2 x3 = 0: minimal solutions (2,0,1), (0,2,1), (1,1,1)
        basis = solve_equalities([[1, 1, -2]])
        assert set(basis) == {(2, 0, 1), (0, 2, 1), (1, 1, 1)}

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            solve_equalities([])

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ValueError):
            solve_equalities([[1, 2], [1]])

    def test_budget(self):
        with pytest.raises(SearchBudgetExceeded):
            solve_equalities([[3, -5, 7, -11]], frontier_budget=3)

    def test_entries_past_uint8(self):
        # Norms past 255 widen the dtype of the frontier vectors.
        assert solve_equalities([[1, -300]]) == [(300, 1)]
        assert solve_equalities([[1, 1, -260]]) == [(a, 260 - a, 1) for a in range(261)]

    def test_products_past_int64(self):
        # <A e_1, A e_2> = -1.6e19 overflows int64: the products must be
        # computed on Python ints, not wrapped silently.
        assert solve_equalities([[4 * 10**9, -4 * 10**9]]) == [(1, 1)]
        matrix = [[1, 1, -2], [2, -1, 0]]
        scaled = [[a * 10**12 for a in row] for row in matrix]
        assert solve_equalities(scaled) == solve_equalities(matrix) == [(2, 4, 3)]


class TestAgainstBruteForce:
    @settings(max_examples=30)
    @given(
        st.lists(
            st.lists(st.integers(-2, 2), min_size=3, max_size=3),
            min_size=1,
            max_size=2,
        )
    )
    def test_equalities_match_brute_force(self, matrix):
        basis = solve_equalities(matrix, frontier_budget=200_000)
        bound = max((sum(v) for v in basis), default=0) + 2
        reference = brute_force_minimal_solutions(matrix, max_norm=min(bound, 9), equalities=True)
        expected = [v for v in reference if sum(v) <= min(bound, 9)]
        computed = [v for v in basis if sum(v) <= min(bound, 9)]
        assert set(computed) == set(expected)
        # The result is an antichain of non-zero solutions.
        for v in basis:
            assert any(v) and is_solution(matrix, v, equalities=True)
            assert not any(w != v and _dominates(v, w) for w in basis)

    def test_inequalities_small_system(self):
        matrix = [[1, -1, 0], [0, 1, -1]]
        basis = solve_inequalities(matrix)
        # every basis element is a solution
        for v in basis:
            assert is_solution(matrix, v, equalities=False)
        # and generates: some known solutions decompose
        for target in [(1, 0, 0), (1, 1, 0), (2, 1, 1), (3, 2, 2)]:
            if is_solution(matrix, target, equalities=False):
                assert decompose(basis, target) is not None, target


class TestInequalities:
    def test_single_inequality(self):
        # x1 - x2 >= 0
        basis = solve_inequalities([[1, -1]])
        assert (1, 0) in basis and (1, 1) in basis
        for v in basis:
            assert v[0] >= v[1]

    def test_all_solutions_nonzero(self):
        basis = solve_inequalities([[1, -2], [-1, 3]])
        assert all(any(v) for v in basis)

    def test_generating_property_exhaustive(self):
        matrix = [[2, -1], [-1, 1]]
        basis = solve_inequalities(matrix)
        for a in range(5):
            for b in range(5):
                if is_solution(matrix, (a, b), equalities=False):
                    assert decompose(basis, (a, b)) is not None, (a, b)


def _slack_system(matrix):
    """``A y - s = 0``: the equality system ``solve_inequalities`` solves."""
    return [
        list(row) + [-1 if k == r else 0 for k in range(len(matrix))]
        for r, row in enumerate(matrix)
    ]


def _traced_counters(matrix, **kwargs):
    recorder = RecordingExporter()
    previous = set_tracer(Tracer([recorder]))
    try:
        basis = solve_equalities(matrix, **kwargs)
    finally:
        set_tracer(previous)
    (record,) = [r for r in recorder.records if r["name"] == "pottier.solve_equalities"]
    return basis, record["counters"]


# (frontier_vectors, minimal_solutions) of the realisability systems:
# the numbers the completion's work ledger is compared against.
REALISABILITY_WORK = [
    (flat_threshold, 5, 1338, 93),
    (flat_threshold, 6, 5282, 260),
    (binary_threshold, 10, 2252, 66),
    (binary_threshold, 12, 1984, 57),
]


@pytest.mark.parametrize(
    "builder, eta, frontier_vectors, minimal_solutions",
    REALISABILITY_WORK,
    ids=[f"{b.__name__.split('_')[0]}:{eta}" for b, eta, _, _ in REALISABILITY_WORK],
)
class TestRealisabilityWork:
    def test_work_counts_and_antichain(self, builder, eta, frontier_vectors, minimal_solutions):
        matrix, _, _ = realisability_matrix(builder(eta))
        basis, counters = _traced_counters(_slack_system(matrix))
        assert (counters["frontier_vectors"], counters["minimal_solutions"]) == (
            frontier_vectors,
            minimal_solutions,
        )
        assert len(basis) == minimal_solutions
        assert not any(w != v and _dominates(v, w) for v in basis for w in basis)

    def test_budget_is_exact(self, builder, eta, frontier_vectors, minimal_solutions):
        system = _slack_system(realisability_matrix(builder(eta))[0])
        assert len(solve_equalities(system, frontier_budget=frontier_vectors)) == minimal_solutions
        with pytest.raises(SearchBudgetExceeded):
            solve_equalities(system, frontier_budget=frontier_vectors - 1)

    def test_inequality_basis_respects_norm_bound(
        self, builder, eta, frontier_vectors, minimal_solutions
    ):
        matrix, _, _ = realisability_matrix(builder(eta))
        bound = pottier_norm_bound(matrix)
        basis = solve_inequalities(matrix)
        assert basis and all(sum(v) <= bound for v in basis)


def test_a_solution_prunes_later_rows_of_its_generation():
    # (2, 0, 3) is found in the generation of norm 5 and prunes an
    # extension of a row after it in that generation: 11 frontier
    # vectors, where pruning against earlier generations only gives 12.
    basis, counters = _traced_counters([[-3, -3, 2], [3, -2, -2]])
    assert basis == [(2, 0, 3)]
    assert counters["frontier_vectors"] == 11


class TestNormBound:
    def test_formula(self):
        # rows sums: |1|+|-1| = 2 and |2|+|1| = 3 -> (1+3)^2 = 16
        assert pottier_norm_bound([[1, -1], [2, 1]]) == 16

    def test_bound_respected_on_random_systems(self):
        import itertools
        import random

        rng = random.Random(42)
        for _ in range(10):
            matrix = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(2)]
            basis = solve_inequalities(matrix, frontier_budget=500_000)
            bound = pottier_norm_bound(matrix)
            assert all(sum(v) <= bound for v in basis)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pottier_norm_bound([])


class TestDecompose:
    def test_zero_target(self):
        assert decompose([(1, 1)], (0, 0)) == []

    def test_simple(self):
        result = decompose([(1, 1), (2, 0)], (4, 2))
        assert result is not None
        total = [0, 0]
        for vector, count in result:
            total[0] += vector[0] * count
            total[1] += vector[1] * count
        assert tuple(total) == (4, 2)

    def test_impossible(self):
        assert decompose([(2, 0)], (1, 0)) is None
