"""Minimal solutions of homogeneous linear Diophantine systems.

This module implements the algorithmic side of Pottier's small basis
theorem (Theorem 5.6 in the paper, [Pottier 1991]):

    For a homogeneous system ``A y >= 0`` of ``e`` inequalities over
    ``v`` natural variables there is a basis ``B`` of solutions with
    ``||m||_1 <= (1 + max_i sum_j |a_ij|)^e`` for every ``m`` in ``B``.

Here a *basis* is a set of solutions such that every solution is a sum
of a multiset of basis solutions — i.e. a generating set of the
solution monoid.  The set of *minimal* non-zero solutions (the Hilbert
basis) is such a basis, and it is what we compute:

* :func:`solve_equalities` — minimal solutions of ``A y = 0`` via the
  Contejean–Devie completion procedure;
* :func:`solve_inequalities` — minimal solutions of ``A y >= 0`` by
  introducing slack variables (one per row) and projecting;
* :func:`pottier_norm_bound` — the closed-form norm bound of
  Theorem 5.6, for checking that computed bases respect it;
* :func:`brute_force_minimal_solutions` — reference implementation by
  exhaustive enumeration, used by the test suite to validate the
  completion procedure on small systems.

The Contejean–Devie procedure is a breadth-first completion starting
from the unit vectors: a frontier vector ``t`` is extended by the unit
vector ``e_i`` whenever the geometric condition
``<A t, A e_i> < 0`` holds (the defect can shrink), and is recorded as
minimal when ``A t = 0``.  Vectors dominating an already-found minimal
solution are pruned.  See Contejean & Devie, *An efficient incremental
algorithm for solving systems of linear Diophantine equations* (1994).

The completion runs one generation at a time on numpy arrays.  The
frontier is an ``(n, v)`` array and the minimal solutions found so far
a growing ``(k, v)`` array; one product ``F A^T`` gives every image,
one more ``(F A^T) A`` the geometric test for every pair ``(t, i)``,
and one broadcast comparison per chunk of rows checks all extensions
of those rows against all minimal solutions.  Rows are still decided
in visiting order — a row is pruned only against the solutions found
before it — so the frontier and the basis are those of the one-vector
loop, vector for vector.  Images are int64 unless the budget and the
matrix entries could overflow it; then they are Python ints.

The frontier is layered by 1-norm: generation ``g`` holds exactly the
vectors of norm ``g + 1``, each once.  A new minimal solution
therefore never lies below an earlier one: that would take a larger
norm, or the same vector twice.  One that lies above an earlier
solution is rejected when it is reached.  So the solutions form an
antichain as they are found, and no final mutual-pruning sweep is
needed.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import SearchBudgetExceeded
from ..obs import get_tracer, progress

__all__ = [
    "solve_equalities",
    "solve_inequalities",
    "solve_equalities_inhomogeneous",
    "pottier_norm_bound",
    "brute_force_minimal_solutions",
    "is_solution",
    "decompose",
]

Vector = Tuple[int, ...]
Matrix = Sequence[Sequence[int]]

DEFAULT_FRONTIER_BUDGET = 2_000_000


def _image(matrix: Matrix, vector: Sequence[int]) -> Vector:
    """``A v`` for an integer matrix and vector."""
    return tuple(sum(row[j] * vector[j] for j in range(len(vector))) for row in matrix)


def _dominates(v: Sequence[int], w: Sequence[int]) -> bool:
    """True iff ``v >= w`` componentwise."""
    return all(a >= b for a, b in zip(v, w))


def is_solution(matrix: Matrix, vector: Sequence[int], *, equalities: bool) -> bool:
    """Does ``vector`` satisfy ``A v = 0`` (or ``A v >= 0``)?"""
    image = _image(matrix, vector)
    if equalities:
        return all(x == 0 for x in image)
    return all(x >= 0 for x in image)


# Cells of one ``(rows, minimal, variables)`` dominance comparison: big
# enough to amortise numpy's per-call overhead, small enough (256 KiB of
# booleans) not to set the completion's peak memory.
_CHUNK_CELLS = 1 << 18


def _arithmetic_dtype(matrix: Matrix, frontier_budget: int):
    """``int64`` when no image or geometric product can overflow it.

    A frontier vector processed within the budget has 1-norm at most
    ``frontier_budget`` (generation ``g`` holds vectors of norm
    ``g + 1``), so every entry of ``A t`` and of ``(A t) A`` — and every
    partial sum computing them — is at most ``frontier_budget`` times
    ``max_i sum_k (sum_j |a_kj|) |a_ki|`` in absolute value.  Past the
    int64 range the arrays hold Python ints (``object``) instead.
    """
    row_sums = [sum(abs(a) for a in row) for row in matrix]
    worst = max(
        sum(row_sum * abs(row[i]) for row_sum, row in zip(row_sums, matrix))
        for i in range(len(matrix[0]))
    )
    if frontier_budget * worst <= np.iinfo(np.int64).max:
        return np.int64
    return object


def solve_equalities(
    matrix: Matrix,
    frontier_budget: int = DEFAULT_FRONTIER_BUDGET,
) -> List[Vector]:
    """Minimal non-zero natural solutions of ``A y = 0`` (Hilbert basis).

    Parameters
    ----------
    matrix:
        The ``e x v`` integer matrix ``A``, as a sequence of rows.
    frontier_budget:
        Upper bound on the number of frontier vectors processed, as a
        guard against systems whose basis is astronomically large.

    Returns
    -------
    The complete set of minimal solutions, sorted lexicographically.

    Raises
    ------
    SearchBudgetExceeded
        If the completion frontier exceeds the budget.
    """
    if not matrix:
        raise ValueError("matrix must have at least one row (use [] rows of correct width)")
    num_vars = len(matrix[0])
    for row in matrix:
        if len(row) != num_vars:
            raise ValueError("all matrix rows must have equal length")
    if num_vars == 0:
        return []

    dtype = _arithmetic_dtype(matrix, frontier_budget)
    a = np.array(matrix, dtype=dtype)
    # Frontier vectors and minimal solutions have entries at most their
    # norm, so they live in the narrowest unsigned dtype that holds it.
    norm = 1
    frontier = np.eye(num_vars, dtype=np.uint8)
    minimal = np.empty((0, num_vars), dtype=np.uint8)
    processed = 0

    with get_tracer().span(
        "pottier.solve_equalities",
        rows=len(matrix),
        variables=num_vars,
        frontier_budget=frontier_budget,
    ) as span:
        meter = progress(
            "pottier",
            lambda: {"frontier": len(frontier), "minimal": len(minimal)},
            stride=1,
        )
        while len(frontier):
            span.add("generations")
            processed += len(frontier)
            if processed > frontier_budget:
                span.add("budget_exceeded")
                raise SearchBudgetExceeded(
                    f"Contejean-Devie completion exceeded {frontier_budget} frontier vectors"
                )
            images = frontier.astype(dtype, copy=False) @ a.T
            # Geometric restriction: only grow coordinate i of t when it
            # can reduce the defect, i.e. <A t, A e_i> < 0.
            grow = (images @ a) < 0
            zero = np.count_nonzero(images, axis=1) == 0

            # Prune against the minimal solutions known when a row is
            # reached: those of earlier generations plus the zero-image
            # rows before it.  ``misses`` counts the coordinates where a
            # candidate m exceeds the row t: none means t >= m, which
            # prunes every extension of t; one, at i with m_i = t_i + 1,
            # means t + e_i >= m.  A zero-image row above an earlier
            # minimal solution is no new solution, but it may stay among
            # the candidates: whatever lies above it lies above that
            # solution too.
            found = np.flatnonzero(zero)
            candidates = np.concatenate([minimal, frontier[found]])
            rows = np.flatnonzero(zero | grow.any(axis=1))
            known = len(minimal) + np.searchsorted(found, rows)
            covered = np.zeros(len(frontier), dtype=bool)
            order = np.arange(len(candidates))
            step = max(1, _CHUNK_CELLS // max(1, candidates.size))
            for start in range(0, len(rows) if len(candidates) else 0, step):
                chunk = slice(start, start + step)
                at_rows = rows[chunk]
                vectors = frontier[at_rows]
                exceeds = candidates[None, :, :] > vectors[:, None, :]
                misses = np.count_nonzero(exceeds, axis=2)
                misses[order[None, :] >= known[chunk, None]] = -1
                covered[at_rows[(misses == 0).any(axis=1)]] = True
                at, by = np.nonzero(misses == 1)
                coords = exceeds[at, by].argmax(axis=1)
                tight = candidates[by, coords] - 1 == vectors[at, coords]
                grow[at_rows[at[tight]], coords[tight]] = False
            grow[covered] = False
            minimal = np.concatenate([minimal, frontier[found[~covered[found]]]])
            meter.tick(len(frontier))

            # Extensions in visiting order, first occurrence kept.
            norm += 1
            parents, coords = np.nonzero(grow)
            frontier = frontier[parents].astype(np.min_scalar_type(norm), copy=False)
            frontier[np.arange(len(parents)), coords] += 1
            keys = frontier.view(np.dtype((np.void, frontier.itemsize * num_vars)))
            _, first = np.unique(keys.ravel(), return_index=True)
            frontier = frontier[np.sort(first)]
        meter.finish()
        span.add("frontier_vectors", processed)
        span.add("minimal_solutions", len(minimal))

    return sorted(map(tuple, minimal.tolist()))


def solve_inequalities(
    matrix: Matrix,
    frontier_budget: int = DEFAULT_FRONTIER_BUDGET,
) -> List[Vector]:
    """A generating basis of the natural solutions of ``A y >= 0``.

    Implemented by adding one slack variable per row (``A y - s = 0``)
    and projecting the minimal solutions of the resulting equality
    system back onto the original variables.  The projections generate
    the solution monoid of the inequality system: each solution ``y``
    lifts uniquely to ``(y, A y)``, which decomposes into minimal
    equality solutions, whose projections sum to ``y``.

    Zero projections (solutions supported on slacks only — impossible
    for homogeneous systems, but kept for safety) are dropped, and the
    result is deduplicated and sorted.
    """
    if not matrix:
        raise ValueError("matrix must have at least one row")
    num_vars = len(matrix[0])
    num_rows = len(matrix)
    extended_rows: List[List[int]] = []
    for r, row in enumerate(matrix):
        slack = [0] * num_rows
        slack[r] = -1
        extended_rows.append(list(row) + slack)
    combined = solve_equalities(extended_rows, frontier_budget=frontier_budget)
    projections = sorted({vec[:num_vars] for vec in combined} - {tuple([0] * num_vars)})
    return projections


def solve_equalities_inhomogeneous(
    matrix: Matrix,
    rhs: Sequence[int],
    frontier_budget: int = DEFAULT_FRONTIER_BUDGET,
) -> Tuple[List[Vector], List[Vector]]:
    """Solve ``A y = b`` over the naturals: minimal + homogeneous parts.

    Uses the classical reduction: the solutions of ``A y = b``
    correspond to solutions of the homogeneous system
    ``A y - b z = 0`` with ``z = 1``.  The Hilbert basis of the
    extended system splits into elements with ``z = 1`` (the *minimal
    inhomogeneous solutions*) and ``z = 0`` (the homogeneous basis);
    every solution of ``A y = b`` is one minimal solution plus a
    natural combination of homogeneous basis elements.  (Basis elements
    with ``z >= 2`` cannot contribute to a ``z = 1`` decomposition and
    are discarded.)

    Returns ``(minimal_solutions, homogeneous_basis)``; the system is
    solvable iff ``minimal_solutions`` is non-empty.
    """
    if not matrix:
        raise ValueError("matrix must have at least one row")
    if len(rhs) != len(matrix):
        raise ValueError(f"rhs has {len(rhs)} entries for {len(matrix)} rows")
    num_vars = len(matrix[0])
    extended = [list(row) + [-b] for row, b in zip(matrix, rhs)]
    basis = solve_equalities(extended, frontier_budget=frontier_budget)
    particular = sorted(v[:num_vars] for v in basis if v[num_vars] == 1)
    homogeneous = sorted(v[:num_vars] for v in basis if v[num_vars] == 0)
    return particular, homogeneous


def pottier_norm_bound(matrix: Matrix) -> int:
    """Pottier's norm bound ``(1 + max_i sum_j |a_ij|)^e`` (Theorem 5.6).

    Every element of some basis of ``A y >= 0`` has 1-norm at most this
    value.  Note this bounds *some* basis; the Hilbert basis we compute
    empirically respects it on all systems arising from protocols,
    which is exactly what experiment E5 checks.
    """
    if not matrix:
        raise ValueError("matrix must have at least one row")
    row_sum = max(sum(abs(a) for a in row) for row in matrix)
    return (1 + row_sum) ** len(matrix)


def brute_force_minimal_solutions(
    matrix: Matrix,
    max_norm: int,
    *,
    equalities: bool,
) -> List[Vector]:
    """All minimal non-zero solutions with ``||y||_1 <= max_norm``.

    Exhaustive reference implementation for the test suite.  Complete
    whenever ``max_norm`` is at least the norm of every minimal
    solution (e.g. :func:`pottier_norm_bound` for small systems).
    """
    if not matrix:
        raise ValueError("matrix must have at least one row")
    num_vars = len(matrix[0])
    solutions: List[Vector] = []

    def vectors_of_norm(total: int, dims: int):
        if dims == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for tail in vectors_of_norm(total - head, dims - 1):
                yield (head,) + tail

    for norm in range(1, max_norm + 1):
        for vector in vectors_of_norm(norm, num_vars):
            if not is_solution(matrix, vector, equalities=equalities):
                continue
            if any(_dominates(vector, m) for m in solutions):
                continue
            solutions.append(vector)
    return sorted(solutions)


def decompose(
    basis: Iterable[Vector],
    target: Sequence[int],
) -> Optional[List[Tuple[Vector, int]]]:
    """Express ``target`` as a natural combination of basis vectors.

    Returns pairs ``(basis vector, multiplicity)`` summing to
    ``target``, or ``None`` when no decomposition exists.  This is the
    witness format used by tests validating the *generating* property
    of computed bases.  Exponential-time exhaustive search; intended
    for small vectors only.
    """
    basis_list = [b for b in basis if any(b)]
    target_t = tuple(target)

    def search(remaining: Vector, index: int) -> Optional[List[Tuple[Vector, int]]]:
        if all(x == 0 for x in remaining):
            return []
        if index >= len(basis_list):
            return None
        vector = basis_list[index]
        max_count = min(
            (r // v for r, v in zip(remaining, vector) if v > 0),
            default=0,
        )
        for count in range(max_count, -1, -1):
            reduced = tuple(r - count * v for r, v in zip(remaining, vector))
            if any(x < 0 for x in reduced):
                continue
            rest = search(reduced, index + 1)
            if rest is not None:
                return ([(vector, count)] if count else []) + rest
        return None

    return search(target_t, 0)
