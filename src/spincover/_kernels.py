"""Multiplication-table kernels: validation, element invariants, isomorphism.

All functions take a table as a list of rows of 0-based element indices,
``table[i][j]`` being the index of element i times element j.  Every check
is exhaustive: associativity uses Light's test on a generating set, so a
table is never accepted on a sample of triples.  Rows that are permutations,
a two-sided identity, two-sided inverses and Light's test make a table a
group, whose columns are permutations too (right multiplication by y is
undone by right multiplication by y^-1), so a validator that accepts on
those four needs :func:`latin_square_violation` only to name the violation
of a table it rejects.  The isomorphism search
branches only on the images of that same generating set, and counts its
nodes against a budget.
"""

from __future__ import annotations

from math import gcd
from operator import eq, itemgetter
from typing import Callable, Hashable, Optional, Sequence

#: Name of the kernel implementation, reported in benchmark run records.
BACKEND = "python"


def _take(indices: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """``row -> tuple(row[i] for i in indices)``, looped in C by
    :func:`operator.itemgetter` when there are two indices or more; for one
    it would return a bare item, not a 1-tuple, and it takes no fewer."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda row: tuple(row[i] for i in indices)


def latin_square_violation(table: list[list[int]]) -> Optional[tuple[str, int]]:
    n = len(table)
    full = set(range(n))
    for i in range(n):
        if len(table[i]) != n:
            return ("row-length", i)
        if set(table[i]) != full:
            return ("row", i)
    for j, column in enumerate(zip(*table)):
        if set(column) != full:
            return ("column", j)
    return None


def inverse_table(table: list[list[int]], identity: int) -> Optional[list[int]]:
    """Two-sided inverses for every element, or None if one is missing.

    Each row of ``table`` must be a permutation, so it holds ``identity`` once.
    """
    inverses = [row.index(identity) for row in table]
    if any(table[j][i] != identity for i, j in enumerate(inverses)):
        return None
    return inverses


def generating_set(table: list[list[int]], identity: int) -> list[int]:
    """Generators of ``table`` from ``identity``, picked greedily.

    Close the reached set under right multiplication by the generators so
    far, then take the first element not yet reached, so every index below
    a generator is reached from the ones before it.  For a group each new
    generator at least doubles the reached subgroup: at most log2(n) of them.
    """
    n = len(table)
    generators: list[int] = []
    reached = [False] * n
    reached[identity] = True
    while not all(reached):
        g = reached.index(False)
        generators.append(g)
        reached[g] = True
        frontier = [x for x in range(n) if reached[x]]
        while frontier:
            row_x = table[frontier.pop()]
            for h in generators:
                xh = row_x[h]
                if not reached[xh]:
                    reached[xh] = True
                    frontier.append(xh)
    return generators


def associativity_violation(
    table: list[list[int]], identity: int
) -> Optional[tuple[int, int, int]]:
    """First triple (x, g, y) with (x*g)*y != x*(g*y), or None.

    Light's associativity test (Clifford & Preston, *The Algebraic Theory
    of Semigroups* I, 1961, section 1.2).  The elements g for which
    (x*g)*y == x*(g*y) holds for all x, y are closed under products, so it
    suffices to check g over :func:`generating_set`, which reaches every
    element from ``identity``, a two-sided identity of ``table``.  For a
    group that is at most log2(n) generators and O(n^2 log n) work; for any
    other table the check stays exhaustive.
    """
    n = len(table)
    for g in generating_set(table, identity):
        # Row x of x*(g*y) over all y is row x read at the columns of row g.
        times_g = _take(table[g])
        for x in range(n):
            row_x = table[x]
            left = tuple(table[row_x[g]])
            right = times_g(row_x)
            if left != right:
                for y in range(n):
                    if left[y] != right[y]:
                        return (x, g, y)
    return None


def element_orders(table: list[list[int]], identity: int) -> list[int]:
    """The order of every element of the group ``table``.

    Each element x whose order is not yet known is walked along its powers
    x, x^2, ..., x^m = identity, and every power x^k whose order is not yet
    known gets m / gcd(k, m); so an element of a cyclic subgroup already
    walked costs no product.  A walk that reaches x^(n+1) without meeting
    ``identity`` raises ``ValueError``: that element has no finite order.
    """
    n = len(table)
    orders = [0] * n
    for x in range(n):
        if orders[x]:
            continue
        powers = [x]
        power = x
        while power != identity:
            power = table[power][x]
            powers.append(power)
            if len(powers) > n:
                raise ValueError(f"element {x} has no finite order; table is not a group")
        m = len(powers)
        for k, power in enumerate(powers, 1):
            if not orders[power]:
                orders[power] = m // gcd(k, m)
    return orders


def is_abelian(table: list[list[int]]) -> bool:
    return all(row == list(column) for row, column in zip(table, zip(*table)))


def element_signatures(
    table: list[list[int]], orders: list[int]
) -> list[tuple[int, int, int]]:
    """(order, centralizer size, number of square roots) of every element.

    Every isomorphism maps an element to one with the same signature.  The
    centralizer of x counts the y with x*y == y*x: row x of the table
    against column x, from one transpose; a central x, whose row equals its
    column, is told by one tuple comparison.  O(n^2) in all.
    """
    roots = [0] * len(table)
    for y, row in enumerate(table):
        roots[row[y]] += 1
    return [
        (orders[x], len(row) if tuple(row) == column else sum(map(eq, row, column)), roots[x])
        for x, (row, column) in enumerate(zip(table, zip(*table)))
    ]


class NodeBudgetError(RuntimeError):
    """An isomorphism search entered more nodes than its budget allows."""


class SearchNodes:
    """The nodes one isomorphism search has entered, and the most it may."""

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.count = 0


def find_isomorphism(
    g_table: list[list[int]],
    h_table: list[list[int]],
    g_identity: int,
    h_identity: int,
    g_keys: Sequence[Hashable],
    h_keys: Sequence[Hashable],
    nodes: SearchNodes,
) -> Optional[list[int]]:
    """Lexicographically smallest isomorphism between two group tables of
    equal order; None if there is none.

    ``g_keys`` and ``h_keys`` hold an invariant of every element that any
    isomorphism preserves, such as its signature from
    :func:`element_signatures`.  The search branches only on the images of
    :func:`generating_set` of G, trying for each generator the unused
    elements of H with its key in increasing index.  Each choice extends
    the map over the subgroup generated so far by right multiplication with
    the chosen generators, and the branch is cut at the first product where
    the map stops being a well-defined injective homomorphism; as in
    Light's test, respecting every generator makes the map a homomorphism.
    Every index below the next generator is already mapped, so the first
    complete map is the smallest; the key filter drops only candidates no
    isomorphism can take, so it does not change which map that is.

    Every call of the inner ``search`` is one node, counted in ``nodes``;
    passing ``nodes.budget`` raises :class:`NodeBudgetError`.
    """
    n = len(g_table)
    generators = generating_set(g_table, g_identity)
    phi = [-1] * n
    used = [False] * n
    phi[g_identity] = h_identity
    used[h_identity] = True

    def extend(chosen: list[int], trail: list[int]) -> bool:
        frontier = [x for x in range(n) if phi[x] >= 0]
        while frontier:
            x = frontier.pop()
            row_x = g_table[x]
            image_row = h_table[phi[x]]
            for s in chosen:
                y = row_x[s]
                image = image_row[phi[s]]
                if phi[y] < 0:
                    if used[image]:
                        return False
                    phi[y] = image
                    used[image] = True
                    trail.append(y)
                    frontier.append(y)
                elif phi[y] != image:
                    return False
        return True

    candidates: dict[Hashable, list[int]] = {}
    for y, key in enumerate(h_keys):
        candidates.setdefault(key, []).append(y)

    def search(depth: int) -> bool:
        nodes.count += 1
        if nodes.count > nodes.budget:
            raise NodeBudgetError(f"isomorphism search passed its budget of {nodes.budget} nodes")
        if depth == len(generators):
            return True
        s = generators[depth]
        chosen = generators[: depth + 1]
        for candidate in candidates.get(g_keys[s], ()):
            if used[candidate]:
                continue
            phi[s] = candidate
            used[candidate] = True
            trail = [s]
            if extend(chosen, trail) and search(depth + 1):
                return True
            for x in trail:
                used[phi[x]] = False
                phi[x] = -1
        return False

    return phi if search(0) else None


def check_isomorphism(
    g_table: list[list[int]],
    h_table: list[list[int]],
    mapping: list[int],
) -> bool:
    """Exhaustive verification that ``mapping`` is a bijective homomorphism."""
    n = len(g_table)
    if len(h_table) != n or len(mapping) != n:
        return False
    if sorted(mapping) != list(range(n)):
        return False
    # Row i of both sides over all j: the images of row i of G, and row
    # phi(i) of H read at the columns phi(j).
    image_columns = _take(mapping)
    for i in range(n):
        if _take(g_table[i])(mapping) != image_columns(h_table[mapping[i]]):
            return False
    return True
