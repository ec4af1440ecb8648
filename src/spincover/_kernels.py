"""Multiplication-table kernels: validation, element orders, isomorphism.

All functions take a table as a list of rows of 0-based element indices,
``table[i][j]`` being the index of element i times element j.  Every check
is exhaustive: associativity uses Light's test on a generating set, so a
table is never accepted on a sample of triples.
"""

from __future__ import annotations

from typing import Optional

#: Name of the kernel implementation, reported in benchmark run records.
BACKEND = "python"


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
    """Two-sided inverses for every element, or None if one is missing."""
    n = len(table)
    inverses = [-1] * n
    for i in range(n):
        for j in range(n):
            if table[i][j] == identity and table[j][i] == identity:
                inverses[i] = j
                break
        if inverses[i] < 0:
            return None
    return inverses


def associativity_violation(
    table: list[list[int]], identity: int
) -> Optional[tuple[int, int, int]]:
    """First triple (x, g, y) with (x*g)*y != x*(g*y), or None.

    Light's associativity test (Clifford & Preston, *The Algebraic Theory
    of Semigroups* I, 1961, section 1.2).  The elements g for which
    (x*g)*y == x*(g*y) holds for all x, y are closed under products, so it
    suffices to check g over a set that generates every element from
    ``identity``, which must be a two-sided identity of ``table``.
    Generators are picked greedily: close the reached set under right
    multiplication by the generators so far, then take the first element
    not yet reached.  For a group each new generator at least doubles the
    reached subgroup, so there are at most log2(n) of them and the check
    costs O(n^2 log n); for any other table it stays exhaustive.
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

    for g in generators:
        row_g = table[g]
        for x in range(n):
            row_x = table[x]
            left = table[row_x[g]]
            right = [row_x[gy] for gy in row_g]
            if left != right:
                for y in range(n):
                    if left[y] != right[y]:
                        return (x, g, y)
    return None


def element_orders(table: list[list[int]], identity: int) -> list[int]:
    n = len(table)
    orders = [0] * n
    for i in range(n):
        power = i
        order = 1
        while power != identity:
            power = table[power][i]
            order += 1
            if order > n:
                raise ValueError(f"element {i} has no finite order; table is not a group")
        orders[i] = order
    return orders


def is_abelian(table: list[list[int]]) -> bool:
    n = len(table)
    return all(table[i][j] == table[j][i] for i in range(n) for j in range(i + 1, n))


def find_isomorphism(
    g_table: list[list[int]],
    h_table: list[list[int]],
    g_identity: int,
    h_identity: int,
) -> Optional[list[int]]:
    """Lexicographically smallest isomorphism between two group tables.

    Backtracking over images in element-index order.  Whenever both factors
    of a product are assigned, the image of the product is forced, so the
    search only branches on elements outside the subgroup generated so far;
    candidate images are constrained to matching element order and tried in
    increasing index order, which makes the first completed mapping the
    lexicographic minimum.
    """
    n = len(g_table)
    if len(h_table) != n:
        return None
    g_orders = element_orders(g_table, g_identity)
    h_orders = element_orders(h_table, h_identity)
    if sorted(g_orders) != sorted(h_orders):
        return None

    phi = [-1] * n
    used = [False] * n
    assigned: list[int] = []

    def force(g_el: int, h_el: int, trail: list[int]) -> bool:
        queue = [(g_el, h_el)]
        while queue:
            x, y = queue.pop()
            if phi[x] >= 0:
                if phi[x] != y:
                    return False
                continue
            if used[y] or g_orders[x] != h_orders[y]:
                return False
            phi[x] = y
            used[y] = True
            trail.append(x)
            assigned.append(x)
            for other in assigned:
                queue.append((g_table[x][other], h_table[y][phi[other]]))
                queue.append((g_table[other][x], h_table[phi[other]][y]))
        return True

    def undo(trail: list[int]) -> None:
        for x in reversed(trail):
            used[phi[x]] = False
            phi[x] = -1
            assigned.pop()

    def search(start: int) -> bool:
        k = start
        while k < n and phi[k] >= 0:
            k += 1
        if k == n:
            return True
        target_order = g_orders[k]
        for candidate in range(n):
            if used[candidate] or h_orders[candidate] != target_order:
                continue
            trail: list[int] = []
            if force(k, candidate, trail) and search(k + 1):
                return True
            undo(trail)
        return False

    root: list[int] = []
    if not force(g_identity, h_identity, root):
        return None
    if not search(0):
        return None
    return list(phi)


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
    for i in range(n):
        for j in range(n):
            if mapping[g_table[i][j]] != h_table[mapping[i]][mapping[j]]:
                return False
    return True
