"""Multiplication-table kernels: validation, element invariants, isomorphism.

A table is a list of ``bytes`` rows, ``rows[i][j]`` being the index of
element i times element j, so a group has at most 256 elements; every
group constructor builds this form.  :func:`latin_square_violation` reads
a rejected table as given, lists or bytes, to name its fault.  A row
doubles as a :meth:`bytes.translate` table once it is padded to 256 bytes
(:func:`padded`): ``rows[g].translate(padded[x])`` is row g read through
row x, x*(g*y) over all y, in one call.  So Light's test, the witness
check and conjugation by a generator run their inner loops in C, and the
cap of 256 elements is the size of a translate table.

Every check is exhaustive: associativity uses Light's test on a generating
set, so a table is never accepted on a sample of triples.  Entries in
range, a two-sided identity, two-sided inverses and Light's test make a
table a group (Light's lemma holds in any table), whose rows and columns
are permutations, so a validator that accepts on those checks needs
:func:`latin_square_violation` only to name the violation of a table it
rejects.  The caller computes the generating set once, with
:func:`generating_set`, and passes it to Light's test, to
:func:`element_signatures` and to the isomorphism search, which branches
only on the images of that set and counts its nodes against a budget.
Centralizer sizes come from conjugacy classes, by orbit and stabilizer,
which holds only in a group: :func:`element_signatures` takes a validated
table.
"""

from __future__ import annotations

from math import gcd
from operator import itemgetter
from typing import Hashable, Optional, Sequence

#: Name of the kernel implementation; perfbench/run.py records it in each run record.
BACKEND = "python"


def padded(rows: list[bytes]) -> list[bytes]:
    """Each row extended with zero bytes to 256, for use as a
    :meth:`bytes.translate` table; at order 256 the rows themselves."""
    pad = bytes(256 - len(rows))
    return [row + pad for row in rows] if pad else rows


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


def inverse_table(rows: list[bytes], identity: int) -> Optional[list[int]]:
    """Two-sided inverses for every element, or None if one is missing.

    The inverse of x is the first ``identity`` in row x; a row without one
    raises ``ValueError`` from :meth:`bytes.index`.
    """
    inverses = [row.index(identity) for row in rows]
    if any(rows[j][i] != identity for i, j in enumerate(inverses)):
        return None
    return inverses


def generating_set(rows: list[bytes], identity: int) -> list[int]:
    """Generators of the table ``rows`` from ``identity``, picked greedily.

    Close the reached set under right multiplication by the generators so
    far, then take the first element not yet reached, so every index below
    a generator is reached from the ones before it.  For a group each new
    generator at least doubles the reached subgroup: at most log2(n) of them.
    """
    n = len(rows)
    generators: list[int] = []
    reached = [False] * n
    reached[identity] = True
    while not all(reached):
        g = reached.index(False)
        generators.append(g)
        reached[g] = True
        frontier = [x for x in range(n) if reached[x]]
        while frontier:
            row_x = rows[frontier.pop()]
            for h in generators:
                xh = row_x[h]
                if not reached[xh]:
                    reached[xh] = True
                    frontier.append(xh)
    return generators


def associativity_violation(
    rows: list[bytes], translate: list[bytes], generators: list[int]
) -> Optional[tuple[int, int, int]]:
    """First triple (x, g, y) with (x*g)*y != x*(g*y), or None.

    Light's associativity test (Clifford & Preston, *The Algebraic Theory
    of Semigroups* I, 1961, section 1.2).  The elements g for which
    (x*g)*y == x*(g*y) holds for all x, y are closed under products, so it
    suffices to check g over ``generators``, the :func:`generating_set` of
    the table from a two-sided identity, which reaches every element from
    that identity; :class:`~spincover.groups.FiniteGroup` computes it once
    as it validates the table and keeps it.  For a group that is at most
    log2(n) generators and O(n^2 log n) work; for any other table the check
    stays exhaustive.  ``translate`` is :func:`padded` of ``rows``.
    """
    n = len(rows)
    for g in generators:
        # Over all x at once: row x*g of the table, against row g read
        # through row x, which is x*(g*y) over all y.
        left = b"".join(map(rows.__getitem__, map(itemgetter(g), rows)))
        right = b"".join(map(rows[g].translate, translate))
        if left != right:
            k = next(k for k, (a, b) in enumerate(zip(left, right)) if a != b)
            x, y = divmod(k, n)
            return (x, g, y)
    return None


def element_orders(rows: list[bytes], identity: int) -> list[int]:
    """The order of every element of the group table ``rows``.

    Each element x whose order is not yet known is walked along its powers
    x, x^2, ..., x^m = identity, and every power x^k whose order is not yet
    known gets m / gcd(k, m); so an element of a cyclic subgroup already
    walked costs no product.  A walk that reaches x^(n+1) without meeting
    ``identity`` raises ``ValueError``: that element has no finite order.
    """
    n = len(rows)
    orders = [0] * n
    for x in range(n):
        if orders[x]:
            continue
        powers = [x]
        power = x
        while power != identity:
            power = rows[power][x]
            powers.append(power)
            if len(powers) > n:
                raise ValueError(f"element {x} has no finite order; table is not a group")
        m = len(powers)
        for k, power in enumerate(powers, 1):
            if not orders[power]:
                orders[power] = m // gcd(k, m)
    return orders


# No caller in the package; perfbench/tracer.py wraps it by name, so it stays.
def is_abelian(rows: list[bytes]) -> bool:
    return rows == list(map(bytes, zip(*rows)))


def element_signatures(
    rows: list[bytes], identity: int, generators: list[int], orders: list[int]
) -> list[tuple[int, int, int]]:
    """(order, centralizer size, number of square roots) of every element.

    Every isomorphism maps an element to one with the same signature.
    ``rows`` must be a validated group table, ``generators`` its
    :func:`generating_set` and ``orders`` its :func:`element_orders`.  By
    orbit and stabilizer the centralizer of x has n / |x^G| elements, x^G
    being the conjugacy class of x; every element is a product of the
    generators, so x^G is the orbit of x under conjugation by them.
    Conjugation by s, x -> s^-1*x*s, is one ``bytes`` permutation: column s
    (every x*s) read through row s^-1.  A generator whose permutation is
    the identity is central and adds nothing, so an abelian group takes no
    orbit walk; otherwise one walk visits each element once per non-central
    generator.
    """
    n = len(rows)
    roots = [0] * n
    for y, row in enumerate(rows):
        roots[row[y]] += 1
    pad = bytes(256 - n)
    fixed = bytes(range(n))
    conjugations = []
    for s in generators:
        inverse_row = rows[rows[s].index(identity)] + pad
        conjugation = bytes(map(itemgetter(s), rows)).translate(inverse_row)
        if conjugation != fixed:
            conjugations.append(conjugation)
    centralizers = [n] * n
    if conjugations:
        seen = bytearray(n)
        for x in range(n):
            if seen[x]:
                continue
            seen[x] = 1
            orbit = [x]
            for y in orbit:
                for conjugation in conjugations:
                    z = conjugation[y]
                    if not seen[z]:
                        seen[z] = 1
                        orbit.append(z)
            size = n // len(orbit)
            for y in orbit:
                centralizers[y] = size
    return list(zip(orders, centralizers, roots))


class IsomorphismSizeError(RuntimeError):
    """A group beyond the supported order, or an isomorphism search beyond
    its node budget."""


class SearchNodes:
    """The nodes one isomorphism search has entered, and the most it may."""

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.count = 0


def find_isomorphism(
    g_rows: list[bytes],
    h_rows: list[bytes],
    g_identity: int,
    h_identity: int,
    g_generators: list[int],
    g_keys: Sequence[Hashable],
    h_keys: Sequence[Hashable],
    nodes: SearchNodes,
) -> Optional[list[int]]:
    """Lexicographically smallest isomorphism between two group tables of
    equal order; None if there is none.

    ``g_keys`` and ``h_keys`` hold an invariant of every element that any
    isomorphism preserves, such as its signature from
    :func:`element_signatures`.  The search branches only on the images of
    ``g_generators``, the :func:`generating_set` of G, which
    :class:`~spincover.groups.FiniteGroup` computes once as it validates
    the table, trying for each generator the unused
    elements of H with its key in increasing index.  Each choice extends
    the map over the subgroup generated so far by right multiplication with
    the chosen generators, and the branch is cut at the first product where
    the map stops being a well-defined injective homomorphism; as in
    Light's test, respecting every generator makes the map a homomorphism.
    Every index below the next generator is already mapped, so the first
    complete map is the smallest; the key filter drops only candidates no
    isomorphism can take, so it does not change which map that is.

    Every call of the inner ``search`` is one node, counted in ``nodes``;
    passing ``nodes.budget`` raises :class:`IsomorphismSizeError`, naming
    the budget and the order.
    """
    n = len(g_rows)
    phi = [-1] * n
    used = [False] * n
    phi[g_identity] = h_identity
    used[h_identity] = True

    def extend(chosen: list[int], trail: list[int]) -> bool:
        frontier = [x for x in range(n) if phi[x] >= 0]
        while frontier:
            x = frontier.pop()
            row_x = g_rows[x]
            image_row = h_rows[phi[x]]
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
            raise IsomorphismSizeError(f"isomorphism search passed its budget of {nodes.budget} nodes at order {n}")
        if depth == len(g_generators):
            return True
        s = g_generators[depth]
        chosen = g_generators[: depth + 1]
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


def check_isomorphism(g_rows: list[bytes], h_translate: list[bytes], mapping: list[int]) -> bool:
    """Exhaustive verification that ``mapping`` is a bijective homomorphism
    from the table ``g_rows`` to the table whose :func:`padded` rows are
    ``h_translate``."""
    n = len(g_rows)
    if len(h_translate) != n or len(mapping) != n:
        return False
    if sorted(mapping) != list(range(n)):
        return False
    # Every product at once: phi(g_i * g_j), the rows of G read through
    # phi, against h_phi(i) * h_phi(j), phi read through row phi(i) of H.
    phi = bytes(mapping)
    left = b"".join(g_rows).translate(phi + bytes(256 - n))
    right = b"".join(map(phi.translate, map(h_translate.__getitem__, phi)))
    return left == right
