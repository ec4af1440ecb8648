"""Finite groups: closure generation, Cayley tables, isomorphism search.

Groups live as labelled multiplication tables validated exhaustively on
construction, at every order: each row a permutation, a two-sided
identity, two-sided inverses, and associativity by Light's test.  Those
four make the table a group, so each column is a permutation as well
(right multiplication by y is undone by right multiplication by y^-1),
and the column half of the Latin-square check runs only to name the
violation of a rejected table.  Closure is
exact and runs over hashable elements indexed by a dict: Gaussian-rational
matrices, spacetime symmetries, or the monomial matrices of the double
groups, whose entries are 4n-th roots of unity stored as integer exponents.
One breadth-first pass lists the elements in the order it finds them and
multiplies each element by each generator once; the Cayley table is read
off those N × len(generators) products, with no product per table entry.

Isomorphism testing climbs an invariant ladder before it searches: the
element-order multiset, then, read off the element signatures (order,
centralizer size, number of square roots), abelian or not, the order of
the centre and the signature histogram.  The signatures are computed only
when the multisets agree, and the first rung that differs refutes the
pair.  Otherwise it backtracks over the images of a generating set,
matching signatures, within a node budget; it returns a verified witness
(the lexicographically smallest one) or the reason none exists.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from itertools import chain
from typing import Callable, Optional, Sequence, Union

from . import _kernels
from .cover import (
    IDENTITY2,
    IDENTITY3,
    SPACE_INVERSION,
    UnitaryMat2,
    parity_operator,
)
from .ptgroup import SpacetimeSymmetry, time_reversal_operator
from .scalars import as_sign

#: Hard cap for the isomorphism search.
ISOMORPHISM_ORDER_LIMIT = 256

#: Most nodes one isomorphism search may enter.  A node costs about 2 ms at
#: order 256, so a search that passes the budget there ends in about 20 s;
#: every pair of product specs the CLI can spell up to order 256 is decided
#: within 789.
ISOMORPHISM_NODE_BUDGET = 10_000

#: Range of principal-axis orders accepted by the double-group builder.
DOUBLE_GROUP_MIN_N = 2
DOUBLE_GROUP_MAX_N = 12


class ClosureLimitError(RuntimeError):
    """Closure passed the most elements a finite group of its generators can have."""


class IsomorphismSizeError(RuntimeError):
    """Isomorphism search requested beyond the supported order or node budget."""


class FiniteGroup:
    """A finite group as a labelled multiplication table.

    ``table[i][j]`` is the index of element i times element j.  Labels are
    display names; ``element_source`` optionally maps each label back to the
    matrix (or other object) it came from.  Construction raises
    ``ValueError`` unless the table satisfies every group axiom; no axiom
    is checked on a sample.
    """

    def __init__(
        self,
        labels: Sequence[str],
        table: Sequence[Sequence[int]],
        identity_index: int,
        element_source: Optional[dict] = None,
        name: str = "",
    ) -> None:
        self.labels = [str(x) for x in labels]
        self.table = [list(row) for row in table]
        self.identity_index = int(identity_index)
        self.element_source = dict(element_source) if element_source else None
        self.name = name
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("element labels must be unique")
        if len(self.labels) != len(self.table):
            raise ValueError("label count does not match table size")
        self._validate()
        self._orders = _kernels.element_orders(self.table, self.identity_index)

    def _validate(self) -> None:
        """Check the group axioms exhaustively.

        A table is accepted when each row is a permutation of 0..n-1, which
        also checks its shape and range, ``identity_index`` is a two-sided
        identity, every element has a two-sided inverse, and Light's test
        finds no triple that fails to associate.  Those four make it a
        group, and in a group right multiplication by y is a bijection,
        undone by right multiplication by y^-1, so every column is a
        permutation too: the column half of the Latin-square check adds
        nothing to an accepted table.  A rejected table, whether a check
        fails or raises, is run through the Latin-square check first, so
        its message is the first violation in the order Latin square,
        identity, inverses, associativity.
        """
        try:
            violation = self._axiom_violation()
        except Exception:
            self._raise_if_not_latin()
            raise
        if violation is not None:
            self._raise_if_not_latin()
            raise ValueError(violation)

    def _axiom_violation(self) -> Optional[str]:
        """The message of the first axiom the table fails, or None for a group.

        Rows come first, ahead of the inverses and Light's test, which index
        the table by its entries: a -1 would wrap round silently.  A row
        that fails here fails the Latin-square check too, which names it.
        """
        table, e, n = self.table, self.identity_index, self.order
        full = set(range(n))
        if not all(len(row) == n and set(row) == full for row in table):
            return "table is not a Latin square"
        if any(table[e][j] != j for j in range(n)) or any(table[i][e] != i for i in range(n)):
            return f"element {e} is not a two-sided identity"
        if _kernels.inverse_table(table, e) is None:
            return "some element has no two-sided inverse"
        triple = _kernels.associativity_violation(table, e)
        if triple is not None:
            return f"multiplication is not associative at triple {triple}"
        return None

    def _raise_if_not_latin(self) -> None:
        bad = _kernels.latin_square_violation(self.table)
        if bad is not None:
            raise ValueError(f"table is not a Latin square (violation at {bad})") from None

    @property
    def order(self) -> int:
        return len(self.labels)

    def order_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(self._orders))

    def is_abelian(self) -> bool:
        return _kernels.is_abelian(self.table)

    # -- rendering --------------------------------------------------------

    def cayley_text(self, omit_identity: bool = False) -> str:
        """Aligned text table; rows and columns in element order.

        With ``omit_identity`` the identity row and column are left out,
        which is the conventional compact form for the named groups here.
        """
        indices = list(range(self.order))
        if omit_identity:
            indices.remove(self.identity_index)
        header = [""] + [self.labels[j] for j in indices]
        body = [
            [self.labels[i]] + [self.labels[self.table[i][j]] for j in indices]
            for i in indices
        ]
        widths = [max(len(row[c]) for row in [header] + body) for c in range(len(header))]
        lines = []
        for row in [header] + body:
            lines.append("  ".join(cell.rjust(widths[c]) for c, cell in enumerate(row)).rstrip())
        return "\n".join(lines) + "\n"

    def cayley_json(self) -> dict:
        return {"elements": list(self.labels), "table": [list(row) for row in self.table]}

    def __repr__(self) -> str:
        name = self.name or "FiniteGroup"
        return f"<{name} of order {self.order}>"


# -- closure ------------------------------------------------------------------


def _close(
    generators: Sequence, identity, multiply: Callable, bound: int
) -> tuple[list, list[list[int]]]:
    """Breadth-first closure of hashable elements, with its Cayley table.

    Element order: identity first, then the generators in the order given,
    then each new product x·g in the order found, walking x along the
    element list while it grows.  Elements are indexed by a dict.  ``bound``
    is the most elements a finite group of these generators can have;
    :class:`ClosureLimitError` is raised when element bound + 1 would be
    added, so a refused closure costs at most bound × len(generators)
    products.

    The walk makes every product x_i·g_j once, N × len(generators) in all,
    and the Cayley table is read off them with no further product: the walk
    records the right action ``right[j][i]`` = index of x_i·g_j, and the
    (p, j) through which each element b was first found as x_p·g_j.  Then
    a·x_b = (a·x_p)·g_j, so column b is ``right[j]`` read at column p; the
    identity's column is 0..N-1.
    """
    elements: list = []
    index: dict = {}
    parents: list[Optional[tuple[int, int]]] = []
    right: list[list[int]] = [[] for _ in generators]

    def add(x, parent: Optional[tuple[int, int]]) -> int:
        i = index.get(x)
        if i is None:
            if len(elements) == bound:
                raise ClosureLimitError(
                    f"closure passed {bound} elements, the bound for a finite group "
                    "of these generators, so the group is infinite"
                )
            i = index[x] = len(elements)
            elements.append(x)
            parents.append(parent)
        return i

    add(identity, None)
    for j, g in enumerate(generators):
        add(g, (0, j))
    for p, x in enumerate(elements):
        for j, g in enumerate(generators):
            right[j].append(add(multiply(x, g), (p, j)))
    columns = [list(range(len(elements)))]
    for p, j in parents[1:]:
        columns.append(list(map(right[j].__getitem__, columns[p])))
    return elements, [list(row) for row in zip(*columns)]


def _closure_group(elements: list, table: list[list[int]], name: str) -> FiniteGroup:
    labels = [f"e{i}" for i in range(len(elements))]
    return FiniteGroup(labels, table, 0, dict(zip(labels, elements)), name)


#: The most elements a finite group of :class:`UnitaryMat2` matrices can have.
UNITARY_CLOSURE_BOUND = 48


def generate_closure(generators: Sequence[UnitaryMat2], backend: str = "exact") -> FiniteGroup:
    """Close a set of :class:`UnitaryMat2` matrices under multiplication
    into a finite group, comparing elements by exact equality.

    ``backend`` must be ``"exact"``, the only backend.  Element order is
    deterministic: identity first, then the generators in the order given,
    then each new product in the order the breadth-first walk finds it.
    Labels are ``e0``, ``e1``, ... in that order.

    A generator of infinite order raises :class:`ClosureLimitError` at once,
    and so does a closure that passes 48 elements, because every finite
    group of det +/-1 unitaries over Q(i) has at most 48:

    1. A finite-order element g has roots of unity as eigenvalues, of
       degree at most 2 over Q(i) (the characteristic polynomial has
       coefficients in Q(i)).  So they are in {+-1, +-i}, or a Q(i)-conjugate
       pair of primitive 3rd, 6th, 8th or 12th roots.  A conjugate pair of
       primitive 8th roots, z and -z, has product -z^2 = -+i, not det = +-1.
       Hence g^24 = I, the test applied to each generator.
    2. The ratio of the two eigenvalues therefore has order at most 3: it is
       +-1 for eigenvalues in {+-1, +-i} with product +-1, and a primitive
       cube root of unity for the conjugate pairs (z, 1/z) of primitive 3rd
       and 6th roots and (z, z^5) of primitive 12th roots.
    3. The image of the group in PGL2(C) is a finite group whose elements
       have order at most 3 (a unitary element's image has the order of its
       eigenvalue ratio).  By Klein's classification of the finite
       subgroups of PGL2(C) (cyclic, dihedral, A4, S4, A5) it is C1, C2,
       C3, V4, S3 or A4, with at most 12 elements.
    4. The kernel of that map is the scalars in the group, lI with
       det = l^2 = +-1, so l is in {+-1, +-i}.  The group has at most
       4 x 12 = 48 elements.

    The bound is attained: the binary tetrahedral group times <iI>.
    """
    if backend != "exact":
        raise ValueError(f"unknown backend {backend!r}")
    gens = list(generators)
    for g in gens:
        if not isinstance(g, UnitaryMat2):
            raise TypeError("generate_closure takes UnitaryMat2 generators")
        power = g * g * g
        for _ in range(3):
            power = power * power
        if power != IDENTITY2:
            raise ClosureLimitError(
                f"generator {g.to_text()} has infinite order: its 24th power is not I"
            )
    elements, table = _close(gens, IDENTITY2, lambda a, b: a * b, UNITARY_CLOSURE_BOUND)
    return _closure_group(elements, table, f"closure[{backend}]")


# -- abstract comparison groups ----------------------------------------------


def cyclic(n: int) -> FiniteGroup:
    """The cyclic group of order n, labels 1, g, g^2, ..."""
    if n < 1:
        raise ValueError("cyclic order must be at least 1")
    labels = ["1"] + [f"g^{k}" if k > 1 else "g" for k in range(1, n)]
    # Row i is (i + j) mod n: the run 0..n-1 rotated left by i.
    run = list(range(n))
    table = [run[i:] + run[:i] for i in range(n)]
    return FiniteGroup(labels, table, 0, name=f"Z{n}")


def dihedral(order: int) -> FiniteGroup:
    """The dihedral group of the given (even) order 2m:
    <r, s | r^m = s^2 = 1, s r s^-1 = r^-1>.  Elements are the m rotations
    r^k followed by the m reflections r^k·s."""
    if order < 2 or order % 2 != 0:
        raise ValueError("dihedral order must be an even number >= 2")
    return _inverting_extension(order // 2, 0, "r", "s", f"Dih{order}")


def dicyclic(order: int) -> FiniteGroup:
    """The dicyclic group of the given order 4n (order 8 is the quaternion
    group): <a, b | a^{2n} = 1, b^2 = a^n, b a b^-1 = a^-1>.  Elements are
    the powers a^k followed by the a^k·b."""
    if order < 4 or order % 4 != 0:
        raise ValueError("dicyclic order must be a multiple of 4, at least 4")
    return _inverting_extension(order // 2, order // 4, "a", "b", f"Dic{order}")


def _inverting_extension(m: int, square: int, x: str, y: str, name: str) -> FiniteGroup:
    """<x, y | x^m = 1, y^2 = x^square, y x y^-1 = x^-1>, of order 2m;
    index k is x^k and index m + k is x^k·y, for 0 <= k < m.

    From y x^l = x^-l y and y y = x^square, row x^k is x^(k+l) then
    x^(k+l)·y, and row x^k·y is x^(k-l)·y then x^(k-l+square), for
    l = 0 .. m-1.  Each half of a row is a rotation of one of the index
    runs 0..m-1 and m..2m-1, read forwards for x^k and backwards for x^k·y.
    """
    powers = list(range(m))
    cosets = list(range(m, 2 * m))
    powers_down = powers[::-1]
    cosets_down = cosets[::-1]
    table = [powers[k:] + powers[:k] + cosets[k:] + cosets[:k] for k in range(m)]
    for k in range(m):
        # The backward runs start at x^k·y and at x^(k+square).
        c = m - 1 - k
        p = (c - square) % m
        table.append(cosets_down[c:] + cosets_down[:c] + powers_down[p:] + powers_down[:p])
    labels = [_power_label(x, k) for k in range(m)] + [
        y if k == 0 else f"{_power_label(x, k)}·{y}" for k in range(m)
    ]
    return FiniteGroup(labels, table, 0, name=name)


def _power_label(symbol: str, k: int) -> str:
    if k == 0:
        return "1"
    if k == 1:
        return symbol
    return f"{symbol}^{k}"


def direct_product(g: FiniteGroup, *others: FiniteGroup) -> FiniteGroup:
    """The direct product G x H x ... of one or more groups, as one table.

    Element (a, b, ...) is labelled like the nested binary products,
    ``((a,b),c)``, and has the mixed-radix index
    ``(a * |H| + b) * |K| + c ...``, the index the nested binary products
    give it.  Only the full product becomes a :class:`FiniteGroup`, so it
    is validated once; a single factor is returned as it is.
    """
    if not others:
        return g
    labels, table, identity, names = g.labels, g.table, g.identity_index, [g.name]
    for h in others:
        order_h = h.order
        labels = [f"({a},{b})" for a in labels for b in h.labels]
        # Row (a1, b1) is row a1 of the product so far with each entry a
        # replaced by the block a * |H| + (row b1 of H): one concatenation
        # of precomputed blocks per row, not one expression per entry.
        offsets = range(0, len(table) * order_h, order_h)
        blocks = [[[a + b for b in h_row] for a in offsets] for h_row in h.table]
        table = [
            list(chain.from_iterable(map(row_blocks.__getitem__, row)))
            for row in table
            for row_blocks in blocks
        ]
        identity = identity * order_h + h.identity_index
        names.append(h.name)
    name = "x".join(names) if all(names) else ""
    return FiniteGroup(labels, table, identity, name=name)


# -- isomorphism testing ------------------------------------------------------


@dataclass(frozen=True)
class IsomorphismWitness:
    """A bijection of element indices verified to preserve all products."""

    mapping: tuple[int, ...]


def verify_isomorphism(g: FiniteGroup, h: FiniteGroup, mapping: Sequence[int]) -> bool:
    """Exhaustively check a candidate mapping for bijectivity and the
    homomorphism law on every pair."""
    return _kernels.check_isomorphism(g.table, h.table, list(mapping))


#: Names of the ladder rungs and of the search, as :class:`Refutation` reports them.
ORDER_MULTISET = "element-order multiset"
ABELIAN = "abelian"
CENTRE_ORDER = "centre order"
SIGNATURES = "element signatures"
EXHAUSTIVE_SEARCH = "exhaustive search"


@dataclass(frozen=True)
class Refutation:
    """Why two groups are not isomorphic.

    ``invariant`` names the ladder rung that differs, and ``group_a`` and
    ``group_b`` hold its value on each group; for :data:`SIGNATURES` that
    is the rows [order, centralizer size, square roots, count] whose counts
    differ.  After an :data:`EXHAUSTIVE_SEARCH` the values are None and
    ``search_nodes`` counts the nodes the search entered; a rung's is 0.
    """

    invariant: str
    group_a: object = None
    group_b: object = None
    search_nodes: int = 0

    def text(self) -> str:
        if self.invariant == EXHAUSTIVE_SEARCH:
            return f"{EXHAUSTIVE_SEARCH}: no isomorphism in {self.search_nodes} nodes"
        return f"{self.invariant}: {self.group_a} vs {self.group_b}"

    def to_json(self) -> dict:
        return asdict(self)


def _signature_differences(
    g_signatures: list[tuple[int, int, int]], h_signatures: list[tuple[int, int, int]]
) -> tuple[list[list[int]], list[list[int]]]:
    """The signature histograms of two groups, restricted to the signatures
    whose counts differ, as rows [order, centralizer size, square roots, count]."""
    g_counts, h_counts = Counter(g_signatures), Counter(h_signatures)
    differing = sorted(s for s in g_counts | h_counts if g_counts[s] != h_counts[s])
    return (
        [[*s, g_counts[s]] for s in differing],
        [[*s, h_counts[s]] for s in differing],
    )


def decide_isomorphism(
    g: FiniteGroup, h: FiniteGroup
) -> Union[IsomorphismWitness, Refutation]:
    """A verified isomorphism from ``g`` to ``h``, or why there is none.

    Sound and complete up to order 256; a larger order, or a search that
    passes :data:`ISOMORPHISM_NODE_BUDGET` nodes, raises
    :class:`IsomorphismSizeError`.  The invariant ladder runs first, each
    rung only when every rung before it agrees:

    1. the element-order multiset (which also compares the orders);

    and then, from the element signatures (order, centralizer size, number
    of square roots) of both groups:

    2. abelian or not: every centralizer is the whole group;
    3. the order of the centre: the elements whose centralizer is the whole
       group;
    4. the histogram of element signatures.

    The search then matches each generator only with elements of its
    signature.  Any witness returned has been verified exhaustively and is
    the lexicographically smallest mapping by element index.
    """
    if g.order > ISOMORPHISM_ORDER_LIMIT or h.order > ISOMORPHISM_ORDER_LIMIT:
        raise IsomorphismSizeError(
            f"isomorphism search supports orders up to {ISOMORPHISM_ORDER_LIMIT}"
        )
    if g.order_multiset() != h.order_multiset():
        return Refutation(ORDER_MULTISET, list(g.order_multiset()), list(h.order_multiset()))
    g_keys = _kernels.element_signatures(g.table, g._orders)
    h_keys = _kernels.element_signatures(h.table, h._orders)
    g_centre = sum(1 for s in g_keys if s[1] == g.order)
    h_centre = sum(1 for s in h_keys if s[1] == h.order)
    abelian = g_centre == g.order
    if abelian != (h_centre == h.order):
        return Refutation(ABELIAN, abelian, not abelian)
    if g_centre != h_centre:
        return Refutation(CENTRE_ORDER, g_centre, h_centre)
    g_rows, h_rows = _signature_differences(g_keys, h_keys)
    if g_rows:
        return Refutation(SIGNATURES, g_rows, h_rows)
    nodes = _kernels.SearchNodes(ISOMORPHISM_NODE_BUDGET)
    try:
        mapping = _kernels.find_isomorphism(
            g.table, h.table, g.identity_index, h.identity_index, g_keys, h_keys, nodes
        )
    except _kernels.NodeBudgetError as exc:
        raise IsomorphismSizeError(f"{exc} at order {g.order}") from None
    if mapping is None:
        return Refutation(EXHAUSTIVE_SEARCH, search_nodes=nodes.count)
    if not verify_isomorphism(g, h, mapping):  # defensive; the search verifies
        raise RuntimeError("isomorphism search returned an invalid mapping")
    return IsomorphismWitness(tuple(mapping))


def find_isomorphism(g: FiniteGroup, h: FiniteGroup) -> Optional[IsomorphismWitness]:
    """The verified, lexicographically smallest isomorphism from ``g`` to
    ``h``; None if the groups are not isomorphic.  :func:`decide_isomorphism`
    does the work and also says why a pair is not isomorphic."""
    outcome = decide_isomorphism(g, h)
    return outcome if isinstance(outcome, IsomorphismWitness) else None


# -- the named parity/time-reversal groups ------------------------------------


def _listed_group(named: dict, identity, name: str) -> FiniteGroup:
    """The group of the keys of ``named``, labelled by its values, with its
    elements in the order listed; :class:`FiniteGroup` validates it."""
    elements = list(named)
    index = {e: k for k, e in enumerate(elements)}
    table = [[index[a * b] for b in elements] for a in elements]
    return FiniteGroup(
        named.values(), table, index[identity], {named[e]: e for e in elements}, name
    )


def spinor_pt_group() -> FiniteGroup:
    """The order-8 group of the parity and time-reversal matrices, Z4 x Z2.

    As operators, with time reversal antiunitary, the same lifts generate
    the quaternion group instead (see :mod:`spincover.ptgroup`).

    Elements are labelled I, -I, P, T, PT and negatives, ordered so that a
    rendering without the identity row gives the conventional 7x7 table.
    """
    parity = parity_operator()
    treverse = time_reversal_operator()
    named = {
        parity: "P",
        treverse: "T",
        parity * treverse: "PT",
        -parity: "-P",
        -treverse: "-T",
        -(parity * treverse): "-PT",
        -IDENTITY2: "-I",
        IDENTITY2: "I",
    }
    return _listed_group(named, IDENTITY2, "spinor-PT")


def spacetime_pt_group() -> FiniteGroup:
    """The Klein-type group generated by spatial inversion and time flip,
    at the level of spacetime symmetries (no spinor lift)."""
    p = SpacetimeSymmetry(SPACE_INVERSION, 1)
    t = SpacetimeSymmetry(IDENTITY3, -1)
    identity = SpacetimeSymmetry(IDENTITY3, 1)
    return _listed_group({p: "P", t: "T", p * t: "PT", identity: "1"}, identity, "spacetime-PT")


# -- double groups -------------------------------------------------------------


# A double-group element is a monomial 2x2 matrix whose nonzero entries are
# powers of w = e^{i pi/2n}, stored exactly as a triple (swap, k1, k2) of
# exponents mod 4n: swap = 0 is diag(w^k1, w^k2); swap = 1 is the
# antidiagonal matrix with w^k1 top right and w^k2 bottom left.
Monomial = tuple[int, int, int]


def _monomial_mul(modulus: int) -> Callable[[Monomial, Monomial], Monomial]:
    def times(a: Monomial, b: Monomial) -> Monomial:
        s1, k1, k2 = a
        s2, l1, l2 = b
        if s1:
            l1, l2 = l2, l1
        return (s1 ^ s2, (k1 + l1) % modulus, (k2 + l2) % modulus)

    return times


def double_group(family: str, n: int, parity_square: int = -1) -> FiniteGroup:
    """The spinor double of a rotation or reflection point group of axis
    order n, closed exactly over monomial matrices; resulting order is 4n.

    ``family="Dn"``: generators are the principal-axis lift
    diag(e^{-i pi/n}, e^{i pi/n}) and the lift -i*sigma of a perpendicular
    half turn about the x axis.  ``family="Cnv"``: the second generator is
    the lift of the mirror normal to the x axis, built as the parity lift
    times the half-turn lift; the parity convention is selectable,
    ``parity_square=-1`` meaning the parity lift squares to -I (the mirror
    lift then squares to +I) and ``parity_square=+1`` the reverse.
    ``element_source`` maps each label to its ``(swap, k1, k2)`` triple.
    """
    if not (DOUBLE_GROUP_MIN_N <= n <= DOUBLE_GROUP_MAX_N):
        raise ValueError(
            f"axis order must be between {DOUBLE_GROUP_MIN_N} and {DOUBLE_GROUP_MAX_N}"
        )
    as_sign(parity_square, "parity_square")
    if family not in ("Cnv", "Dn"):
        raise ValueError("family must be 'Cnv' or 'Dn'")
    # The half-turn lift -i*sigma_x, and sigma_x itself.
    half_turn = (1, 3 * n, 3 * n)
    pauli_x = (1, 0, 0)
    # The mirror lift is the parity lift (i*I when it squares to -I, else
    # I) times the half-turn lift.
    second = pauli_x if family == "Cnv" and parity_square == -1 else half_turn
    modulus = 4 * n
    axis_gen = (0, modulus - 2, 2)
    elements, table = _close([axis_gen, second], (0, 0, 0), _monomial_mul(modulus), modulus)
    return _closure_group(elements, table, f"double[{family}:{n}]")


@dataclass(frozen=True)
class DoubleGroupVerdict:
    """Outcome of comparing the two double groups for one axis order."""

    n: int
    convention: int
    isomorphic: bool
    witness: Optional[tuple[int, ...]]
    invariant_used: Optional[str]
    claim_match: bool

    def to_json(self) -> dict:
        out: dict = {
            "n": self.n,
            "convention": self.convention,
            "isomorphic": self.isomorphic,
            "paper_claim_match": self.claim_match,
        }
        if self.witness is not None:
            out["witness"] = list(self.witness)
        if self.invariant_used is not None:
            out["invariant_used"] = self.invariant_used
        return out


def double_group_verdict(n: int) -> list[DoubleGroupVerdict]:
    """Compare the reflection and rotation double groups of axis order n
    under both parity conventions, by :func:`decide_isomorphism`.

    The expectation being tested: with a parity lift squaring to +I the two
    doubles are isomorphic, and with the lift squaring to -I they are not.
    ``claim_match`` records whether the computed verdict agrees; a mismatch
    is reported, not raised.  ``invariant_used`` is the text of the
    :class:`Refutation` of a pair that is not isomorphic.
    """
    rotation_double = double_group("Dn", n)
    verdicts = []
    for convention in (1, -1):
        reflection_double = double_group("Cnv", n, parity_square=convention)
        outcome = decide_isomorphism(reflection_double, rotation_double)
        isomorphic = isinstance(outcome, IsomorphismWitness)
        expected_isomorphic = convention == 1
        verdicts.append(
            DoubleGroupVerdict(
                n=n,
                convention=convention,
                isomorphic=isomorphic,
                witness=outcome.mapping if isomorphic else None,
                invariant_used=None if isomorphic else outcome.text(),
                claim_match=isomorphic == expected_isomorphic,
            )
        )
    return verdicts
