"""Finite groups: closure generation, Cayley tables, isomorphism search.

Groups live as labelled multiplication tables validated exhaustively on
construction, at every order up to 256.  Every constructor builds the
table as ``bytes`` rows, the one format of :mod:`spincover._kernels`,
whose checks read a row as a :meth:`bytes.translate` table; a translate
table has 256 entries, so every group, and every constructor before it
builds a row, refuses a larger order with :class:`IsomorphismSizeError`.
Validation checks the shape and, in one call, the range of the entries,
then a two-sided identity, two-sided inverses, and associativity by
Light's test.  Those make the table a group, so its rows and columns are
permutations, and the Latin-square check runs only to name the fault of
a rejected table.  Closure is exact and runs over hashable elements
indexed by a dict: Gaussian-rational matrices, spacetime symmetries, or
the monomial matrices of the double groups, whose entries are 4n-th roots
of unity stored as integer exponents.  One breadth-first pass lists the
elements in the order it finds them and multiplies each element by each
generator once; the Cayley table is read off those N × len(generators)
products, with no product per table entry.  The named P/T tables,
:func:`spinor_pt_group` and :func:`spacetime_pt_group`, are built from
:func:`spincover.ptgroup.pt_symmetries`, the one definition of P, T and PT.

Isomorphism testing climbs an invariant ladder before it searches: the
element-order multiset, then, read off the element signatures (order,
centralizer size, number of square roots), abelian or not, the order of
the centre and the signature histogram.  The signatures are computed only
when the multisets agree, and the first rung that differs refutes the
pair.  Otherwise it backtracks over the images of the generating set
that validation picked, matching signatures, within a node budget; it returns a verified witness
(the lexicographically smallest one) or the reason none exists.
"""

from __future__ import annotations

from collections import Counter
from math import prod
from operator import itemgetter
from typing import Callable, Optional, Sequence, Union

from . import _kernels
from .cover import IDENTITY2, IDENTITY3, UnitaryMat2
from .ptgroup import SpacetimeSymmetry, pt_symmetries, spacetime_projection
from .scalars import Record, as_sign

#: Largest order of any :class:`FiniteGroup`, and so of the isomorphism
#: search: tables are kept as byte rows, one byte per element index, and a
#: row is read as a 256-entry :meth:`bytes.translate` table.
ISOMORPHISM_ORDER_LIMIT = 256

#: Most nodes one isomorphism search may enter.  A node costs about 1.2 ms
#: at order 256 (Python 3.11.7, one core of a 2-vCPU Intel Xeon), so a
#: search that passes the budget there ends in about 12 s; every pair of
#: product specs the CLI can spell up to order 256 is decided within 789.
ISOMORPHISM_NODE_BUDGET = 10_000

#: Range of principal-axis orders accepted by the double-group builder.
DOUBLE_GROUP_MIN_N = 2
DOUBLE_GROUP_MAX_N = 12


class ClosureLimitError(RuntimeError):
    """Closure passed the most elements a finite group of its generators can have."""


class IsomorphismSizeError(RuntimeError):
    """A group beyond the supported order, or an isomorphism search beyond
    its node budget."""


def _as_order(value: int, name: str) -> int:
    """The one type check of an order: an int.  Any other type, a bool or
    a float too, is a TypeError."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")
    return value


def _check_order(order: int) -> None:
    """Refuse an order above :data:`ISOMORPHISM_ORDER_LIMIT`, before any
    table of that order is built."""
    if order > ISOMORPHISM_ORDER_LIMIT:
        raise IsomorphismSizeError(f"groups are supported up to order {ISOMORPHISM_ORDER_LIMIT}")


class FiniteGroup:
    """A finite group as a labelled multiplication table.

    ``table[i][j]`` is the index of element i times element j.  The group
    keeps the rows as bytes, ``_rows``: a ``bytes`` row as it is, any other
    row converted once; :attr:`table` is a list-of-lists copy of them.
    Validation computes the table's generating set once, ``_generators``
    (:func:`spincover._kernels.generating_set` from the identity), for
    Light's test, and keeps it for the element signatures and the
    isomorphism search.
    Labels are display names; ``element_source`` optionally maps each label
    back to the matrix (or other object) it came from.  Construction raises
    ``ValueError`` unless the table satisfies every group axiom; no axiom
    is checked on a sample.  More than 256 labels raise
    :class:`IsomorphismSizeError` before the table is read.
    """

    def __init__(
        self,
        labels: Sequence[str],
        table: Sequence[Sequence[int]],
        identity_index: int,
        element_source: Optional[dict] = None,
        name: str = "",
    ) -> None:
        _check_order(len(labels))
        self.labels = [str(x) for x in labels]
        self.identity_index = int(identity_index)
        self.element_source = dict(element_source) if element_source else None
        self.name = name
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("element labels must be unique")
        if len(self.labels) != len(table):
            raise ValueError("label count does not match table size")
        self._validate(table)
        self._orders = _kernels.element_orders(self._rows, self.identity_index)

    def _validate(self, table: Sequence[Sequence[int]]) -> None:
        """Check the group axioms exhaustively.

        A table is accepted when every row has n entries in 0..n-1, with
        ``identity_index`` a two-sided identity, two-sided inverses, and no
        failure of Light's test.  With entries in range, Light's lemma holds
        in any magma and the generating set reaches every element from the
        identity, so the table is associative, hence a group, whose rows and
        columns are permutations: multiplication by y is undone by y^-1.  So
        the Latin-square check runs only on a rejected table, as given,
        whether a check fails or raises, and the message is the first
        violation in the order Latin square, identity, inverses,
        associativity.
        """
        try:
            violation = self._axiom_violation(table)
        except Exception:
            _raise_if_not_latin(table)
            raise
        if violation is not None:
            _raise_if_not_latin(table)
            raise ValueError(violation)

    def _axiom_violation(self, table: Sequence[Sequence[int]]) -> Optional[str]:
        """The message of the first axiom the table fails, or None for a group.

        ``iter`` refuses an int in place of a row, which ``bytes`` would
        read as that many zero bytes.  Shape and range come ahead of the
        checks that index by entries; deleting every byte below n from all
        rows at once leaves the entries out of range.  The identity must be
        in range too, so that -1 cannot wrap round to the last row.
        """
        e, n = self.identity_index, self.order
        rows = self._rows = [row if isinstance(row, bytes) else bytes(iter(row)) for row in table]
        indices = bytes(range(n))
        if any(len(row) != n for row in rows) or b"".join(rows).translate(None, indices):
            return "table is not a Latin square"
        if not 0 <= e < n or rows[e] != indices or bytes(map(itemgetter(e), rows)) != indices:
            return f"element {e} is not a two-sided identity"
        self._padded = _kernels.padded(rows)
        if _kernels.inverse_table(rows, e) is None:
            return "some element has no two-sided inverse"
        self._generators = _kernels.generating_set(rows, e)
        triple = _kernels.associativity_violation(rows, self._padded, self._generators)
        if triple is not None:
            return f"multiplication is not associative at triple {triple}"
        return None

    @property
    def table(self) -> list[list[int]]:
        return [list(row) for row in self._rows]

    @property
    def order(self) -> int:
        return len(self.labels)

    def order_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(self._orders))

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
            [self.labels[i]] + [self.labels[self._rows[i][j]] for j in indices]
            for i in indices
        ]
        widths = [max(len(row[c]) for row in [header] + body) for c in range(len(header))]
        lines = []
        for row in [header] + body:
            lines.append("  ".join(cell.rjust(widths[c]) for c, cell in enumerate(row)).rstrip())
        return "\n".join(lines) + "\n"

    def cayley_json(self) -> dict:
        return {"elements": list(self.labels), "table": self.table}

    def __repr__(self) -> str:
        name = self.name or "FiniteGroup"
        return f"<{name} of order {self.order}>"


def _raise_if_not_latin(table: Sequence[Sequence[int]]) -> None:
    bad = _kernels.latin_square_violation(table)
    if bad is not None:
        raise ValueError(f"table is not a Latin square (violation at {bad})") from None


# -- closure ------------------------------------------------------------------


def _close(
    generators: Sequence, identity, multiply: Callable, bound: int
) -> tuple[list, list[bytes]]:
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
    identity's column is 0..N-1.  The rows are returned as bytes.
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
    return elements, list(map(bytes, zip(*columns)))


def _closure_group(elements: list, rows: list[bytes], name: str) -> FiniteGroup:
    labels = [f"e{i}" for i in range(len(elements))]
    return FiniteGroup(labels, rows, 0, dict(zip(labels, elements)), name)


#: The most elements a finite group of :class:`UnitaryMat2` matrices can have.
UNITARY_CLOSURE_BOUND = 48


def generate_closure(generators: Sequence[UnitaryMat2], backend: str = "exact") -> FiniteGroup:
    """Close a set of :class:`UnitaryMat2` matrices under multiplication
    into a finite group, comparing elements by exact equality.

    ``backend`` must be ``"exact"``, the only backend; perfbench/tracer.py's
    closure wrapper binds the argument by name, so it stays.  Element order is
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
    elements, rows = _close(gens, IDENTITY2, lambda a, b: a * b, UNITARY_CLOSURE_BOUND)
    return _closure_group(elements, rows, f"closure[{backend}]")


# -- abstract comparison groups ----------------------------------------------


def cyclic(n: int) -> FiniteGroup:
    """The cyclic group of order n, labels 1, g, g^2, ..."""
    if _as_order(n, "cyclic order") < 1:
        raise ValueError("cyclic order must be at least 1")
    _check_order(n)
    labels = [_power_label("g", k) for k in range(n)]
    # Row i is (i + j) mod n: the run 0..n-1 rotated left by i.
    run = bytes(range(n))
    rows = [run[i:] + run[:i] for i in range(n)]
    return FiniteGroup(labels, rows, 0, name=f"Z{n}")


def dihedral(order: int) -> FiniteGroup:
    """The dihedral group of the given (even) order 2m:
    <r, s | r^m = s^2 = 1, s r s^-1 = r^-1>.  Elements are the m rotations
    r^k followed by the m reflections r^k·s."""
    if _as_order(order, "dihedral order") < 2 or order % 2 != 0:
        raise ValueError("dihedral order must be an even number >= 2")
    return _inverting_extension(order // 2, 0, "r", "s", f"Dih{order}")


def dicyclic(order: int) -> FiniteGroup:
    """The dicyclic group of the given order 4n (order 8 is the quaternion
    group): <a, b | a^{2n} = 1, b^2 = a^n, b a b^-1 = a^-1>.  Elements are
    the powers a^k followed by the a^k·b."""
    if _as_order(order, "dicyclic order") < 4 or order % 4 != 0:
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
    _check_order(2 * m)
    powers = bytes(range(m))
    cosets = bytes(range(m, 2 * m))
    powers_down = powers[::-1]
    cosets_down = cosets[::-1]
    rows = [powers[k:] + powers[:k] + cosets[k:] + cosets[:k] for k in range(m)]
    for k in range(m):
        # The backward runs start at x^k·y and at x^(k+square).
        c = m - 1 - k
        p = (c - square) % m
        rows.append(cosets_down[c:] + cosets_down[:c] + powers_down[p:] + powers_down[:p])
    labels = [_power_label(x, k) for k in range(m)] + [
        y if k == 0 else f"{_power_label(x, k)}·{y}" for k in range(m)
    ]
    return FiniteGroup(labels, rows, 0, name=name)


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
    factors = (g, *others)
    _check_order(prod(f.order for f in factors))
    labels, identity = g.labels, g.identity_index
    for h in others:
        labels = [f"({a},{b})" for a in labels for b in h.labels]
        identity = identity * h.order + h.identity_index
    # The rows are built right to left, as G x (H x (K x ...)), which has
    # the same indices, so a row joins |F| blocks, F the factor added, and
    # never one block per element of the product so far.  Row (a1, b1) of
    # F x P is row a1 of F with each entry a replaced by ``blocks[b1](a)``:
    # row b1 of P read through the translate table that adds a * |P|, which
    # stays below 256 by the order check above.
    rows = factors[-1]._rows
    for f in reversed(factors[:-1]):
        offsets = range(0, f.order * len(rows), len(rows))
        shifts = [bytes(range(a, 256)) + bytes(a) for a in offsets]
        blocks = [[row.translate(shift) for shift in shifts].__getitem__ for row in rows]
        rows = [b"".join(map(block, f_row)) for f_row in f._rows for block in blocks]
    names = [f.name for f in factors]
    return FiniteGroup(labels, rows, identity, name="x".join(names) if all(names) else "")


# -- isomorphism testing ------------------------------------------------------


class IsomorphismWitness(Record):
    """A bijection of element indices verified to preserve all products."""

    __slots__ = ("mapping",)


def verify_isomorphism(g: FiniteGroup, h: FiniteGroup, mapping: Sequence[int]) -> bool:
    """Exhaustively check a candidate mapping for bijectivity and the
    homomorphism law on every pair."""
    return _kernels.check_isomorphism(g._rows, h._padded, list(mapping))


#: Names of the ladder rungs and of the search, as :class:`Refutation` reports them.
ORDER_MULTISET = "element-order multiset"
ABELIAN = "abelian"
CENTRE_ORDER = "centre order"
SIGNATURES = "element signatures"
EXHAUSTIVE_SEARCH = "exhaustive search"


class Refutation(Record):
    """Why two groups are not isomorphic.

    ``invariant`` names the ladder rung that differs, and ``group_a`` and
    ``group_b`` hold its value on each group; for :data:`SIGNATURES` that
    is the rows [order, centralizer size, square roots, count] whose counts
    differ.  After an :data:`EXHAUSTIVE_SEARCH` the values are None and
    ``search_nodes`` counts the nodes the search entered; a rung's is 0.
    The constructor stores a list value as a tuple, nested lists too, so a
    refutation hashes; :meth:`text` and :meth:`to_json` give them as lists.
    """

    __slots__ = ("invariant", "group_a", "group_b", "search_nodes")

    def __init__(
        self, invariant: str, group_a: object = None, group_b: object = None, search_nodes: int = 0
    ) -> None:
        super().__init__(invariant, _as_tuples(group_a), _as_tuples(group_b), search_nodes)

    def text(self) -> str:
        if self.invariant == EXHAUSTIVE_SEARCH:
            return f"{EXHAUSTIVE_SEARCH}: no isomorphism in {self.search_nodes} nodes"
        return f"{self.invariant}: {_as_lists(self.group_a)} vs {_as_lists(self.group_b)}"

    def to_json(self) -> dict:
        """The fields by name, tuples given as lists."""
        return dict(zip(self.__slots__, map(_as_lists, self._fields())))


def _as_tuples(value: object) -> object:
    return tuple(map(_as_tuples, value)) if isinstance(value, (list, tuple)) else value


def _as_lists(value: object) -> object:
    return list(map(_as_lists, value)) if isinstance(value, tuple) else value


def _signature_differences(
    g_signatures: list[tuple[int, int, int]], h_signatures: list[tuple[int, int, int]]
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The signature histograms of two groups, restricted to the signatures
    whose counts differ, as rows (order, centralizer size, square roots, count)."""
    g_counts, h_counts = Counter(g_signatures), Counter(h_signatures)
    differing = sorted(s for s in g_counts | h_counts if g_counts[s] != h_counts[s])
    return (
        tuple((*s, g_counts[s]) for s in differing),
        tuple((*s, h_counts[s]) for s in differing),
    )


def decide_isomorphism(
    g: FiniteGroup, h: FiniteGroup
) -> Union[IsomorphismWitness, Refutation]:
    """A verified isomorphism from ``g`` to ``h``, or why there is none.

    Sound and complete at every order a :class:`FiniteGroup` can have (up
    to 256); a search that passes :data:`ISOMORPHISM_NODE_BUDGET` nodes
    raises :class:`IsomorphismSizeError`.  The invariant ladder runs first, each
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
    the lexicographically smallest mapping by element index.  When ``h`` is
    ``g``, the one object, its signatures are computed once.
    """
    if g.order_multiset() != h.order_multiset():
        return Refutation(ORDER_MULTISET, g.order_multiset(), h.order_multiset())
    g_keys = _kernels.element_signatures(g._rows, g.identity_index, g._generators, g._orders)
    if h is g:
        h_keys = g_keys
    else:
        h_keys = _kernels.element_signatures(h._rows, h.identity_index, h._generators, h._orders)
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
            g._rows, h._rows, g.identity_index, h.identity_index, g._generators,
            g_keys, h_keys, nodes,
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
    rows = [bytes(index[a * b] for b in elements) for a in elements]
    return FiniteGroup(
        named.values(), rows, index[identity], {named[e]: e for e in elements}, name
    )


def _pt_matrices() -> dict[UnitaryMat2, str]:
    """The eight matrices of :func:`spinor_pt_group` by label, in its order:
    the matrices of :func:`~spincover.ptgroup.pt_symmetries`, their
    negatives, then -I and I."""
    named = {symmetry.matrix: label for label, symmetry in pt_symmetries().items()}
    return {**named, **{-m: "-" + label for m, label in named.items()}, -IDENTITY2: "-I", IDENTITY2: "I"}


def spinor_pt_group() -> FiniteGroup:
    """The order-8 group of the parity and time-reversal matrices, Z4 x Z2.

    As operators, with time reversal antiunitary, the same lifts generate
    the quaternion group instead (see :mod:`spincover.ptgroup`).

    Elements are the matrices of P, T and PT from
    :func:`~spincover.ptgroup.pt_symmetries`, their negatives, then -I and
    I, so that a rendering without the identity row gives the conventional
    7x7 table.
    """
    return _listed_group(_pt_matrices(), IDENTITY2, "spinor-PT")


def spacetime_pt_group() -> FiniteGroup:
    """The Klein group that P, T and PT project to in O(3) x Z2: the
    :func:`~spincover.ptgroup.spacetime_projection` of each, then the
    identity, so the table is computed from the cover."""
    identity = SpacetimeSymmetry(IDENTITY3, 1)
    named = {spacetime_projection(symmetry): label for label, symmetry in pt_symmetries().items()}
    return _listed_group({**named, identity: "1"}, identity, "spacetime-PT")


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


def _double_generators(family: str, n: int, parity_square: int) -> tuple[Monomial, Monomial]:
    """The two generators of :func:`double_group`'s group, after checking
    its arguments: the principal-axis lift, then the half-turn or mirror
    lift."""
    if not (DOUBLE_GROUP_MIN_N <= _as_order(n, "axis order") <= DOUBLE_GROUP_MAX_N):
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
    return (0, 4 * n - 2, 2), second


def _close_double(generators: tuple[Monomial, Monomial], family: str, n: int) -> FiniteGroup:
    modulus = 4 * n
    elements, rows = _close(generators, (0, 0, 0), _monomial_mul(modulus), modulus)
    return _closure_group(elements, rows, f"double[{family}:{n}]")


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
    return _close_double(_double_generators(family, n, parity_square), family, n)


class DoubleGroupVerdict(Record):
    """Outcome of comparing the two double groups for one axis order."""

    __slots__ = ("n", "convention", "isomorphic", "witness", "invariant_used", "claim_match")

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


def double_group_verdict(
    n: int, conventions: Sequence[int] = (1, -1)
) -> list[DoubleGroupVerdict]:
    """Compare the reflection and rotation double groups of axis order n
    under each parity convention of ``conventions``, in that order, by
    :func:`decide_isomorphism`.

    The expectation being tested: with a parity lift squaring to +I the two
    doubles are isomorphic, and with the lift squaring to -I they are not.
    ``claim_match`` records whether the computed verdict agrees; a mismatch
    is reported, not raised.  ``invariant_used`` is the text of the
    :class:`Refutation` of a pair that is not isomorphic.

    A call closes each distinct generating set once.  A parity lift that
    squares to +I is I itself, so the mirror lift is the half-turn lift and
    the reflection double is the rotation double, the same object: both
    conventions close two groups, and ``conventions=(1,)`` closes one.  That
    pair is still decided by the ladder and the search, like any other.
    """
    closed: dict[tuple[Monomial, Monomial], FiniteGroup] = {}

    def double(family: str, parity_square: int) -> FiniteGroup:
        generators = _double_generators(family, n, parity_square)
        group = closed.get(generators)
        if group is None:
            group = closed[generators] = _close_double(generators, family, n)
        return group

    rotation_double = double("Dn", -1)
    verdicts = []
    for convention in conventions:
        outcome = decide_isomorphism(double("Cnv", convention), rotation_double)
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
