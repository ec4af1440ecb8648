"""Tests of the table kernels, with brute-force oracles.

The kernels read tables as byte rows (``rows_of``), and read a row padded
to 256 bytes as a ``bytes.translate`` table; the oracles here read the
list-of-lists tables, at order 1, at padded orders and at order 256,
where the rows are their own translate tables.

``associativity_violation`` checks only a generating set (Light's test);
the oracle here checks every triple, on group tables and on perturbed
copies of them that break associativity.  ``FiniteGroup`` validation skips
the Latin-square check on the tables it accepts, and checks only the shape
and range of the entries before the identity; the ordered validator here
checks every axiom in turn.  ``element_orders``
walks cyclic subgroups; the oracle powers every element.
"""

import random
from operator import itemgetter

import pytest

from spincover import _kernels
from spincover.groups import (
    FiniteGroup,
    IsomorphismSizeError,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    double_group,
    spinor_pt_group,
)
from test_groups import metacyclic

def rows_of(table):
    """The byte rows of a list-of-lists table, the kernels' format."""
    return [bytes(row) for row in table]


def translate_of(table):
    return _kernels.padded(rows_of(table))


def generators_of(table, identity):
    return _kernels.generating_set(rows_of(table), identity)


# A Latin square with two-sided identity 0 that is not associative.
LOOP_5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def loop_times_z2(loop):
    """Direct product of a loop with Z2, the Z2 bit in the low position, so
    the first element after the identity is central and associates."""
    n = 2 * len(loop)
    return [[loop[i >> 1][j >> 1] << 1 | (i ^ j) & 1 for j in range(n)] for i in range(n)]


def sample_groups():
    return [
        cyclic(1),
        cyclic(7),
        direct_product(cyclic(2), cyclic(2)),
        dihedral(8),
        dicyclic(12),
        spinor_pt_group(),
        direct_product(cyclic(3), dihedral(6)),
    ]


def order_256_groups():
    return [
        dicyclic(256),
        dihedral(256),
        direct_product(cyclic(16), cyclic(16)),
        direct_product(*[cyclic(2)] * 8),
    ]


def intercalates(table, identity, row_pairs=None):
    """Every (i, j, a, b) with i < j, a < b, t[i][a] == t[j][b] and
    t[i][b] == t[j][a], none of the rows, columns or entries the identity;
    over the rows (i, j), i < j, of ``row_pairs`` if given, else all rows."""
    n = len(table)
    if row_pairs is None:
        row_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    found = []
    for i, j in row_pairs:
        column_of = {v: c for c, v in enumerate(table[i])}
        for a in range(n):
            b = column_of[table[j][a]]
            if a < b and table[j][b] == table[i][a]:
                if identity not in (i, j, a, b, table[i][a], table[i][b]):
                    found.append((i, j, a, b))
    return found


def swap_intercalate(table, i, j, a, b):
    """A copy of ``table`` with the entries at columns a and b swapped in
    rows i and j; the result is still a Latin square with the same
    identity and inverses."""
    perturbed = [list(row) for row in table]
    for r in (i, j):
        perturbed[r][a], perturbed[r][b] = perturbed[r][b], perturbed[r][a]
    return perturbed


def is_violation(table, triple):
    x, y, z = triple
    return table[table[x][y]][z] != table[x][table[y][z]]


def oracle_is_associative(table):
    """Every triple (x, y, z): row x*y of the table against row x read at
    the columns of row y, which is x*(y*z) over all z."""
    rows = [tuple(row) for row in table]
    for y, row_y in enumerate(rows):
        read = itemgetter(*row_y, 0)  # a tuple even for one column
        for row_x in rows:
            if rows[row_x[y]] != read(row_x)[:-1]:
                return False
    return True


class TestKernelBasics:
    def test_latin_square(self):
        for group in sample_groups():
            assert _kernels.latin_square_violation(group.table) is None
        assert _kernels.latin_square_violation([[0, 0], [1, 1]]) == ("row", 0)
        assert _kernels.latin_square_violation([[0, 1], [0, 1]]) == ("column", 0)
        assert _kernels.latin_square_violation([[0, 1], [1]]) == ("row-length", 1)
        # Rows are permutations and column 0 is too; columns 1 and 2 are not.
        assert _kernels.latin_square_violation([[0, 1, 2], [1, 2, 0], [2, 1, 0]]) == ("column", 1)

    def test_inverse_table(self):
        g = dihedral(8)
        inverses = _kernels.inverse_table(rows_of(g.table), g.identity_index)
        for i, inv in enumerate(inverses):
            assert g.table[i][inv] == g.identity_index
            assert g.table[inv][i] == g.identity_index
        # A loop with identity 0 in which 2*3 == 0 but 3*2 == 1.
        one_sided = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3],
        ]
        assert _kernels.inverse_table(rows_of(one_sided), 0) is None

    def test_generating_set(self):
        assert _kernels.generating_set(rows_of(cyclic(1).table), 0) == []
        assert _kernels.generating_set(rows_of(cyclic(8).table), 0) == [1]
        klein = direct_product(cyclic(2), cyclic(2))
        assert _kernels.generating_set(rows_of(klein.table), 0) == [1, 2]
        for group in sample_groups():
            table, e = group.table, group.identity_index
            generators = _kernels.generating_set(rows_of(table), e)
            assert 2 ** len(generators) <= group.order
            # Every index below a generator lies in the subgroup generated
            # by the generators before it; all of them generate the group.
            reached = {e}
            for g in generators + [group.order]:
                assert all(x in reached for x in range(g))
                if g == group.order:
                    break
                frontier = [g]
                reached.add(g)
                while frontier:
                    x = frontier.pop()
                    for y in list(reached):
                        for z in (table[x][y], table[y][x]):
                            if z not in reached:
                                reached.add(z)
                                frontier.append(z)
            assert len(reached) == group.order

    def test_find_isomorphism(self):
        def search(g, h, nodes=None):
            g_rows, h_rows = rows_of(g.table), rows_of(h.table)
            g_orders = _kernels.element_orders(g_rows, g.identity_index)
            h_orders = _kernels.element_orders(h_rows, h.identity_index)
            return _kernels.find_isomorphism(
                g_rows, h_rows, g.identity_index, h.identity_index,
                _kernels.generating_set(g_rows, g.identity_index), g_orders, h_orders,
                nodes or _kernels.SearchNodes(10_000),
            )

        # Same element orders (1, three of order 2, twelve of order 4), one
        # abelian and one not: with orders as keys the search itself must
        # refute the pair, in both directions.
        abelian = direct_product(cyclic(4), cyclic(4))
        quaternionic = direct_product(dicyclic(8), cyclic(2))
        nodes = _kernels.SearchNodes(10_000)
        assert search(abelian, quaternionic, nodes) is None
        assert nodes.count > 1
        assert search(quaternionic, abelian) is None
        # The spinor group keeps its identity last, at index 7.
        g, h = spinor_pt_group(), direct_product(cyclic(4), cyclic(2))
        mapping = search(g, h)
        assert mapping is not None
        assert mapping[g.identity_index] == h.identity_index
        assert _kernels.check_isomorphism(rows_of(g.table), translate_of(h.table), mapping)

    def test_search_stops_at_its_node_budget(self):
        g = rows_of(direct_product(cyclic(4), cyclic(4)).table)
        orders = _kernels.element_orders(g, 0)
        generators = _kernels.generating_set(g, 0)
        # Two generators: a successful search enters one node per level,
        # three in all.
        nodes = _kernels.SearchNodes(3)
        assert _kernels.find_isomorphism(g, g, 0, 0, generators, orders, orders, nodes)
        assert nodes.count == 3
        # The kernel raises the error the CLI reports, naming budget and order.
        assert IsomorphismSizeError is _kernels.IsomorphismSizeError  # imported from groups
        with pytest.raises(IsomorphismSizeError, match="^isomorphism search passed its budget of 2 nodes at order 16$"):
            _kernels.find_isomorphism(
                g, g, 0, 0, generators, orders, orders, _kernels.SearchNodes(2)
            )

    def test_signature_keys_keep_the_witness(self):
        # Signatures only drop candidates no isomorphism can take, so the
        # first complete map into a relabelled copy is the one order keys find.
        rng = random.Random(5)
        for group in sample_groups():
            table, e, n = group.table, group.identity_index, group.order
            relabel = list(range(n))
            rng.shuffle(relabel)
            copy = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    copy[relabel[i]][relabel[j]] = relabel[table[i][j]]
            g_rows, h_rows = rows_of(table), rows_of(copy)
            g_orders = _kernels.element_orders(g_rows, e)
            h_orders = _kernels.element_orders(h_rows, relabel[e])
            g_generators = _kernels.generating_set(g_rows, e)
            h_generators = _kernels.generating_set(h_rows, relabel[e])
            keyings = [
                (g_orders, h_orders),
                (
                    _kernels.element_signatures(g_rows, e, g_generators, g_orders),
                    _kernels.element_signatures(h_rows, relabel[e], h_generators, h_orders),
                ),
            ]
            by_order, by_signature = (
                _kernels.find_isomorphism(
                    g_rows, h_rows, e, relabel[e], g_generators, g_keys, h_keys,
                    _kernels.SearchNodes(10_000),
                )
                for g_keys, h_keys in keyings
            )
            assert by_order is not None and by_signature == by_order
            assert _kernels.check_isomorphism(g_rows, _kernels.padded(h_rows), by_order)

    def test_uninformative_keys_give_a_bijection(self):
        # With every key equal, the key filter drops no candidate, so only
        # the used-element marks keep the map injective: with the identity's
        # image left unmarked, Z2 maps both elements to it.
        for group in [cyclic(2), *sample_groups(), *order_256_groups()]:
            rows, e = rows_of(group.table), group.identity_index
            keys = [0] * group.order
            mapping = _kernels.find_isomorphism(
                rows, rows, e, e, _kernels.generating_set(rows, e), keys, keys, _kernels.SearchNodes(10_000)
            )
            assert sorted(mapping) == list(range(group.order)), group

    def test_element_signatures(self):
        # Centralizer sizes come from conjugacy classes; the oracle counts
        # the commuting pairs, on abelian groups and on non-abelian groups
        # with many classes: the double groups, the metacyclic groups of the
        # invariant ladder and three order-256 products.
        non_abelian = [
            double_group(family, n, parity_square)
            for family in ("Dn", "Cnv")
            for n in range(2, 13)
            for parity_square in (1, -1)
        ]
        non_abelian += [metacyclic(24, 2, 5), metacyclic(24, 2, 17), metacyclic(4, 4, 3)]
        non_abelian += [
            direct_product(dihedral(8), dicyclic(8), cyclic(4)),
            direct_product(dicyclic(128), cyclic(2)),
            direct_product(dihedral(16), dihedral(16)),
        ]
        for group in sample_groups() + order_256_groups() + non_abelian:
            table, n, e = group.table, group.order, group.identity_index
            rows = rows_of(table)
            orders = _kernels.element_orders(rows, e)
            expected = [
                (
                    orders[x],
                    sum(1 for y in range(n) if table[x][y] == table[y][x]),
                    sum(1 for y in range(n) if table[y][y] == x),
                )
                for x in range(n)
            ]
            generators = _kernels.generating_set(rows, e)
            assert _kernels.element_signatures(rows, e, generators, orders) == expected

    def test_associativity_accepts_groups(self):
        for group in sample_groups():
            e = group.identity_index
            assert _kernels.associativity_violation(
                rows_of(group.table), translate_of(group.table), generators_of(group.table, e)
            ) is None

    def test_associativity_detects_violation(self):
        triple = _kernels.associativity_violation(
            rows_of(LOOP_5), translate_of(LOOP_5), generators_of(LOOP_5, 0)
        )
        assert triple == (1, 1, 2)
        assert is_violation(LOOP_5, triple)

    def test_padded_rows_are_translate_tables(self):
        rows = rows_of(dihedral(6).table)
        translate = _kernels.padded(rows)
        assert [len(row) for row in translate] == [256] * 6
        assert [row[:6] for row in translate] == rows
        assert all(row[6:] == bytes(250) for row in translate)
        # Row 1 read through row 2 is 2*(1*y) over all y.
        assert rows[1].translate(translate[2]) == bytes(rows[2][rows[1][y]] for y in range(6))
        # At order 256 the rows need no padding and are not copied.
        rows = rows_of(cyclic(256).table)
        assert _kernels.padded(rows) is rows

    def test_orders_one_and_two(self):
        z1, z2 = [[0]], [[0, 1], [1, 0]]
        # Z2 with its identity at index 1.
        z2_flipped = [[1, 0], [0, 1]]

        def check(g, h, mapping):
            return _kernels.check_isomorphism(rows_of(g), translate_of(h), mapping)

        for table, e in ((z1, 0), (z2, 0), (z2_flipped, 1)):
            assert _kernels.associativity_violation(
                rows_of(table), translate_of(table), generators_of(table, e)
            ) is None
        assert check(z1, z1, [0])
        assert check(z2, z2, [0, 1])
        assert not check(z2, z2, [1, 0])
        assert check(z2, z2_flipped, [1, 0])
        assert not check(z2, z2_flipped, [0, 1])
        assert not check(z2, z2, [0, 0])
        assert not check(z1, z2, [0])

    def test_element_orders(self):
        g = dicyclic(8)
        orders = _kernels.element_orders(rows_of(g.table), g.identity_index)
        assert sorted(orders) == [1, 2, 4, 4, 4, 4, 4, 4]
        # 1 * 1 = 1: the powers of element 1 never reach the identity.
        with pytest.raises(ValueError, match="element 1 has no finite order"):
            _kernels.element_orders(rows_of([[0, 1], [1, 1]]), 0)

    def test_is_abelian(self):
        for group in sample_groups() + order_256_groups():
            n, table = group.order, group.table
            expected = all(table[i][j] == table[j][i] for i in range(n) for j in range(n))
            assert _kernels.is_abelian(rows_of(table)) == expected
        assert _kernels.is_abelian(rows_of(cyclic(6).table))
        assert not _kernels.is_abelian(rows_of(dihedral(6).table))

    def test_check_isomorphism(self):
        g = rows_of(cyclic(4).table)
        translate = _kernels.padded(g)
        assert _kernels.check_isomorphism(g, translate, [0, 1, 2, 3])
        assert not _kernels.check_isomorphism(g, translate, [0, 2, 1, 3])
        assert not _kernels.check_isomorphism(g, translate, [0, 1, 2, 2])

    @pytest.mark.parametrize("group", [dicyclic(12), dihedral(256)], ids=["Dic12", "Dih256"])
    def test_check_isomorphism_sees_one_broken_product(self, group):
        # A relabelled copy of the table and its relabelling, then the same
        # bijection against copies that each break the image of one product
        # of G: the first, the last, and one at random.
        table, n = group.table, group.order
        rng = random.Random(n)
        relabel = list(range(n))
        rng.shuffle(relabel)
        copy = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                copy[relabel[i]][relabel[j]] = relabel[table[i][j]]
        g = rows_of(table)
        assert _kernels.check_isomorphism(g, translate_of(copy), relabel)
        for i, j in ((0, 0), (n - 1, n - 1), (rng.randrange(n), rng.randrange(n))):
            broken = [list(row) for row in copy]
            a, b = relabel[i], relabel[j]
            broken[a][b] = (broken[a][b] + 1) % n
            assert not _kernels.check_isomorphism(g, translate_of(broken), relabel), (i, j)


class TestAssociativityOracle:
    GROUPS = [
        cyclic(1),
        cyclic(8),
        dihedral(8),
        dicyclic(8),
        direct_product(cyclic(2), direct_product(cyclic(2), cyclic(2))),
        dihedral(12),
        dicyclic(16),
        direct_product(cyclic(4), cyclic(4)),
        direct_product(cyclic(2), dihedral(12)),
        dihedral(24),
        dicyclic(32),
        direct_product(cyclic(2), dicyclic(16)),
        cyclic(64),
        dihedral(64),
        direct_product(cyclic(8), cyclic(8)),
    ]
    # Rows need no padding at order 256; (Z2)^8 has eight generators.
    GROUPS_256 = [dihedral(256), direct_product(*[cyclic(2)] * 8)]

    def test_matches_brute_force_on_perturbed_groups(self):
        # Order-8 groups get every intercalate swap, which includes tables
        # whose first greedy generator associates; so does the loop x Z2.
        rng = random.Random(2004)
        tables = [(LOOP_5, 0), (loop_times_z2(LOOP_5), 0)]
        for group in self.GROUPS:
            e = group.identity_index
            tables.append((group.table, e))
            if group.order == 1:
                swaps = []
            elif group.order == 8:
                swaps = intercalates(group.table, e)
            else:
                swaps = rng.sample(intercalates(group.table, e), 6)
            tables += [(swap_intercalate(group.table, *swap), e) for swap in swaps]
        for group in self.GROUPS_256:
            # Rows i and j = i*s for s of order 2 hold intercalates; two of
            # them from a sample of such row pairs.
            table, e = group.table, group.identity_index
            involutions = [s for s in range(256) if s != e and table[s][s] == e]
            pairs = {tuple(sorted((i, table[i][rng.choice(involutions)]))) for i in rng.sample(range(256), 8)}
            swaps = rng.sample(intercalates(table, e, sorted(pairs)), 2)
            tables.append((table, e))
            tables += [(swap_intercalate(table, *swap), e) for swap in swaps]
        rejected = 0
        for table, identity in tables:
            triple = _kernels.associativity_violation(
                rows_of(table), translate_of(table), generators_of(table, identity)
            )
            assert (triple is None) == oracle_is_associative(table)
            if triple is not None:
                assert is_violation(table, triple)
                rejected += 1
        # the perturbations must mostly break associativity, or the
        # comparison above shows little
        assert rejected > len(tables) // 2


def ordered_validation(table, identity):
    """The validator that checks every axiom in turn, raising on the first
    it fails: Latin square (rows, then columns), two-sided identity,
    two-sided inverses, associativity by Light's test."""
    bad = _kernels.latin_square_violation(table)
    if bad is not None:
        raise ValueError(f"table is not a Latin square (violation at {bad})")
    n = len(table)
    if not 0 <= identity < n or any(table[identity][j] != j for j in range(n)) or any(
        table[i][identity] != i for i in range(n)
    ):
        raise ValueError(f"element {identity} is not a two-sided identity")
    rows = rows_of(table)
    if _kernels.inverse_table(rows, identity) is None:
        raise ValueError("some element has no two-sided inverse")
    triple = _kernels.associativity_violation(
        rows, _kernels.padded(rows), _kernels.generating_set(rows, identity)
    )
    if triple is not None:
        raise ValueError(f"multiplication is not associative at triple {triple}")


def outcome(check, *args):
    """None if ``check(*args)`` returns, else the type and text of what it raises."""
    try:
        check(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def construct(table, identity):
    FiniteGroup([str(i) for i in range(len(table))], table, identity)


class TestValidationOracle:
    # Rows are permutations, columns 1 and 2 are not.
    ROWS_ONLY = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]

    def tables(self):
        rng = random.Random(21)
        tables = []
        for group in sample_groups():
            table, e = group.table, group.identity_index
            tables.append((table, e))
            if group.order <= 12:
                swaps = intercalates(table, e)
            else:
                swaps = rng.sample(intercalates(table, e), 3)
            tables += [(swap_intercalate(table, *swap), e) for swap in swaps]
        tables += [(group.table, group.identity_index) for group in order_256_groups()]
        # Byte rows, the format the constructors pass.
        tables += [(rows_of(group.table), group.identity_index) for group in sample_groups()]
        z256, z3 = cyclic(256).table, cyclic(3).table
        tables += [
            (z256, 0),
            # Rows 1, 129 and columns 2, 130 of Z256 hold 3 and 131 crosswise.
            (swap_intercalate(z256, 1, 129, 2, 130), 0),
            (rows_of(swap_intercalate(z256, 1, 129, 2, 130)), 0),
            (self.ROWS_ONLY, 0),
            (self.ROWS_ONLY, 1),
            # An identity index out of range is refused by name, but the
            # column violation is named first.
            (self.ROWS_ONLY, 5),
            # The spinor group's identity, index 7, reached as -1: every
            # entry of row and column -1 matches, but -1 is no index.
            (spinor_pt_group().table, -1),
            (z3, 3),
            (z3, -1),
            ([[0, 1, 2], [1, 2, 0], [2, 0, -1]], 0),
            ([[0, 1, 2], [1, 2, 0], [2, 0, 3]], 0),
            ([[0, 1, 2], [1, 2], [2, 0, 1]], 0),
            ([[0, 1, -1], [1, -1, 0], [-1, 0, 1]], 0),
            # Byte rows: an entry 7 >= n, and a short row.
            ([b"\x00\x01", b"\x01\x07"], 0),
            ([b"\x00\x01\x02", b"\x01\x02", b"\x02\x00\x01"], 0),
            # An int in place of a row is not read as that many zero bytes.
            ([1], 0),
            ([[0, 1], [0, 1]], 0),
            ([[0, 0], [1, 1]], 0),
            ([[1, 0], [0, 1]], 0),
            (LOOP_5, 0),
            (z3, 1),
            # A Latin square with identity 0 in which 2*3 == 0 but 3*2 == 1.
            ([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]], 0),
        ]
        return tables

    def test_finite_group_agrees_with_the_ordered_validator(self, monkeypatch):
        cases = [(table, e, outcome(ordered_validation, table, e)) for table, e in self.tables()]
        latin_calls = []
        latin = _kernels.latin_square_violation
        monkeypatch.setattr(
            _kernels, "latin_square_violation", lambda table: latin_calls.append(1) or latin(table)
        )
        for table, e, expected in cases:
            latin_calls.clear()
            assert outcome(construct, table, e) == expected, (table, e)
            # The Latin-square check runs once per rejected table, and never
            # on an accepted one.
            assert len(latin_calls) == (0 if expected is None else 1)
        outcomes = [expected for _, _, expected in cases]
        # Every outcome of the ordered validator is exercised.
        assert None in outcomes
        for prefix in (
            "table is not a Latin square (violation at ('row-length',",
            "table is not a Latin square (violation at ('row',",
            "table is not a Latin square (violation at ('column',",
            "element 0 is not a two-sided identity",
            "some element has no two-sided inverse",
            "multiplication is not associative",
        ):
            assert any(o and o[1].startswith(prefix) for o in outcomes), prefix


    def test_order_above_256_is_refused_first(self, monkeypatch):
        # Byte rows hold 256 elements; a 257th label is refused before the
        # table is copied or any axiom is checked.
        for name in ("latin_square_violation", "inverse_table", "associativity_violation"):
            monkeypatch.setattr(_kernels, name, None)
        labels = [str(i) for i in range(257)]
        with pytest.raises(IsomorphismSizeError, match="up to order 256"):
            FiniteGroup(labels, None, 0)
        z257 = [[(i + j) % 257 for j in range(257)] for i in range(257)]
        with pytest.raises(IsomorphismSizeError, match="up to order 256"):
            FiniteGroup(labels, z257, 0)


def naive_orders(table, identity):
    """The order of every element, each from its own powers."""
    n = len(table)
    orders = []
    for x in range(n):
        power, order = x, 1
        while power != identity:
            power = table[power][x]
            order += 1
            if order > n:
                raise ValueError(f"element {x} has no finite order; table is not a group")
        orders.append(order)
    return orders


class TestElementOrdersOracle:
    def test_matches_the_power_loop(self):
        groups = sample_groups() + order_256_groups() + [cyclic(256), dicyclic(4)]
        for n in range(2, 13):
            groups += [
                double_group("Dn", n),
                double_group("Cnv", n, parity_square=1),
                double_group("Cnv", n, parity_square=-1),
            ]
        for group in groups:
            table, e = group.table, group.identity_index
            assert _kernels.element_orders(rows_of(table), e) == naive_orders(table, e), group

    def test_same_error_when_powers_cycle(self):
        # Element 1 has order 2; the powers of 2 run 2, 1, 2, 1, ...
        for table in ([[0, 1], [1, 1]], [[0, 1, 2], [1, 0, 2], [2, 2, 1]]):
            expected = outcome(naive_orders, table, 0)
            assert expected is not None and expected[0] is ValueError
            assert outcome(_kernels.element_orders, rows_of(table), 0) == expected
