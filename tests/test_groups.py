import cmath
import itertools
import operator

import pytest

from spincover import _kernels, cli, groups
from spincover.cover import IDENTITY2, PAULI_X, PAULI_Y, PAULI_Z, UnitaryMat2
from spincover.groups import (
    ABELIAN,
    CENTRE_ORDER,
    EXHAUSTIVE_SEARCH,
    ORDER_MULTISET,
    SIGNATURES,
    ClosureLimitError,
    FiniteGroup,
    IsomorphismSizeError,
    IsomorphismWitness,
    Refutation,
    cyclic,
    decide_isomorphism,
    dicyclic,
    dihedral,
    direct_product,
    double_group,
    double_group_verdict,
    find_isomorphism,
    generate_closure,
    spacetime_pt_group,
    spinor_pt_group,
    verify_isomorphism,
)
from spincover.scalars import GaussianRational


def monomial_to_complex(element, n):
    """The 2x2 complex matrix of a (swap, k1, k2) double-group element,
    whose entries are powers of w = e^{i pi/2n}."""
    swap, k1, k2 = element
    w1, w2 = (cmath.exp(1j * cmath.pi * k / (2 * n)) for k in (k1, k2))
    return ((0j, w1), (w2, 0j)) if swap else ((w1, 0j), (0j, w2))


def complex_matmul(a, b):
    return tuple(
        tuple(sum(a[r][k] * b[k][c] for k in range(2)) for c in range(2)) for r in range(2)
    )


def product_table(elements, multiply):
    """The Cayley table by its definition, one product per entry: the oracle
    for the table a closure reads off its generators' right action."""
    index = {x: i for i, x in enumerate(elements)}
    return [[index[multiply(a, b)] for b in elements] for a in elements]


PARITY = UnitaryMat2.from_text("i,0;0,i")
TREVERSE = UnitaryMat2.from_text("0,-1;1,0")
# An order-6 element of the binary tetrahedral group, times i: order 12.
I_ORDER6 = UnitaryMat2.from_text("1/2+1/2i,1/2+1/2i;-1/2+1/2i,1/2-1/2i").scalar_mul(
    GaussianRational(0, 1)
)
# Binary tetrahedral x <iI>, the largest finite closure over Q(i).
OCTAHEDRAL = [
    UnitaryMat2.from_text(text)
    for text in ("1/2-1/2i,-1/2-1/2i;1/2-1/2i,1/2+1/2i", "0,-1;1,0", "i,0;0,i")
]
CLOSURE_GENERATORS = {
    "pt_lifts": [PARITY, TREVERSE],
    "tp_lifts": [TREVERSE, PARITY],
    "pauli_quaternion": [
        PAULI_X.scalar_mul(GaussianRational(0, -1)),
        PAULI_Y.scalar_mul(GaussianRational(0, -1)),
    ],
    "double_n2": [
        PAULI_Z.scalar_mul(GaussianRational(0, -1)),
        PAULI_X.scalar_mul(GaussianRational(0, -1)),
    ],
    "i_order6": [I_ORDER6],
    "binary_tetrahedral": OCTAHEDRAL[:2],
    "octahedral": OCTAHEDRAL,
    "minus_identity": [-IDENTITY2],
    "no_generators": [],
    "identity": [IDENTITY2],
    "identity_among_generators": [PARITY, IDENTITY2, TREVERSE],
    "minus_identity_twice": [-IDENTITY2, -IDENTITY2],
}


def metacyclic(m: int, k: int, r: int) -> FiniteGroup:
    """<x, y | x^m = y^k = 1, y x y^-1 = x^r>, for r^k = 1 mod m, with x^i y^j
    at index i + m j: (x^i y^j)(x^a y^b) = x^(i + r^j a) y^(j + b)."""
    n = m * k
    table = [
        [(u % m + pow(r, u // m, m) * (v % m)) % m + m * ((u // m + v // m) % k) for v in range(n)]
        for u in range(n)
    ]
    return FiniteGroup([str(u) for u in range(n)], table, 0, name=f"Z{m}:{r}Z{k}")


def inverting_extension_table(m: int, square: int) -> list[list[int]]:
    """Oracle for the table of <x, y | x^m = 1, y^2 = x^square,
    y x y^-1 = x^-1>, one product at a time: index k is x^k and index
    m + k is x^k·y, and y x^l = x^-l y, y y = x^square."""

    def mul(i: int, j: int) -> int:
        k, e = i % m, i // m
        l, f = j % m, j // m
        if e == 0:
            return (k + l) % m + m * f
        if f == 0:
            return (k - l) % m + m
        return (k - l + square) % m

    return [[mul(i, j) for j in range(2 * m)] for i in range(2 * m)]


def abelian_specs(limit: int) -> list[tuple[int, ...]]:
    """Every nondecreasing tuple of cyclic factor orders >= 2 with product
    at most ``limit``: one product spec per unordered factorisation."""
    specs = [()]
    frontier = [((), 1)]
    while frontier:
        factors, order = frontier.pop()
        for k in range(factors[-1] if factors else 2, limit // order + 1):
            spec = (*factors, k)
            specs.append(spec)
            frontier.append((spec, order * k))
    return specs


def cli_specs(limit: int) -> list[str]:
    """Every product spec the CLI can spell up to order ``limit``, once:
    factors Z<n> (n >= 2), Dih<2m> (m >= 3) and Dic<4m> (m >= 2), joined
    by x in sorted order."""
    factors = sorted(
        [(f"Z{n}", n) for n in range(2, limit + 1)]
        + [(f"Dih{k}", k) for k in range(6, limit + 1, 2)]
        + [(f"Dic{k}", k) for k in range(8, limit + 1, 4)]
    )
    specs = []
    frontier = [(0, [], 1)]
    while frontier:
        start, chosen, order = frontier.pop()
        for i in range(start, len(factors)):
            name, k = factors[i]
            if order * k <= limit:
                specs.append("x".join([*chosen, name]))
                frontier.append((i, [*chosen, name], order * k))
    return specs


def brute_force_isomorphism(g: FiniteGroup, h: FiniteGroup):
    """Independent oracle: the first bijection of element indices that
    preserves every product, or None.  ``itertools.permutations`` yields
    the bijections in lexicographic order, so this is the smallest one."""
    n = g.order
    if h.order != n:
        return None
    for perm in itertools.permutations(range(n)):
        if all(
            perm[g.table[i][j]] == h.table[perm[i]][perm[j]]
            for i in range(n)
            for j in range(n)
        ):
            return perm
    return None


class TestFiniteGroupValidation:
    def test_rejects_non_latin_square(self):
        with pytest.raises(ValueError):
            FiniteGroup(["a", "b"], [[0, 0], [1, 1]], 0)

    def test_rejects_bad_identity(self):
        with pytest.raises(ValueError):
            FiniteGroup(["a", "b"], [[1, 0], [0, 1]], 0)

    def test_rejects_non_associative(self):
        # a Latin square with two-sided identity that fails associativity
        # (rows below are a quasigroup on 5 elements)
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(ValueError, match=r"not associative at triple \(1, 1, 2\)"):
            FiniteGroup(["e", "a", "b", "c", "d"], table, 0)
        # Z128 with the intercalate at rows 1, 65 and columns 2, 66 swapped:
        # still a Latin square with the same identity and inverses, so only
        # the associativity check can reject it
        z128 = cyclic(128)
        table = [list(row) for row in z128.table]
        for r in (1, 65):
            table[r][2], table[r][66] = table[r][66], table[r][2]
        with pytest.raises(ValueError, match=r"not associative at triple \(1, 1, 1\)"):
            FiniteGroup(z128.labels, table, z128.identity_index)

    def test_accepts_order_256_groups(self):
        # each constructor validates its table exhaustively
        z2_8 = cyclic(2)
        for _ in range(7):
            z2_8 = direct_product(z2_8, cyclic(2))
        for group in (dicyclic(256), dihedral(256), direct_product(cyclic(16), cyclic(16)), z2_8):
            assert group.order == 256

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            FiniteGroup(["a", "a"], [[0, 1], [1, 0]], 0)

    def test_rejects_missing_inverse(self):
        # A Latin square with identity e in which b*c == e but c*b == a.
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3],
        ]
        with pytest.raises(ValueError, match="some element has no two-sided inverse"):
            FiniteGroup(["e", "a", "b", "c", "d"], table, 0)

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(ValueError, match="label count does not match table size"):
            FiniteGroup(["e"], [[0, 1], [1, 0]], 0)


class TestClosure:
    def test_pt_generators_close_to_order_8(self, parity, treverse):
        group = generate_closure([parity, treverse], backend="exact")
        assert group.order == 8
        assert group.is_abelian()
        assert group.order_multiset() == (1, 2, 2, 2, 4, 4, 4, 4)

    def test_single_involution(self):
        group = generate_closure([-IDENTITY2], backend="exact")
        assert group.order == 2

    def test_rejects_non_matrix_generator(self):
        with pytest.raises(TypeError, match="generate_closure takes UnitaryMat2 generators"):
            generate_closure([PAULI_X, "0,1;1,0"])

    def test_quaternion_group_from_pauli_lifts(self):
        i = GaussianRational(0, 1)
        gens = [PAULI_X.scalar_mul(-i), PAULI_Y.scalar_mul(-i)]
        group = generate_closure(gens, backend="exact")
        assert group.order == 8
        assert not group.is_abelian()
        assert group.order_multiset() == (1, 2, 4, 4, 4, 4, 4, 4)

    def test_determinism(self, parity, treverse):
        a = generate_closure([parity, treverse], backend="exact")
        b = generate_closure([parity, treverse], backend="exact")
        assert a.labels == b.labels
        assert a.table == b.table
        assert [a.element_source[l] for l in a.labels] == [
            b.element_source[l] for l in b.labels
        ]

    def test_infinite_group_refused_past_48_elements(self):
        # Both generators have order 4, but their product has trace -8/5 and
        # infinite order; the closure stops once it passes 48 elements.
        gens = [UnitaryMat2.from_text("0,i;i,0"), UnitaryMat2.from_text("3/5i,4/5i;4/5i,-3/5i")]
        with pytest.raises(ClosureLimitError, match="passed 48 elements.*infinite"):
            generate_closure(gens)

    def test_refused_closure_products_are_bounded(self, monkeypatch):
        # Each element is multiplied by each generator at most once before
        # element 49 would be added, so a refused closure makes at most
        # 48 x 2 products; the two g^24 tests add five products each.
        gens = [UnitaryMat2.from_text("0,i;i,0"), UnitaryMat2.from_text("3/5i,4/5i;4/5i,-3/5i")]
        closure_products = []

        def multiply(a, b):
            closure_products.append((a, b))
            return a * b

        with pytest.raises(ClosureLimitError, match="passed 48 elements"):
            groups._close(gens, IDENTITY2, multiply, groups.UNITARY_CLOSURE_BOUND)
        assert len(closure_products) <= groups.UNITARY_CLOSURE_BOUND * len(gens)

        all_products = []
        times = UnitaryMat2.__mul__

        def counted(a, b):
            all_products.append((a, b))
            return times(a, b)

        monkeypatch.setattr(UnitaryMat2, "__mul__", counted)
        with pytest.raises(ClosureLimitError, match="passed 48 elements"):
            generate_closure(gens)
        assert len(all_products) == 5 * len(gens) + len(closure_products)

    @pytest.mark.parametrize("name", CLOSURE_GENERATORS)
    def test_table_is_the_product_table(self, name):
        gens = CLOSURE_GENERATORS[name]
        group = generate_closure(gens)
        elements = [group.element_source[label] for label in group.labels]
        assert group.table == product_table(elements, operator.mul)
        assert groups._close(gens, IDENTITY2, operator.mul, groups.UNITARY_CLOSURE_BOUND) == (
            elements,
            group.table,
        )

    def test_closure_makes_one_product_per_element_and_generator(self, monkeypatch):
        # The table is read off the walk's products x·g, so a closure of N
        # elements makes exactly N x len(generators) products.
        closure_products = []

        def multiply(a, b):
            closure_products.append((a, b))
            return a * b

        elements, _ = groups._close(OCTAHEDRAL, IDENTITY2, multiply, groups.UNITARY_CLOSURE_BOUND)
        assert len(elements) == 48
        assert len(closure_products) == 48 * 3

        make_monomial_mul = groups._monomial_mul
        monomial_products = []

        def counting_monomial_mul(modulus):
            times = make_monomial_mul(modulus)

            def counted(a, b):
                monomial_products.append((a, b))
                return times(a, b)

            return counted

        monkeypatch.setattr(groups, "_monomial_mul", counting_monomial_mul)
        assert double_group("Dn", 12).order == 48
        assert len(monomial_products) == 48 * 2

        # generate_closure adds the five products of each g^24 test.
        all_products = []
        times = UnitaryMat2.__mul__

        def counted(a, b):
            all_products.append((a, b))
            return times(a, b)

        monkeypatch.setattr(UnitaryMat2, "__mul__", counted)
        assert generate_closure(OCTAHEDRAL).order == 48
        assert len(all_products) == 5 * 3 + 48 * 3

    def test_discovery_order(self, parity, treverse):
        # Identity, then the generators as given, then each new product x*g
        # in the order the walk along the element list finds it.
        group = generate_closure([treverse, parity])
        found = [group.element_source[label] for label in group.labels]
        t, p = treverse, parity
        # p*t = t*p and p*p = t*t = -I are found already.
        assert found == [IDENTITY2, t, p, t * t, t * p, t * t * t, t * t * p, t * t * t * p]

    def test_infinite_order_generator_refused(self, parity):
        # i times an order-6 element of the binary tetrahedral group has
        # order 12 and passes the g^24 = I test; diag(a, conj a) with
        # a = 3/5+4/5i, which is no root of unity, fails it at once.
        order6 = UnitaryMat2.from_text("1/2+1/2i,1/2+1/2i;-1/2+1/2i,1/2-1/2i")
        assert generate_closure([order6.scalar_mul(GaussianRational(0, 1))]).order == 12
        irrational = UnitaryMat2.from_text("3/5+4/5i,0;0,3/5-4/5i")
        with pytest.raises(ClosureLimitError, match="infinite order"):
            generate_closure([parity, irrational])

    def test_closed_under_products(self, parity, treverse):
        group = generate_closure([parity, treverse], backend="exact")
        n = group.order
        for i in range(n):
            for j in range(n):
                assert 0 <= group.table[i][j] < n

    def test_unitary_closure_matches_monomial_double_group_n2(self):
        # the axis-order-2 double group has Gaussian-rational generators
        # diag(-i, i) and -i*sigma_x; its monomial exponents are all even,
        # so every element converts exactly to a UnitaryMat2
        i = GaussianRational(0, 1)
        powers_of_i = [GaussianRational(1), i, GaussianRational(-1), -i]
        axis = PAULI_Z.scalar_mul(-i)
        half_turn = PAULI_X.scalar_mul(-i)
        exact = generate_closure([axis, half_turn], backend="exact")
        monomial = double_group("Dn", 2)
        assert exact.order == monomial.order == 8
        matrices = []
        for label in monomial.labels:
            swap, k1, k2 = monomial.element_source[label]
            assert k1 % 2 == 0 and k2 % 2 == 0
            z1, z2 = powers_of_i[k1 // 2], powers_of_i[k2 // 2]
            rows = ((0, z1), (z2, 0)) if swap else ((z1, 0), (0, z2))
            matrices.append(UnitaryMat2(rows))
        assert set(matrices) == {exact.element_source[label] for label in exact.labels}

    def test_backend_keyword_accepts_only_exact(self, parity):
        with pytest.raises(ValueError):
            generate_closure([parity], backend="approx")


class TestAbstractGroups:
    def test_cyclic_two(self):
        g = cyclic(2)
        assert g.order == 2
        assert g.table == [[0, 1], [1, 0]]

    def test_z4xz2_orders(self):
        g = direct_product(cyclic(4), cyclic(2))
        assert g.order == 8
        assert g.is_abelian()
        assert g.order_multiset() == (1, 2, 2, 2, 4, 4, 4, 4)

    def test_direct_product_table(self):
        g, h = dihedral(6), cyclic(4)
        product = direct_product(g, h)
        for i in range(product.order):
            a1, b1 = divmod(i, h.order)
            for j in range(product.order):
                a2, b2 = divmod(j, h.order)
                assert product.table[i][j] == g.table[a1][a2] * h.order + h.table[b1][b2]

    def test_cyclic_tables_match_the_formula(self):
        for n in [*range(1, 18), 256]:
            assert cyclic(n).table == [[(i + j) % n for j in range(n)] for i in range(n)]

    def test_inverting_extension_tables_match_the_oracle(self):
        for order in [*range(2, 41, 2), 256]:
            assert dihedral(order).table == inverting_extension_table(order // 2, 0)
        for order in [*range(4, 41, 4), 256]:
            assert dicyclic(order).table == inverting_extension_table(order // 2, order // 4)

    def test_elementary_abelian_product_is_xor(self):
        table = direct_product(*[cyclic(2)] * 8).table
        assert table == [[i ^ j for j in range(256)] for i in range(256)]

    @pytest.mark.parametrize("radices", [(16, 16), (2, 4, 32)])
    def test_cyclic_products_add_componentwise(self, radices):
        # Element i has the mixed-radix digits of i in the radices; a
        # product adds the digits, each modulo its radix.
        def digits(i):
            out = []
            for r in reversed(radices):
                i, d = divmod(i, r)
                out.append(d)
            return out[::-1]

        def index(ds):
            i = 0
            for d, r in zip(ds, radices):
                i = i * r + d % r
            return i

        table = direct_product(*map(cyclic, radices)).table
        n = len(table)
        assert table == [
            [index([a + b for a, b in zip(digits(i), digits(j))]) for j in range(n)]
            for i in range(n)
        ]

    def test_variadic_direct_product_matches_nested_products(self):
        unnamed = FiniteGroup(["a", "b"], [[0, 1], [1, 0]], 0)
        # spinor_pt_group keeps its identity last, at index 7.
        factor_lists = [
            [cyclic(2), dihedral(6), dicyclic(8)],
            [cyclic(1), cyclic(3), cyclic(1), cyclic(2)],
            [spinor_pt_group(), cyclic(2), dicyclic(4)],
            [cyclic(3), unnamed, cyclic(2)],
        ]
        for factors in factor_lists:
            nested = factors[0]
            for factor in factors[1:]:
                nested = direct_product(nested, factor)
            product = direct_product(*factors)
            assert product.labels == nested.labels
            assert product.table == nested.table
            assert all(type(row) is list for row in product.table)
            assert product.identity_index == nested.identity_index
            assert product.name == nested.name
        named = direct_product(cyclic(2), dihedral(6), dicyclic(8))
        assert named.name == "Z2xDih6xDic8" and repr(named) == "<Z2xDih6xDic8 of order 96>"
        anonymous = direct_product(cyclic(3), unnamed, cyclic(2))
        assert anonymous.name == "" and repr(anonymous) == f"<FiniteGroup of order {anonymous.order}>"
        z5 = cyclic(5)
        assert direct_product(z5) is z5

    def test_cli_validates_no_partial_product(self, monkeypatch):
        validated = []
        validate = FiniteGroup._validate

        def counting_validate(group):
            validated.append(group.order)
            return validate(group)

        monkeypatch.setattr(FiniteGroup, "_validate", counting_validate)
        assert cli.main(["iso", "Z2xZ2xZ2", "Z2xZ2xZ2", "--format", "json"]) == 0
        # Each side validates its three factors and the order-8 product.
        assert sorted(validated) == [2] * 6 + [8] * 2

    def test_dihedral_involution_count(self):
        g = dihedral(8)
        assert g.order_multiset().count(2) == 5

    def test_dicyclic_involution_count(self):
        g = dicyclic(8)
        assert g.order_multiset().count(2) == 1

    def test_dicyclic_8_is_quaternion_group(self):
        i = GaussianRational(0, 1)
        q8 = generate_closure(
            [PAULI_X.scalar_mul(-i), PAULI_Y.scalar_mul(-i)], backend="exact"
        )
        assert find_isomorphism(dicyclic(8), q8) is not None

    def test_labels_name_their_elements(self):
        # Index 1 % m is the rotation generator and index m the other one;
        # each label, read as a word in them, evaluates to its own index.
        groups = [dihedral(order) for order in range(2, 65, 2)]
        groups += [dicyclic(order) for order in range(4, 65, 4)]
        for group in groups:
            m = group.order // 2
            x, y = ("r", "s") if group.name.startswith("Dih") else ("a", "b")
            generators = {x: 1 % m, y: m}
            for index, label in enumerate(group.labels):
                value = group.identity_index
                for factor in [] if label == "1" else label.split("·"):
                    symbol, _, power = factor.partition("^")
                    for _ in range(int(power or 1)):
                        value = group.table[value][generators[symbol]]
                assert value == index, f"{group.name}: {label}"

    def test_dihedral_6_nonabelian(self):
        assert not dihedral(6).is_abelian()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            cyclic(0)
        with pytest.raises(ValueError):
            dihedral(7)
        with pytest.raises(ValueError):
            dicyclic(6)


class TestIsomorphism:
    def test_witnesses_are_verified(self, monkeypatch):
        g = direct_product(cyclic(2), cyclic(4))
        h = direct_product(cyclic(4), cyclic(2))
        witness = find_isomorphism(g, h)
        assert witness is not None
        assert verify_isomorphism(g, h, witness.mapping)
        # A mapping the search returns but the check refuses is an error.
        monkeypatch.setattr(_kernels, "check_isomorphism", lambda *args: False)
        with pytest.raises(RuntimeError, match="isomorphism search returned an invalid mapping"):
            decide_isomorphism(g, h)

    def test_cyclic_4_vs_klein(self):
        assert find_isomorphism(cyclic(4), direct_product(cyclic(2), cyclic(2))) is None

    def test_order_mismatch(self):
        assert find_isomorphism(cyclic(3), cyclic(4)) is None

    def test_against_all_bijections_oracle(self):
        catalog = {
            4: [cyclic(4), direct_product(cyclic(2), cyclic(2)), dihedral(4), dicyclic(4)],
            6: [cyclic(6), dihedral(6), direct_product(cyclic(2), cyclic(3))],
            8: [
                cyclic(8),
                direct_product(cyclic(2), cyclic(4)),
                direct_product(cyclic(2), direct_product(cyclic(2), cyclic(2))),
                dihedral(8),
                dicyclic(8),
                spinor_pt_group(),
            ],
        }
        for order, groups in catalog.items():
            for a in groups:
                for b in groups:
                    expected = brute_force_isomorphism(a, b)
                    witness = find_isomorphism(a, b)
                    mapping = None if witness is None else witness.mapping
                    assert mapping == expected, (a.name, b.name)
                    if witness is not None:
                        assert verify_isomorphism(a, b, witness.mapping)

    def test_binary_polyhedral_self_isomorphisms(self):
        # In the binary tetrahedral group (24) and its product with <iI>
        # (48, the largest finite closure over Q(i)) the new elements found
        # after a generator is chosen must be closed over every chosen
        # generator, not only the newest one.
        rotation_120 = UnitaryMat2.from_text("1/2-1/2i,-1/2-1/2i;1/2-1/2i,1/2+1/2i")
        half_turn = UnitaryMat2.from_text("0,-1;1,0")
        tetrahedral = generate_closure([rotation_120, half_turn])
        tetrahedral_i = generate_closure([rotation_120, half_turn, UnitaryMat2.from_text("i,0;0,i")])
        for group, order in ((tetrahedral, 24), (tetrahedral_i, 48)):
            assert group.order == order
            witness = find_isomorphism(group, group)
            assert witness is not None
            assert list(witness.mapping) == list(range(order))

    def test_expected_verdicts_up_to_16(self):
        pairs = [
            (cyclic(16), direct_product(cyclic(4), cyclic(4)), False),
            (dihedral(16), dicyclic(16), False),
            (cyclic(12), direct_product(cyclic(4), cyclic(3)), True),
            (cyclic(12), direct_product(cyclic(2), cyclic(6)), False),
            (dihedral(12), direct_product(cyclic(2), dihedral(6)), True),
            (dicyclic(12), direct_product(cyclic(3), cyclic(4)), False),
            (direct_product(cyclic(2), cyclic(8)), direct_product(cyclic(4), cyclic(4)), False),
        ]
        for a, b, expected in pairs:
            assert (find_isomorphism(a, b) is not None) == expected, (a.name, b.name)

    def test_witness_is_lexicographically_smallest(self):
        g = direct_product(cyclic(2), cyclic(2))
        witness = find_isomorphism(g, g)
        assert witness is not None
        assert list(witness.mapping) == [0, 1, 2, 3]

    def test_self_isomorphism_is_identity_witness(self):
        g = dihedral(8)
        witness = find_isomorphism(g, g)
        assert list(witness.mapping) == list(range(8))

    def test_size_limit(self):
        big = direct_product(cyclic(32), cyclic(16))
        with pytest.raises(IsomorphismSizeError):
            find_isomorphism(big, big)

    def test_node_budget(self, monkeypatch):
        g = dihedral(16)
        assert find_isomorphism(g, g) is not None
        monkeypatch.setattr(groups, "ISOMORPHISM_NODE_BUDGET", 2)
        with pytest.raises(IsomorphismSizeError, match="budget of 2 nodes"):
            find_isomorphism(g, g)

    def test_mapping_validation_catches_bad_candidates(self):
        g = cyclic(4)
        h = cyclic(4)
        assert verify_isomorphism(g, h, [0, 1, 2, 3])
        assert not verify_isomorphism(g, h, [0, 2, 1, 3])
        assert not verify_isomorphism(g, h, [0, 0, 1, 2])


class TestInvariantLadder:
    def test_order_multiset_rung(self):
        outcome = decide_isomorphism(cyclic(4), direct_product(cyclic(2), cyclic(2)))
        assert outcome == Refutation(ORDER_MULTISET, [1, 2, 4, 4], [1, 2, 2, 2])
        assert outcome.text() == "element-order multiset: [1, 2, 4, 4] vs [1, 2, 2, 2]"
        assert decide_isomorphism(cyclic(3), cyclic(4)).invariant == ORDER_MULTISET

    def test_abelian_rung(self):
        # Same element orders: one of order 1, three of order 2, twelve of
        # order 4.
        quaternionic = direct_product(dicyclic(8), cyclic(2))
        abelian = direct_product(cyclic(4), cyclic(4))
        assert decide_isomorphism(quaternionic, abelian) == Refutation(ABELIAN, False, True)
        assert decide_isomorphism(abelian, quaternionic) == Refutation(ABELIAN, True, False)

    def test_centre_rung(self):
        # Z24 by Z2 acting as x -> x^5 or x -> x^17: same element orders,
        # both non-abelian, centres <x^6> and <x^3> of orders 4 and 8.
        a, b = metacyclic(24, 2, 5), metacyclic(24, 2, 17)
        assert a.order_multiset() == b.order_multiset()
        assert decide_isomorphism(a, b) == Refutation(CENTRE_ORDER, 4, 8)

    def test_signature_rung(self):
        # Q8 x Z2 against Z4 by Z4 acting by inversion: same element orders,
        # both non-abelian, both with a centre of order 4 (all involutions
        # central).  Only the square-root counts of the three involutions
        # tell them apart: 12, 0, 0 against 8, 4, 0.
        q8_z2 = direct_product(dicyclic(8), cyclic(2))
        z4_z4 = metacyclic(4, 4, 3)
        assert q8_z2.order_multiset() == z4_z4.order_multiset()
        assert not q8_z2.is_abelian() and not z4_z4.is_abelian()
        outcome = decide_isomorphism(q8_z2, z4_z4)
        assert outcome == Refutation(
            SIGNATURES,
            [[2, 16, 0, 2], [2, 16, 4, 0], [2, 16, 8, 0], [2, 16, 12, 1]],
            [[2, 16, 0, 1], [2, 16, 4, 1], [2, 16, 8, 1], [2, 16, 12, 0]],
        )

    def test_exhaustive_search_without_the_ladder(self, monkeypatch):
        # With the signatures blinded (no element central, so both groups
        # read as non-abelian with a trivial centre), the search alone
        # refutes the pair and reports its node count.
        monkeypatch.setattr(
            _kernels, "element_signatures", lambda table, orders: [(o, 0, 0) for o in orders]
        )
        outcome = decide_isomorphism(
            direct_product(cyclic(4), cyclic(4)), direct_product(dicyclic(8), cyclic(2))
        )
        assert outcome.invariant == EXHAUSTIVE_SEARCH
        assert outcome.search_nodes > 1
        assert outcome.text() == f"exhaustive search: no isomorphism in {outcome.search_nodes} nodes"
        assert outcome.to_json() == {
            "invariant": EXHAUSTIVE_SEARCH,
            "group_a": None,
            "group_b": None,
            "search_nodes": outcome.search_nodes,
        }

    def test_abelian_catalog(self):
        # Finite abelian groups are isomorphic exactly when their element-
        # order multisets agree, so every such pair of products of cyclic
        # groups, up to order 64, gets a witness.
        by_multiset: dict = {}
        for factors in abelian_specs(64):
            group = cyclic(1)
            for k in factors:
                group = direct_product(group, cyclic(k))
            by_multiset.setdefault(group.order_multiset(), []).append(group)
        pairs = 0
        for classes in by_multiset.values():
            for a, b in itertools.product(classes, repeat=2):
                outcome = decide_isomorphism(a, b)
                assert isinstance(outcome, IsomorphismWitness), (a.name, b.name, outcome)
                assert verify_isomorphism(a, b, outcome.mapping)
                pairs += a is not b
        assert pairs > 50


class TestIsoCensus:
    def test_every_cli_pair_up_to_order_64(self, monkeypatch):
        # Every directed pair of CLI specs with equal element-order
        # multisets: a rung refutes each non-isomorphic pair, and each
        # search ends within 6 nodes (Dih6xZ2xZ2xZ2 -> Dih12xZ2xZ2).
        monkeypatch.setattr(groups, "ISOMORPHISM_NODE_BUDGET", 6)
        specs = cli_specs(64)
        assert len(specs) == len(set(specs)) == 330
        by_multiset: dict = {}
        for spec in specs:
            group = cli._parse_group_spec(spec)()
            by_multiset.setdefault(group.order_multiset(), []).append((spec, group))
        pairs = refuted = 0
        for classes in by_multiset.values():
            for (a, g), (b, h) in itertools.permutations(classes, 2):
                outcome = decide_isomorphism(g, h)
                if isinstance(outcome, IsomorphismWitness):
                    assert verify_isomorphism(g, h, outcome.mapping), (a, b)
                else:
                    assert outcome.invariant != EXHAUSTIVE_SEARCH, (a, b, outcome)
                    refuted += 1
                pairs += 1
        assert (pairs, refuted) == (296, 18)

    @pytest.mark.parametrize(
        "spec_a, spec_b, budget",
        [
            ("Z12xZ2xZ2xZ2", "Z2xZ2xZ2xZ3xZ4", 21),
            ("Z12xZ2xZ2xZ2xZ2", "Z2xZ2xZ2xZ2xZ3xZ4", 800),
        ],
    )
    def test_abelian_pairs_search_by_signature(self, monkeypatch, spec_a, spec_b, budget):
        # Keyed by element order alone, these searches took 218 nodes and
        # more than 10,000.
        monkeypatch.setattr(groups, "ISOMORPHISM_NODE_BUDGET", budget)
        g, h = cli._parse_group_spec(spec_a)(), cli._parse_group_spec(spec_b)()
        outcome = decide_isomorphism(g, h)
        assert isinstance(outcome, IsomorphismWitness)
        assert verify_isomorphism(g, h, outcome.mapping)


class TestNamedGroups:
    def test_spinor_group_label_order(self):
        group = spinor_pt_group()
        assert group.labels == ["P", "T", "PT", "-P", "-T", "-PT", "-I", "I"]
        assert group.identity_index == 7

    def test_spinor_group_key_products(self):
        group = spinor_pt_group()
        ix = {label: k for k, label in enumerate(group.labels)}
        assert group.table[ix["P"]][ix["P"]] == ix["-I"]
        assert group.table[ix["T"]][ix["T"]] == ix["-I"]
        assert group.table[ix["PT"]][ix["PT"]] == ix["I"]
        assert group.table[ix["P"]][ix["T"]] == ix["PT"]

    def test_spinor_group_is_z4xz2(self):
        witness = find_isomorphism(spinor_pt_group(), direct_product(cyclic(4), cyclic(2)))
        assert witness is not None

    def test_explicit_candidate_mapping_verifies(self):
        # P -> (g, 1), T -> (g, h), PT -> (g^2, h) and linear extension,
        # with g of order 4 and h of order 2 in Z4 x Z2
        group = spinor_pt_group()
        target = direct_product(cyclic(4), cyclic(2))
        gi = {label: k for k, label in enumerate(group.labels)}
        ti = {label: k for k, label in enumerate(target.labels)}
        mapping = [0] * 8
        mapping[gi["I"]] = ti["(1,1)"]
        mapping[gi["-I"]] = ti["(g^2,1)"]
        mapping[gi["P"]] = ti["(g,1)"]
        mapping[gi["-P"]] = ti["(g^3,1)"]
        mapping[gi["T"]] = ti["(g,g)"]
        mapping[gi["-T"]] = ti["(g^3,g)"]
        mapping[gi["PT"]] = ti["(g^2,g)"]
        mapping[gi["-PT"]] = ti["(1,g)"]
        assert verify_isomorphism(group, target, mapping)

    def test_spacetime_group_is_klein(self):
        group = spacetime_pt_group()
        assert group.labels == ["P", "T", "PT", "1"]
        assert group.order_multiset() == (1, 2, 2, 2)
        assert find_isomorphism(group, direct_product(cyclic(2), cyclic(2))) is not None

    def test_spacetime_group_table(self):
        group = spacetime_pt_group()
        ix = {label: k for k, label in enumerate(group.labels)}
        for label in ("P", "T", "PT"):
            assert group.table[ix[label]][ix[label]] == ix["1"]
        assert group.table[ix["P"]][ix["T"]] == ix["PT"]
        assert group.table[ix["T"]][ix["PT"]] == ix["P"]


class TestCayleyRendering:
    def test_spinor_text_table_shape(self):
        text = spinor_pt_group().cayley_text(omit_identity=True)
        lines = [line for line in text.splitlines() if line.strip()]
        assert len(lines) == 8  # header + 7 rows
        assert lines[0].split() == ["P", "T", "PT", "-P", "-T", "-PT", "-I"]

    def test_json_shape(self):
        payload = spinor_pt_group().cayley_json()
        assert payload["elements"] == ["P", "T", "PT", "-P", "-T", "-PT", "-I", "I"]
        assert len(payload["table"]) == 8

    def test_two_element_table(self):
        group = generate_closure([-IDENTITY2], backend="exact")
        text = group.cayley_text()
        lines = [line for line in text.splitlines() if line.strip()]
        assert len(lines) == 3


class TestDoubleGroups:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_orders(self, n):
        assert double_group("Dn", n).order == 4 * n
        assert double_group("Cnv", n, parity_square=1).order == 4 * n
        assert double_group("Cnv", n, parity_square=-1).order == 4 * n

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"family": "Cnv", "parity_square": 0}, "parity_square must be +1 or -1"),
            ({"family": "Cn"}, "family must be 'Cnv' or 'Dn'"),
        ],
        ids=["parity_square", "family"],
    )
    def test_rejects_bad_arguments(self, kwargs, message):
        with pytest.raises(ValueError) as err:
            double_group(n=3, **kwargs)
        assert str(err.value) == message

    def test_rotation_double_is_dicyclic(self):
        for n in (2, 3, 4):
            g = double_group("Dn", n)
            assert find_isomorphism(g, dicyclic(4 * n)) is not None

    def test_reflection_double_with_commuting_convention_is_dihedral(self):
        for n in (2, 3):
            g = double_group("Cnv", n, parity_square=-1)
            assert find_isomorphism(g, dihedral(4 * n)) is not None

    def test_mirror_lift_squares(self):
        # parity_square=-1 gives a mirror lift squaring to +I,
        # parity_square=+1 one squaring to -I
        g_plus = double_group("Cnv", 3, parity_square=-1)
        g_minus = double_group("Cnv", 3, parity_square=1)
        assert 2 in g_plus.order_multiset()
        counts_plus = sum(1 for o in g_plus.order_multiset() if o == 2)
        counts_minus = sum(1 for o in g_minus.order_multiset() if o == 2)
        assert counts_plus > counts_minus

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_verdicts(self, n):
        verdicts = double_group_verdict(n)
        by_convention = {v.convention: v for v in verdicts}
        assert by_convention[1].isomorphic
        assert by_convention[1].witness is not None
        assert not by_convention[-1].isomorphic
        assert by_convention[-1].invariant_used is not None
        assert all(v.claim_match for v in verdicts)

    def test_axis_range_enforced(self):
        with pytest.raises(ValueError):
            double_group("Dn", 13)
        with pytest.raises(ValueError):
            double_group("Dn", 1)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_table_is_the_matrix_product(self, n):
        times = groups._monomial_mul(4 * n)
        for family in ("Dn", "Cnv"):
            for convention in (1, -1):
                g = double_group(family, n, parity_square=convention)
                assert g.order == 4 * n
                elements = [g.element_source[l] for l in g.labels]
                assert g.table == product_table(elements, times), (family, n, convention)
                mats = [monomial_to_complex(g.element_source[l], n) for l in g.labels]
                for i, a in enumerate(mats):
                    for j, b in enumerate(mats):
                        product = complex_matmul(a, b)
                        expected = mats[g.table[i][j]]
                        assert all(
                            abs(product[r][c] - expected[r][c]) < 1e-9
                            for r in range(2)
                            for c in range(2)
                        ), (family, n, convention, i, j)

    def test_determinism(self):
        a = double_group("Cnv", 5, parity_square=-1)
        b = double_group("Cnv", 5, parity_square=-1)
        assert a.labels == b.labels
        assert a.table == b.table
        assert all(
            a.element_source[label] == b.element_source[label] for label in a.labels
        )

    def test_json_schema(self):
        verdicts = double_group_verdict(3)
        for v in verdicts:
            payload = v.to_json()
            assert {"n", "convention", "isomorphic", "paper_claim_match"} <= set(payload)
            if payload["isomorphic"]:
                assert "witness" in payload
            else:
                assert "invariant_used" in payload
