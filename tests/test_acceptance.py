"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every numeric expectation here is exact, the double groups included; the
only tolerances involved are the wall-clock budgets, which are asserted
where stated.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from spincover.cli import main
from spincover.cover import (
    IDENTITY2,
    IDENTITY3,
    SPACE_INVERSION,
    covering_map,
    determinant_section,
    extended_covering_map,
    parity_operator,
)
from spincover.groups import (
    cyclic,
    direct_product,
    double_group_verdict,
    find_isomorphism,
    generate_closure,
    spacetime_pt_group,
    spinor_pt_group,
    verify_isomorphism,
)
from spincover.ptgroup import (
    Event,
    SpacetimeSymmetry,
    SpinorSampleField,
    SpinorSymmetry,
    SpinorValue,
    apply_symmetry,
    pt_symmetries,
    ray_project,
    spacetime_projection,
    time_reversal_operator,
    transform_value,
)
from spincover.scalars import GaussianRational
from spincover.semidirect import compose, from_unitary, project_to_o3, to_unitary
from spincover.verify import (
    check_exact_sequence,
    sample_extended,
    sample_pair_element,
    sample_su2,
    sample_symmetry,
    sample_unit_spinor,
)

G = GaussianRational


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL  {description}")
        raise
    print(f"[criterion {number:02d}] PASS  {description}")


# The order-8 multiplication table in the conventional label order,
# row label first, then the seven products (56 cells in total).
EXPECTED_ORDER8_TABLE = [
    ["P", "-I", "PT", "-T", "I", "-PT", "T", "-P"],
    ["T", "PT", "-I", "-P", "-PT", "I", "P", "-T"],
    ["PT", "-T", "-P", "I", "T", "P", "-I", "-PT"],
    ["-P", "I", "-PT", "T", "-I", "PT", "-T", "P"],
    ["-T", "-PT", "I", "P", "PT", "-I", "-P", "T"],
    ["-PT", "T", "P", "-I", "-T", "-P", "I", "PT"],
    ["-I", "-P", "-T", "-PT", "P", "T", "PT", "I"],
]


def test_criterion_01_order8_table_reproduction():
    with criterion(1, "closure of the parity and time-reversal lifts reproduces the order-8 table"):
        start = time.perf_counter()
        closure = generate_closure(
            [parity_operator(), time_reversal_operator()], backend="exact"
        )
        assert closure.order == 8
        rendered = spinor_pt_group().cayley_text(omit_identity=True)
        lines = [line.split() for line in rendered.splitlines() if line.strip()]
        assert lines[0] == ["P", "T", "PT", "-P", "-T", "-PT", "-I"]
        body = lines[1:]
        diffs = [
            (i, j)
            for i, row in enumerate(EXPECTED_ORDER8_TABLE)
            for j, cell in enumerate(row)
            if body[i][j] != cell
        ]
        assert diffs == []
        assert sum(len(row) for row in EXPECTED_ORDER8_TABLE) == 56
        assert time.perf_counter() - start < 1.0


def test_criterion_02_isomorphism_verdicts():
    with criterion(2, "order-8 group is Z4xZ2 (explicit mapping included); spacetime group is Klein"):
        start = time.perf_counter()
        spinor_group = spinor_pt_group()
        z4xz2 = direct_product(cyclic(4), cyclic(2))
        witness = find_isomorphism(spinor_group, z4xz2)
        assert witness is not None
        assert verify_isomorphism(spinor_group, z4xz2, witness.mapping)

        gi = {label: k for k, label in enumerate(spinor_group.labels)}
        ti = {label: k for k, label in enumerate(z4xz2.labels)}
        explicit = [0] * 8
        explicit[gi["I"]] = ti["(1,1)"]
        explicit[gi["-I"]] = ti["(g^2,1)"]
        explicit[gi["P"]] = ti["(g,1)"]
        explicit[gi["-P"]] = ti["(g^3,1)"]
        explicit[gi["T"]] = ti["(g,g)"]
        explicit[gi["-T"]] = ti["(g^3,g)"]
        explicit[gi["PT"]] = ti["(g^2,g)"]
        explicit[gi["-PT"]] = ti["(1,g)"]
        assert verify_isomorphism(spinor_group, z4xz2, explicit)

        klein = direct_product(cyclic(2), cyclic(2))
        assert find_isomorphism(spacetime_pt_group(), klein) is not None
        assert time.perf_counter() - start < 1.0


def test_criterion_03_covering_map_properties():
    with criterion(3, "covering map: multiplicative, even, proper, kernel {I,-I} on 1000 samples"):
        rng = random.Random(42)
        start = time.perf_counter()
        pool = []
        for _ in range(1000):
            a, b = sample_su2(rng), sample_su2(rng)
            assert covering_map(a * b) == covering_map(a) * covering_map(b)
            assert covering_map(a) == covering_map(-a)
            image = covering_map(a)
            assert image.det_sign == 1 and image.is_orthogonal()
            pool.append(a)
        order8 = [
            spinor_pt_group().element_source[label]
            for label in spinor_pt_group().labels
        ]
        for c in pool + order8:
            in_kernel = extended_covering_map(c) == IDENTITY3
            assert in_kernel == (c in (IDENTITY2, -IDENTITY2))
        assert time.perf_counter() - start < 5.0


def test_criterion_04_exact_sequence_and_splitting():
    with criterion(4, "det splits: section is a homomorphic right inverse, kernel embeds"):
        rng = random.Random(7)
        section_image = {determinant_section(1), determinant_section(-1)}
        assert section_image == {IDENTITY2, determinant_section(-1)}
        mirror = determinant_section(-1)
        assert mirror.rows[0][0] == G(-1) and mirror.rows[1][1] == G(1)
        for s in (1, -1):
            assert determinant_section(s).det_sign == s
            for t in (1, -1):
                assert determinant_section(s) * determinant_section(t) == determinant_section(s * t)
        samples = [sample_extended(rng) for _ in range(300)]
        report = check_exact_sequence(samples + [IDENTITY2, -IDENTITY2, parity_operator(), mirror])
        assert report.all_pass
        for a in (sample_su2(rng) for _ in range(300)):
            assert extended_covering_map(a) == covering_map(a)


def test_criterion_05_semidirect_isomorphism():
    with criterion(5, "pair fusion is an isomorphism and the projections agree"):
        rng = random.Random(11)
        for _ in range(1000):
            e1, e2 = sample_pair_element(rng), sample_pair_element(rng)
            assert to_unitary(compose(e1, e2)) == to_unitary(e1) * to_unitary(e2)
        order8 = [
            spinor_pt_group().element_source[label]
            for label in spinor_pt_group().labels
        ]
        for matrix in order8:
            e = from_unitary(matrix)
            assert to_unitary(e) == matrix
            assert from_unitary(to_unitary(e)) == e
            assert project_to_o3(e) == extended_covering_map(matrix)


def test_criterion_06_spacetime_projection_properties():
    with criterion(6, "double-cover projection: multiplicative, correct on the canonical reversals"):
        treverse = time_reversal_operator()
        parity = parity_operator()
        assert spacetime_projection(
            SpinorSymmetry(treverse, -1)
        ) == SpacetimeSymmetry(IDENTITY3, -1)
        assert spacetime_projection(
            SpinorSymmetry(parity * treverse, -1)
        ) == SpacetimeSymmetry(SPACE_INVERSION, -1)

        lifted = [SpinorSymmetry(IDENTITY2, 1)]
        generators = [pt_symmetries()["P"], pt_symmetries()["T"]]
        while True:
            fresh = [
                a * g
                for a in lifted
                for g in generators
                if a * g not in lifted
            ]
            fresh = [f for i, f in enumerate(fresh) if f not in fresh[:i]]
            if not fresh:
                break
            lifted.extend(fresh)
        assert len(lifted) == 8
        for g in lifted:
            for h in lifted:
                assert spacetime_projection(g * h) == spacetime_projection(g) * spacetime_projection(h)

        rng = random.Random(13)
        for _ in range(500):
            g, h = sample_symmetry(rng), sample_symmetry(rng)
            assert spacetime_projection(g * h) == spacetime_projection(g) * spacetime_projection(h)


def test_criterion_07_spinor_action_laws():
    with criterion(7, "double reversals negate fields; the three componentwise formulas hold"):
        events = [Event.make(t, 0, 0, 0) for t in (-1, 0, 1)]
        values = [
            SpinorValue(G(1), G(0, 1)),
            SpinorValue(G(Fraction(3, 5)), G(Fraction(4, 5))),
            SpinorValue(G(0), G(1)),
        ]
        field = SpinorSampleField(dict(zip(events, values)))

        p = pt_symmetries()["P"]
        t = pt_symmetries()["T"]
        assert apply_symmetry(p, apply_symmetry(p, field)) == -field
        assert apply_symmetry(t, apply_symmetry(t, field)) == -field
        assert apply_symmetry(SpinorSymmetry(-IDENTITY2, 1), field) == -field

        reversed_time = apply_symmetry(t, field)
        for e in events:
            src = field.value_at(Event(-e.t, e.x))
            assert reversed_time.value_at(e) == SpinorValue(
                -src.v.conjugate(), src.u.conjugate()
            )

        reversed_space = apply_symmetry(p, field)
        i = G(0, 1)
        for e in events:
            src = field.value_at(Event(e.t, tuple(-q for q in e.x)))
            assert reversed_space.value_at(e) == SpinorValue(i * src.u, i * src.v)

        reversed_both = apply_symmetry(pt_symmetries()["PT"], field)
        for e in events:
            src = field.value_at(Event(-e.t, tuple(-q for q in e.x)))
            assert reversed_both.value_at(e) == SpinorValue(
                -i * src.v.conjugate(), i * src.u.conjugate()
            )


def test_criterion_08_ray_space():
    with criterion(8, "parity is a pure phase on rays; orthogonal spinors give distinct rays"):
        rng = random.Random(3)
        parity = parity_operator()
        for _ in range(200):
            value = sample_unit_spinor(rng)
            assert ray_project(transform_value(parity, value)) == ray_project(value)
        up = ray_project(SpinorValue(G(1), G(0)))
        down = ray_project(SpinorValue(G(0), G(1)))
        assert up != down


def test_criterion_09_double_group_experiment():
    with criterion(9, "double groups: isomorphic under the +1 convention, distinct under -1"):
        start = time.perf_counter()
        for n in (2, 3, 4, 6):
            verdicts = {v.convention: v for v in double_group_verdict(n)}
            assert verdicts[1].isomorphic
            assert verdicts[1].witness is not None
            assert not verdicts[-1].isomorphic
            assert verdicts[-1].invariant_used is not None
            assert "element-order multiset" in verdicts[-1].invariant_used
            assert verdicts[1].claim_match and verdicts[-1].claim_match
            payload = verdicts[-1].to_json()
            assert payload["paper_claim_match"] is True
        assert time.perf_counter() - start < 10.0


def test_criterion_10_verify_determinism(capsys):
    with criterion(10, "verify all --seed 42 produces byte-identical JSON on repeat runs"):
        args = ["verify", "all", "--seed", "42", "--format", "json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["all_pass"] is True
        assert payload["schema_version"] == 1
