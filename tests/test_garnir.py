import random
from math import comb

import pytest

from dualweyl import garnir
from dualweyl.garnir import (
    GarnirLabel,
    RelationKind,
    default_snake_rule,
    garnir_terms,
    iter_relation_labels,
    snake_box,
    snake_label,
    snake_terms,
)
from dualweyl.partitions import Partition, hook_content_dim, partitions_of
from dualweyl.quotients import _col_key, build_gtensor_specht
from dualweyl.tableaux import (
    Tableau,
    TableauClass,
    enumerate_tableaux,
    weight_of,
)
from dualweyl.tabloids import (
    ALT_COLUMN,
    TabloidKind,
    basis_class,
    build_basis,
    skew_column,
    vector_from_terms,
)
from helpers import (
    ColOrderResult,
    apply_e_map,
    col_compare,
    col_order,
    family_rank,
    garnir_oracle,
    naive_snake_terms,
    shuffled_template,
)


def snake_vector(t, i, j, kind, basis, p):
    return vector_from_terms(basis, p, garnir_terms(snake_label(t, i, j), kind))


def test_label_validation():
    t = Tableau.from_rows([(1, 1), (1,)])
    with pytest.raises(ValueError):
        GarnirLabel(t, ((1, 1),), ((1, 2),)).validate()  # |A|+|B| too small
    with pytest.raises(ValueError):
        GarnirLabel(t, ((1, 1), (2, 1)), ()).validate()
    with pytest.raises(ValueError):
        GarnirLabel(t, ((1, 1), (3, 1)), ((1, 2),)).validate()
    with pytest.raises(ValueError):
        snake_label(t, 2, 1)  # column 2 has height 1
    snake_label(t, 1, 1).validate()


def test_default_snake_rule():
    t = Tableau.from_rows([(2, 1), (3,)])
    assert default_snake_rule(t) == (1, 1)
    assert default_snake_rule(Tableau.from_rows([(1, 1), (2,)])) is None
    # least column wins before greatest row
    u = Tableau.from_rows([(1, 2, 1), (2, 1)])
    assert default_snake_rule(u) == (2, 1)


def test_all_ones_hook_relation():
    # On the shape (2,1) with every entry equal, the full snake relation has
    # three identical skew summands, hence survives mod 2, while every
    # alternating summand vanishes.
    t = Tableau.from_rows([(1, 1), (1,)])
    basis2 = build_basis(Partition((2, 1)), 1, skew_column(2))
    rel = snake_vector(t, 1, 1, skew_column(2), basis2, 2)
    assert rel.coords == {basis2.index_of(t): 1}
    alt_basis = build_basis(Partition((2, 1)), 1, ALT_COLUMN)
    assert snake_vector(t, 1, 1, ALT_COLUMN, alt_basis, 3).is_zero()


def test_vanishing_supplementary_relation():
    # Shape (2,1,1) with rows (1,1),(2),(2): the four skew summands cancel in
    # pairs, and the label stream still yields the zero relation.
    t = Tableau.from_rows([(1, 1), (2,), (2,)])
    kind = skew_column(2)
    basis = build_basis(Partition((2, 1, 1)), 2, kind)
    rel = snake_vector(t, 1, 1, kind, basis, 2)
    assert rel.is_zero()
    labels = iter_relation_labels(
        Partition((2, 1, 1)), 2, RelationKind.SKEW_SUPPLEMENTARY, kind
    )
    zero_labels = [
        lab
        for lab in labels
        if vector_from_terms(basis, 2, garnir_terms(lab, kind)).is_zero()
    ]
    assert any(lab.t == t for lab in zero_labels)


@pytest.mark.parametrize("p", [3, 5])
def test_supplementary_relations_vanish_at_odd_primes(p):
    # A and B share the letter of the equal pair, so the terms cancel in
    # pairs; the builds therefore skip the supplementary stage at odd p.
    kind = skew_column(p)
    for n in range(2, 6):
        for shape in partitions_of(n):
            for d in range(1, 4):
                for label in iter_relation_labels(
                    shape, d, RelationKind.SKEW_SUPPLEMENTARY, kind
                ):
                    assert garnir_terms(label, kind) == {}, label


def test_one_letter_snake_coefficient():
    # With a single letter each snake relation collapses onto one tabloid
    # with coefficient C(height+1, i).
    for shape in [Partition((2, 1)), Partition((3, 2, 1)), Partition((2, 2, 2))]:
        conj = shape.conjugate()
        for p in (2, 3):
            basis = build_basis(shape, 1, skew_column(p))
            if basis.dim == 0:
                continue
            t = basis.rep(0)
            for j in range(1, shape[0]):
                for i in range(1, conj.part(j + 1) + 1):
                    rel = snake_vector(t, i, j, skew_column(p), basis, p)
                    expected = comb(conj.part(j) + 1, i) % p
                    got = rel.coords.get(basis.index_of(t), 0)
                    assert got == expected, (shape, p, i, j)


def test_leading_term_alternating():
    # A basic snake relation has unit coefficient on its labelling tableau
    # and all other terms strictly below it in the column order.
    for shape in [Partition((2, 1)), Partition((2, 2)), Partition((3, 1))]:
        for d in (2, 3):
            for cols in enumerate_tableaux(shape, d, TableauClass.COLUMN_STANDARD):
                t = Tableau(cols)
                box = default_snake_rule(t)
                if box is None:
                    continue
                terms = garnir_terms(snake_label(t, box[0], box[1]), ALT_COLUMN)
                assert terms[t] == 1
                for u in terms:
                    if u != t:
                        assert col_compare(u, t) is ColOrderResult.LESS


@pytest.mark.parametrize(
    "kind, sources",
    [(ALT_COLUMN, 2170), (skew_column(2), 3184)],
    ids=repr,
)
def test_basic_snakes_are_unitriangular(kind, sources):
    # Straightening (and the dominant blocks in row-semistandard
    # coordinates) rest on this: the basic snake of every canonical
    # representative that is not row semistandard has that representative
    # as a term with coefficient 1 (so 1 mod every p), and every other
    # term strictly below it in the column order.
    seen = 0
    for n in range(2, 6):
        for shape in partitions_of(n):
            for d in range(1, 5):
                for cols in enumerate_tableaux(shape, d, basis_class(kind)):
                    box = snake_box(cols)
                    if box is None:
                        continue
                    terms = snake_terms(cols, *box, kind)
                    assert terms.pop(cols, 0) == 1, cols
                    for other in terms:
                        assert col_order(other, cols) is ColOrderResult.LESS
                    seen += 1
    assert seen == sources


def test_col_key_sorts_by_the_column_order():
    # Straightening pops the greatest term by this key; among canonical
    # representatives of one content a smaller key is a greater tableau.
    pairs = 0
    for n in range(2, 6):
        for shape in partitions_of(n):
            reps = enumerate_tableaux(shape, 3, TableauClass.COLUMN_SEMISTANDARD)
            by_weight = {}
            for cols in reps:
                by_weight.setdefault(weight_of(cols, 3), []).append(cols)
            for block in by_weight.values():
                for a in block:
                    for b in block:
                        if a == b:
                            continue
                        greater = col_order(a, b) is ColOrderResult.GREATER
                        assert (_col_key(a) < _col_key(b)) == greater, (a, b)
                        pairs += 1
    assert pairs == 8328


def test_leading_term_skew_equal_pair():
    # When the two snake-corner entries agree, the leading coefficient is the
    # binomial count of ways to refill the left block with the repeated letter.
    t = Tableau.from_rows([(1, 1), (1,), (2,)])  # cols (1,1,2),(1)
    label = snake_label(t, 1, 1)
    a = sum(1 for (i, j) in label.A if t.entry(i, j) == 1)
    b = sum(1 for (i, j) in label.B if t.entry(i, j) == 1)
    terms = garnir_terms(label, skew_column(2))
    assert comb(a + b, a) % 2 == terms.get(t, 0) % 2


@pytest.mark.parametrize(
    "kind, snake_count",
    [(ALT_COLUMN, 9034), (skew_column(2), 13080)],
    ids=repr,
)
def test_kernel_matches_the_brute_force_oracle(kind, snake_count):
    # Every adjacent snake (basic and supplementary boxes alike) of every
    # basis tableau for n <= 5, d <= 4, through both the column-tuple kernel
    # and the label wrapper; then every exhaustive Garnir label for n <= 4,
    # d <= 3, whose tableaux need not have sorted columns.
    snakes = 0
    for n in range(2, 6):
        for shape in partitions_of(n):
            for d in range(1, 5):
                for label in iter_relation_labels(
                    shape, d, RelationKind.ALL_ADJACENT_SNAKES, kind
                ):
                    expected = garnir_oracle(label, kind)
                    assert garnir_terms(label, kind) == expected, label
                    i, j = len(label.B), label.A[0][1]
                    kernel = snake_terms(label.t.cols, i - 1, j - 1, kind)
                    assert kernel == {t.cols: c for t, c in expected.items()}, label
                    snakes += 1
    exhaustive = 0
    for n in range(2, 5):
        for shape in partitions_of(n):
            for d in range(1, 4):
                for label in iter_relation_labels(
                    shape, d, RelationKind.EXHAUSTIVE_GARNIR, kind
                ):
                    assert garnir_terms(label, kind) == garnir_oracle(label, kind), label
                    exhaustive += 1
    assert (snakes, exhaustive) == (snake_count, 1200)


@pytest.mark.parametrize("kind", list(TabloidKind))
def test_snake_terms_match_the_naive_expansion(kind):
    # Every snake of every canonical tableau with n <= 6 and d <= n (those
    # over d = n letters hold the rest). A snake passes the columns it does
    # not touch through as they are, so past n = 4 each snake is checked
    # once per shape, column and pair of columns, on the first tableau
    # that holds it.
    seen = set()
    for n in range(2, 7):
        for shape in partitions_of(n):
            for cols in enumerate_tableaux(shape, n, basis_class(kind)):
                for j in range(len(cols) - 1):
                    for i in range(len(cols[j + 1])):
                        if n > 4:
                            key = (shape, j, cols[j], cols[j + 1], i)
                            if key in seen:
                                continue
                            seen.add(key)
                        want = naive_snake_terms(cols, i, j, kind)
                        assert snake_terms(cols, i, j, kind) == want, (cols, i, j)
    # The snakes at rows 0 and 1 of two seeded columns of heights up to 40.
    rng = random.Random(40)
    for h in (2, 3, 5, 9, 17, 28, 40):
        for h2 in sorted({2, rng.randint(2, h), h}):
            for _ in range(2):
                if kind is ALT_COLUMN:
                    left = tuple(sorted(rng.sample(range(1, 2 * h + 1), h)))
                    right = tuple(sorted(rng.sample(range(1, 2 * h + 1), h2)))
                else:
                    left = tuple(sorted(rng.choices(range(1, h + 2), k=h)))
                    right = tuple(sorted(rng.choices(range(1, h + 2), k=h2)))
                for i in (0, 1):
                    want = naive_snake_terms((left, right), i, 0, kind)
                    assert snake_terms((left, right), i, 0, kind) == want, (left, right, i)


@pytest.mark.parametrize("kind", [ALT_COLUMN, skew_column(2)], ids=repr)
def test_cached_snake_pairs_match_the_whole_tableau_expansion(kind):
    # `snake_terms` splices the cached expansion of its two columns
    # (`garnir._snake_pair`) into the tableau. It must equal the expansion
    # of the whole tableau by its template (`garnir._expand`), for every
    # snake box of every canonical tableau with n <= 6 and d <= 4, read
    # once from an empty cache and once from a full one.
    garnir._snake_pair.cache_clear()
    checked = 0
    for n in range(2, 7):
        for shape in partitions_of(n):
            for d in range(1, 5):
                for cols in enumerate_tableaux(shape, d, basis_class(kind)):
                    for j in range(len(cols) - 1):
                        template_of = garnir._snake_template
                        for i in range(len(cols[j + 1])):
                            template = template_of(len(cols[j]), len(cols[j + 1]), i)
                            want = garnir._expand(cols, j, j + 1, template, kind)
                            for _ in range(2):
                                got = snake_terms(cols, i, j, kind)
                                assert got == want, (cols, i, j)
                            checked += 1
    info = garnir._snake_pair.cache_info()
    assert info.hits >= checked and info.maxsize is not None
    assert checked == {ALT_COLUMN: 45543, skew_column(2): 74689}[kind]


def test_transversal_independence(monkeypatch):
    # Composing each coset representative of a template with a random
    # element of the group permuting A and B separately must not change
    # the relation.
    rng = random.Random(2024)
    real_template, shuffles = garnir._template, []

    def shuffling(hj, hj2, rows_a, rows_b):
        template = real_template(hj, hj2, rows_a, rows_b)
        shuffles.append(template)
        return shuffled_template(template, rows_a, rows_b, rng)

    shapes = [s for n in (3, 4) for s in partitions_of(n) if s[0] > 1]
    checked = 0
    while checked < 100:
        shape = rng.choice(shapes)
        d = rng.randint(1, 3)
        kind = rng.choice([ALT_COLUMN, skew_column(2), skew_column(3)])
        conj = shape.conjugate()
        j = rng.randint(1, shape[0] - 1)
        cols = [
            tuple(rng.randint(1, d) for _ in range(conj.part(jj)))
            for jj in range(1, shape[0] + 1)
        ]
        t = Tableau(cols)
        if rng.random() < 0.5:
            label = snake_label(t, rng.randint(1, conj.part(j + 1)), j)
        else:
            hj, hj2 = conj.part(j), conj.part(j + 1)
            ka = rng.randint(1, hj)
            lo = max(1, hj - ka + 1)
            if lo > hj2:
                continue
            kb = rng.randint(lo, hj2)
            label = GarnirLabel(
                t,
                tuple((i, j) for i in sorted(rng.sample(range(1, hj + 1), ka))),
                tuple((i, j + 1) for i in sorted(rng.sample(range(1, hj2 + 1), kb))),
            )
        reference = garnir_terms(label, kind)
        with monkeypatch.context() as patched:
            patched.setattr(garnir, "_template", shuffling)
            shuffled = garnir_terms(label, kind)
        assert reference == shuffled
        checked += 1
    assert len(shuffles) == checked


def test_snake_summands_never_exceed_label():
    # Spot check of the ordering fact behind the leading-term results: on a
    # column-semistandard tableau whose snake corner is weakly decreasing,
    # every summand stays at or below the label in the column order.
    rng = random.Random(31)
    for n in (4, 5):
        for shape in partitions_of(n):
            if shape[0] == 1:
                continue
            conj = shape.conjugate()
            for cols in enumerate_tableaux(shape, 3, TableauClass.COLUMN_SEMISTANDARD):
                if rng.random() > 0.2:
                    continue
                t = Tableau(cols)
                for j in range(1, shape[0]):
                    for i in range(1, conj.part(j + 1) + 1):
                        if t.entry(i, j) < t.entry(i, j + 1):
                            continue
                        terms = garnir_terms(snake_label(t, i, j), skew_column(2))
                        for u in terms:
                            assert col_compare(u, t) in (
                                ColOrderResult.LESS,
                                ColOrderResult.EQUIVALENT,
                            ), (t, u, i, j)


def test_relation_set_shapes_without_columns():
    # A one-column shape has no pair of columns, so no family has a label,
    # whichever tabloid kind carries it.
    shape = Partition((1, 1, 1))
    for rel_kind in RelationKind:
        for which, kind in (("nabla", ALT_COLUMN), ("gtensor", skew_column(2))):
            assert list(iter_relation_labels(shape, 2, rel_kind, kind)) == []
            assert family_rank(which, shape, 2, 2, [rel_kind]) == 0


def test_single_row_span_dimension():
    n, d = 3, 3
    rank = family_rank("gtensor", Partition((n,)), d, 2, [RelationKind.BASIC_SNAKE])
    assert rank == d**n - comb(d + n - 1, n)


def _count_labels(shape, d, kind):
    return sum(1 for _ in iter_relation_labels(shape, d, RelationKind.BASIC_SNAKE, kind))


def test_alt_basic_snakes_form_a_basis_of_the_kernel():
    for n in range(2, 6):
        for shape in partitions_of(n):
            for d in (2, 3, 4):
                labels = _count_labels(shape, d, ALT_COLUMN)
                for p in (2, 3):
                    rank = family_rank(
                        "nabla", shape, d, p, [RelationKind.BASIC_SNAKE]
                    )
                    assert rank == labels
                    ambient = build_basis(shape, d, ALT_COLUMN).dim
                    assert rank == ambient - hook_content_dim(shape, d)


def test_skew_basic_snakes_independent():
    for n in range(2, 6):
        for shape in partitions_of(n):
            for d in (2, 3, 4):
                rank = family_rank("gtensor", shape, d, 2, [RelationKind.BASIC_SNAKE])
                assert rank == _count_labels(shape, d, skew_column(2))


@pytest.mark.parametrize(
    "kind, census",
    [
        (skew_column(2), TableauClass.ROW_AND_COLUMN_SEMISTANDARD),
        (ALT_COLUMN, TableauClass.SEMISTANDARD),
    ],
)
def test_basic_snake_labels_leave_the_semistandard_census(kind, census):
    # Each basis tableau that is not row semistandard labels one basic snake,
    # so the ambient dimension minus the label count is the census of the
    # row-semistandard basis tableaux.
    cases = [(s, d) for n in range(1, 6) for s in partitions_of(n) for d in range(1, 5)]
    cases.append((Partition((5, 1)), 6))
    for shape, d in cases:
        ambient = build_basis(shape, d, kind).dim
        labels = _count_labels(shape, d, kind)
        count = len(enumerate_tableaux(shape, d, census))
        assert ambient - labels == count, (shape, d)
        if kind is TabloidKind.SKEW_MOD_2 and (shape, d) == (Partition((5, 1)), 6):
            assert (ambient, labels, count) == (27216, 25914, 1302)


@pytest.mark.parametrize("d", [2, 3])
def test_skew_spanning_triple_rank_equality(d):
    for n in range(2, 5):
        for shape in partitions_of(n):
            dim_bs = build_gtensor_specht(shape, d, 2).relation_rank
            dim_adj = family_rank(
                "gtensor", shape, d, 2, [RelationKind.ALL_ADJACENT_SNAKES]
            )
            dim_exh = family_rank(
                "gtensor", shape, d, 2, [RelationKind.EXHAUSTIVE_GARNIR]
            )
            assert dim_bs == dim_adj == dim_exh, (shape, d)


def test_exhaustive_generation_is_capped():
    with pytest.raises(ValueError):
        list(
            iter_relation_labels(
                Partition((3, 3)), 2, RelationKind.EXHAUSTIVE_GARNIR, skew_column(2)
            )
        )


def test_garnir_relations_die_in_the_row_space():
    # The signed column relations must vanish under row symmetrization; this
    # drives every sign convention through an independent expansion.
    rng = random.Random(5)
    for shape in [Partition((2, 1)), Partition((2, 2)), Partition((2, 1, 1)), Partition((3, 1))]:
        for d in (2, 3):
            labels = list(
                iter_relation_labels(
                    shape, d, RelationKind.EXHAUSTIVE_GARNIR, ALT_COLUMN
                )
            )
            for label in rng.sample(labels, min(25, len(labels))):
                for p in (2, 3):
                    terms = {
                        t: c % p for t, c in garnir_terms(label, ALT_COLUMN).items()
                    }
                    assert apply_e_map(terms, p) == {}, (shape, d, p, label.t)


def test_small_hook_relation_census():
    # Shape (2,1) over two letters mod 2: one basic and three supplementary
    # relations, jointly of full rank 4 in the 6-dimensional skew space.
    shape, kind = Partition((2, 1)), skew_column(2)
    basic = list(iter_relation_labels(shape, 2, RelationKind.BASIC_SNAKE, kind))
    supp = list(iter_relation_labels(shape, 2, RelationKind.SKEW_SUPPLEMENTARY, kind))
    assert len(basic) == 1 and len(supp) == 3
    assert build_basis(shape, 2, kind).dim == 6
    families = [RelationKind.BASIC_SNAKE, RelationKind.SKEW_SUPPLEMENTARY]
    assert family_rank("gtensor", shape, 2, 2, families) == 4
    assert build_gtensor_specht(shape, 2, 2).relation_rank == 4
    again = iter_relation_labels(shape, 2, RelationKind.BASIC_SNAKE, kind)
    assert [garnir_terms(lab, kind) for lab in again] == [
        garnir_terms(lab, kind) for lab in basic
    ]
