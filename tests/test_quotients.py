import gc
import hashlib
import random
import re
from math import comb, prod

import pytest

from dualweyl.garnir import RelationKind, garnir_terms, iter_relation_labels
from dualweyl.partitions import (
    Partition,
    alternating_forecast,
    count_syt,
    hook_content_dim,
    partitions_of,
)
from dualweyl.quotients import (
    apply_transvection,
    build_dual_weyl,
    build_gtensor_specht,
    module_dim,
    straighten,
    u_lambda_dim,
    u_lambda_weight_table,
    verify_iso,
)
from dualweyl.tableaux import Tableau, kostka_number, weight_of
from dualweyl.tabloids import (
    ALT_COLUMN,
    TabloidVector,
    build_basis,
    skew_column,
    tabloid_kind,
    vector_from_terms,
)
from helpers import (
    block_pos,
    block_spans,
    brute_fillings,
    family_rank,
    packed_weight,
    probe_builder,
    reduce_oracle,
    rref_oracle,
    span,
    straighten_terms,
    straighten_vector,
    transvection_oracle,
    unit_vector,
    unshared_build,
)


def relation_vectors(module, rel_kinds):
    """The relations of the given families as vectors over the module's
    ambient space, one per label."""
    kind = module.ambient.kind
    return [
        vector_from_terms(module.ambient, module.p, garnir_terms(label, kind))
        for rel_kind in rel_kinds
        for label in iter_relation_labels(
            module.ambient.shape, module.ambient.d, rel_kind, kind
        )
    ]

# sha256 over the canonical relation subspace (pivot indices and dense
# reduced rows) of every weight block of both constructions, for n <= 4,
# d <= 4 and p in {3, 5}. It was recorded while odd-prime rows were still
# dense numpy arrays, so it shows that the sparse engine gives the same
# subspaces.
BLOCK_SPANS_SHA256 = "b9c75b2ad490ae1afa1cab592638b419b692bd907241f861823c87c78ef4b6d1"
# The same at p = 2, where the supplementary stage runs, with each block's
# basic rank; recorded before relations were expanded from column tuples.
BLOCK_SPANS_P2_SHA256 = "156a606959ce5ef4380b156af2ea94612aebe5ab2882d74889978c8598ca0281"


def test_dual_weyl_dims_match_hook_content():
    for n in range(1, 5):
        for shape in partitions_of(n):
            for d in range(1, 5):
                for p in (2, 3, 5):
                    assert build_dual_weyl(shape, d, p).dim == hook_content_dim(
                        shape, d
                    ), (shape, d, p)


def test_dual_weyl_examples():
    assert build_dual_weyl(Partition((2, 2, 1)), 3, 2).dim == 3
    assert build_dual_weyl(Partition((1, 1, 1)), 3, 5).dim == 1
    assert build_dual_weyl(Partition((2, 1)), 2, 2).dim == 2
    assert build_dual_weyl(Partition((2, 1)), 1, 2).dim == 0  # column too tall


def test_gtensor_examples():
    for n, d in [(2, 3), (3, 2), (4, 2)]:
        got = build_gtensor_specht(Partition((1,) * n), d, 2).dim
        assert got == comb(d + n - 1, n)
    assert build_gtensor_specht(Partition((2, 1)), 2, 2).dim == 2
    assert build_gtensor_specht(Partition((2, 2, 1)), 4, 2).dim == 76


def test_gtensor_matches_dual_weyl_at_odd_primes():
    for n in range(1, 5):
        for shape in partitions_of(n):
            for d in range(1, 4):
                for p in (3, 5):
                    g = build_gtensor_specht(shape, d, p)
                    w = build_dual_weyl(shape, d, p)
                    assert g.dim == w.dim, (shape, d, p)
                    assert g.weight_table() == w.weight_table()


def test_u_lambda_examples():
    shape = Partition((2, 2, 1))
    assert u_lambda_dim(shape, 4) == 56
    assert u_lambda_dim(shape, 5) == 125
    for d in (1, 2, 3):
        assert u_lambda_dim(Partition((3, 2, 1)), d) == 0
        assert u_lambda_dim(Partition((2, 1)), d) == 0


def test_u_lambda_equals_dimension_gap():
    for n in range(1, 7):
        for shape in partitions_of(n):
            for d in (1, 2, 3, 4):
                expected = (
                    build_gtensor_specht(shape, d, 2).dim
                    - build_dual_weyl(shape, d, 2).dim
                )
                assert u_lambda_dim(shape, d) == expected, (shape, d)


def test_verify_iso_examples():
    assert verify_iso(Partition((2, 1)), 3, 2) is True
    assert verify_iso(Partition((2, 2, 1)), 4, 2) is False
    assert verify_iso(Partition((4, 3, 2, 1, 1)), 2, 2) is True
    assert verify_iso(Partition((2, 2, 1)), 4, 3) is True  # vacuous away from 2


@pytest.mark.parametrize("p", [0, 1, 4, 9])
def test_a_non_prime_p_is_refused(p):
    # There is no field GF(p) for such a p: every entry point refuses it
    # rather than pass vacuously, count as at an odd prime, or straighten
    # modulo p.
    shape = Partition((2, 1))
    calls = [
        lambda: verify_iso(Partition((2, 2, 1)), 3, p),
        lambda: module_dim("nabla", shape, 2, p),
        lambda: module_dim("gtensor", shape, 2, p),
        lambda: alternating_forecast("nabla", shape, 2, p),
        lambda: build_dual_weyl(shape, 2, p),
        lambda: build_gtensor_specht(shape, 2, p),
        lambda: straighten(Tableau(((2, 3), (1,))), shape, 3, p),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="prime"):
            call()


def test_a_vector_over_another_prime_is_refused():
    # Bases are keyed by tabloid kind, not by p, so a vector over GF(5)
    # shares its basis with a module over GF(3).
    module = build_dual_weyl(Partition((2, 1)), 3, 3)
    alien = TabloidVector(module.ambient, 5, {0: 4, 1: 3})
    for read in (module.reduce, module.relations_contain):
        with pytest.raises(ValueError, match=r"GF\(5\).*GF\(3\)"):
            read(alien)
    vec = TabloidVector(module.ambient, 3, {0: 1, 1: 2})
    assert module.reduce(vec).p == 3
    with pytest.raises(ValueError, match=r"GF\(5\).*GF\(3\)"):
        apply_transvection(vec, 1, 2, 5)
    assert apply_transvection(vec, 1, 2, 3).p == 3


def test_straighten_semistandard_fixed_point():
    basis = build_basis(Partition((2, 1)), 3, ALT_COLUMN)
    for i in range(basis.dim):
        t = basis.rep(i)
        if t.is_row_semistandard():
            out = straighten(t, Partition((2, 1)), 3, 5)
            assert out.coords == {basis.index_of(t): 1}


def test_straighten_worked_example():
    # cols (2,3),(1): rewriting recovers rows (1,2),(3) minus rows (1,3),(2).
    shape, d, p = Partition((2, 1)), 3, 5
    t = Tableau(((2, 3), (1,)))
    out = straighten(t, shape, d, p)
    basis = build_basis(shape, d, ALT_COLUMN)
    plus = Tableau(((1, 3), (2,)))
    minus = Tableau(((1, 2), (3,)))
    assert out.coords == {
        basis.index_of(plus): 1,
        basis.index_of(minus): p - 1,
    }


def test_straighten_refuses_an_entry_above_d():
    with pytest.raises(ValueError, match="entry 3 exceeds d=2"):
        straighten(Tableau(((1, 3), (1,))), Partition((2, 1)), 2, 3)


def test_straighten_refuses_a_tableau_of_another_shape():
    # The column heights must be those of the stated shape: a tableau of
    # another shape with as many boxes, or with more, is refused.
    for cols in (((1, 2), (1,)), ((1,), (1,), (2,), (3,)), ((1, 2, 3),)):
        with pytest.raises(ValueError, match="does not have the stated shape"):
            straighten(Tableau(cols), Partition((3,)), 3, 3)


def test_straighten_zero_on_repeated_column():
    out = straighten(Tableau(((1, 1), (2,))), Partition((2, 1)), 2, 3)
    assert out.is_zero()


@pytest.mark.parametrize("p", [2, 3])
def test_straighten_congruence_and_idempotence(p):
    rng = random.Random(p)
    for n in range(2, 6):
        for shape in partitions_of(n):
            for d in (2, 3, 4):
                fillings = list(brute_fillings(shape, d))
                sample = rng.sample(fillings, min(200, len(fillings)))
                module = build_dual_weyl(shape, d, p)
                basis = module.ambient
                from dualweyl.tabloids import canonicalize

                for t in sample:
                    out = straighten(t, shape, d, p)
                    assert all(
                        basis.rep(i).is_row_semistandard() for i in out.coords
                    )
                    st = canonicalize(t, ALT_COLUMN)
                    diff = dict(out.coords)
                    if not st.is_zero:
                        idx = basis.index_of(st.rep)
                        diff[idx] = (diff.get(idx, 0) - st.sign) % p
                        if not diff[idx]:
                            del diff[idx]
                    assert module.relations_contain(TabloidVector(basis, p, diff))
                    assert straighten_vector(out).coords == out.coords


def test_weight_tables():
    for n in range(1, 5):
        for shape in partitions_of(n):
            module = build_gtensor_specht(shape, n, 2)
            table = module.weight_table()
            assert sum(table.values()) == module.dim
            assert table.get((1,) * n, 0) == count_syt(shape), shape
    row = build_dual_weyl(Partition((4,)), 3, 2)
    assert row.weight_table()[(4, 0, 0)] == 1


def test_u_weight_table():
    shape = Partition((2, 2, 1))
    table = u_lambda_weight_table(shape, 5)
    assert sum(table.values()) == 125
    assert (1, 1, 1, 1, 1) not in table  # kernel vanishes on distinct entries
    # symmetric in the letters: permuting a weight leaves the entry unchanged
    assert table.get((2, 1, 1, 1, 0), 0) == table.get((1, 1, 0, 2, 1), 0)


def test_restrict_entries():
    # The full build at d, restricted to the weights with no letter past
    # d_sub, has the dimension at d_sub, which `module_dim` reads from the
    # dominant blocks at d_sub scaled over S_d-orbits instead.
    full_21 = build_gtensor_specht(Partition((2, 1)), 3, 2).dim
    cases = [((2, 2, 1), 5, 4, 76), ((1, 1, 1), 3, 1, 1), ((2, 1), 3, 3, full_21),
             ((3, 1, 1), 5, 2, 8)]
    for parts, d, d_sub, expected in cases:
        shape = Partition(parts)
        table = build_gtensor_specht(shape, d, 2).weight_table()
        restricted = sum(v for w, v in table.items() if not any(w[d_sub:]))
        assert restricted == module_dim("gtensor", shape, d_sub, 2) == expected


def test_d4_weight_table_restricts_to_every_smaller_d():
    # The thm1 suite reads a smaller d from the d = 4 build: the weights
    # with no letter past d, truncated to d letters, are the weight table
    # of the build at d, for both constructions.
    for n in range(1, 6):
        for shape in partitions_of(n):
            for p in (2, 3):
                for build in (build_dual_weyl, build_gtensor_specht):
                    table = build(shape, 4, p).weight_table()
                    for d in range(1, 5):
                        restricted = {
                            w[:d]: v for w, v in table.items() if not any(w[d:])
                        }
                        assert restricted == build(shape, d, p).weight_table(), (
                            shape, d, p, build.__name__
                        )


def test_transvection_examples():
    basis = build_basis(Partition((1, 1)), 2, skew_column(2))
    v = unit_vector(basis, 2, Tableau(((1, 1),)))
    image = apply_transvection(v, 1, 2, 2)
    expected = {
        basis.index_of(Tableau(((1, 1),))): 1,
        basis.index_of(Tableau(((2, 2),))): 1,
    }
    assert image.coords == expected
    # letters absent from the support leave the vector unchanged
    w = unit_vector(basis, 2, Tableau(((2, 2),)))
    assert apply_transvection(w, 1, 2, 2).coords == w.coords
    # mod 2 the substitution is an involution
    assert apply_transvection(image, 1, 2, 2).coords == v.coords


def test_transvection_matches_the_whole_filling_expansion():
    # Column by column, each column substituted once per subset of its own
    # source positions, gives the coordinates of the expansion over whole
    # fillings: the module-ops spaces and two small mod-2 skew ones.
    rng = random.Random(29)
    spaces = [
        ("nabla", (4, 2), 5, 3),
        ("gtensor", (3, 3), 6, 5),
        ("nabla", (3, 2, 1), 5, 3),
        ("gtensor", (2, 2, 1), 6, 2),
        ("gtensor", (3, 1), 4, 2),
        ("gtensor", (2, 2), 4, 2),
    ]
    for which, lam, d, p in spaces:
        basis = build_basis(Partition(lam), d, tabloid_kind(which, p))
        for _ in range(400):
            coords = {
                rng.randrange(basis.dim): rng.randrange(1, p)
                for _ in range(rng.randint(1, 4))
            }
            vec = TabloidVector(basis, p, coords)
            src, tgt = rng.sample(range(1, d + 1), 2)
            expected = transvection_oracle(vec, src, tgt, p).coords
            assert apply_transvection(vec, src, tgt, p).coords == expected, (lam, coords)


@pytest.mark.parametrize(
    "kind, p", [(ALT_COLUMN, 3), (skew_column(2), 2)], ids=repr
)
def test_transvections_of_every_unit_vector_match_the_oracle(kind, p):
    # A transvection moves each column holding the source letter by a
    # cached rank move and signs it: every unit vector of every space with
    # n <= 5 and d <= 4, under every ordered pair of distinct letters, has
    # the coordinates of the expansion over whole fillings.
    from itertools import permutations

    checked = 0
    for n in range(1, 6):
        for shape in partitions_of(n):
            for d in range(1, 5):
                basis = build_basis(shape, d, kind)
                pairs = list(permutations(range(1, d + 1), 2))
                for i in range(basis.dim):
                    vec = TabloidVector(basis, p, {i: 1})
                    for src, tgt in pairs:
                        expected = transvection_oracle(vec, src, tgt, p).coords
                        got = apply_transvection(vec, src, tgt, p).coords
                        assert got == expected, (shape, d, i, src, tgt)
                        checked += 1
    assert checked == {ALT_COLUMN: 29374, skew_column(2): 49278}[kind]


def test_transvection_closure_of_relation_span():
    for shape in [Partition((2, 1)), Partition((2, 2)), Partition((2, 1, 1))]:
        for d in (2, 3):
            module = build_gtensor_specht(shape, d, 2)
            families = [RelationKind.BASIC_SNAKE, RelationKind.SKEW_SUPPLEMENTARY]
            for vec in relation_vectors(module, families):
                for src in range(1, d + 1):
                    for tgt in range(1, d + 1):
                        if src == tgt:
                            continue
                        image = apply_transvection(vec, src, tgt, 2)
                        assert module.relations_contain(image), (shape, d, src, tgt)


def test_quotient_reduce_and_indices():
    shape, d, p = Partition((2, 1)), 2, 2
    module = build_gtensor_specht(shape, d, p)
    for vec in relation_vectors(module, [RelationKind.BASIC_SNAKE]):
        assert module.relations_contain(vec)
        assert module.reduce(vec).is_zero()
    free = module.quotient_indices()
    assert len(free) == module.dim
    basis = module.ambient
    one = unit_vector(basis, p, basis.rep(free[0]))
    assert module.reduce(one).coords == one.coords


def test_quotient_indices_match_the_reference():
    # The quotient coordinates against the span of the relations expanded
    # label by label over the whole ambient space: there are dim of them,
    # in increasing order, and their unit vectors are independent modulo
    # that span. On seeded vectors `reduce` is idempotent, moves a vector
    # only by that span, and lands on the quotient coordinates. Every
    # module with n <= 4, d <= 4 and p in {2, 3, 5}, both constructions.
    families = {
        build_dual_weyl: [RelationKind.BASIC_SNAKE],
        build_gtensor_specht: [
            RelationKind.BASIC_SNAKE,
            RelationKind.SKEW_SUPPLEMENTARY,
        ],
    }
    rng = random.Random(38)
    checked = 0
    for n in range(1, 5):
        for shape in partitions_of(n):
            for d in range(1, 5):
                for p in (2, 3, 5):
                    for build in (build_dual_weyl, build_gtensor_specht):
                        module = build(shape, d, p)
                        basis, dim = module.ambient, module.ambient.dim
                        vectors = relation_vectors(module, families[build])
                        relations = span([v.coords for v in vectors], dim, p)
                        got = module.quotient_indices()
                        assert got == sorted(set(got)) and len(got) == module.dim
                        probe = probe_builder(relations)
                        assert all(probe.add({i: 1}) for i in got), (shape, d, p)
                        assert relations.dim + len(got) == dim
                        for _ in range(5 if dim else 0):
                            coords = {rng.randrange(dim): rng.randrange(-p, 2 * p)
                                      for _ in range(4)}
                            v = TabloidVector(basis, p, coords)
                            r = module.reduce(v)
                            assert module.reduce(r).coords == r.coords
                            assert relations.contains(v.add(r.scale(-1)).coords)
                            assert set(r.coords) <= set(got)
                        checked += bool(got)
    assert checked


def test_quotient_reduce_at_odd_prime():
    shape, d, p = Partition((2, 1)), 3, 3
    module = build_dual_weyl(shape, d, p)
    for vec in relation_vectors(module, [RelationKind.BASIC_SNAKE]):
        assert module.relations_contain(vec)
        assert module.reduce(vec).is_zero()
    # reduction is canonical: reducing a reduced vector changes nothing
    basis = module.ambient
    probe = vector_from_terms(basis, p, {basis.rep(0): 1, basis.rep(3): 2})
    reduced = module.reduce(probe)
    assert module.reduce(reduced).coords == reduced.coords
    diff = reduced.add(probe.scale(p - 1))
    assert module.relations_contain(diff) or diff.is_zero()
    assert len(module.quotient_indices()) == module.dim


def _reduce_by_weight(module, coords: dict[int, int], rrefs: dict) -> dict[int, int]:
    """reduce as an elimination reads it: each coordinate's block found by
    the weight of its tabloid, and its local coordinate by position,
    reduced densely against the reduced echelon rows of the block's span
    in the order that puts the tabloids that are not row semistandard
    first, by textbook Gauss-Jordan elimination; ``rrefs`` keeps that
    order and those rows per weight."""
    from dualweyl.garnir import snake_box

    basis, p = module.ambient, module.p
    parts: dict[tuple[int, ...], dict[int, int]] = {}
    for i, c in coords.items():
        parts.setdefault(weight_of(basis.cols[i], basis.d), {})[i] = c
    out = {}
    for w, part in parts.items():
        block = module._layout.blocks[w]
        if w not in rrefs:
            order = sorted(
                range(block.size),
                key=lambda j: (snake_box(basis.cols[block.indices[j]]) is None, j),
            )
            span = block_spans(module)[w]
            rows = [[row[j] for j in order] for row in span.basis_rows()]
            rrefs[w] = order, rref_oracle(rows, block.size, p)
        order, rref = rrefs[w]
        dense = [part.get(block.indices[j], 0) for j in order]
        reduced = reduce_oracle(rref, dense, p)
        out.update({block.indices[order[k]]: c for k, c in enumerate(reduced) if c})
    return out


def test_reads_match_the_block_found_by_weight():
    # Reads find a coordinate's block and local coordinate through the
    # module's index. Every ambient unit vector and some seeded sparse
    # vectors, with coefficients outside [0, p), reduce as the weight
    # route says; v - reduce(v) lies in the relations, and no quotient
    # unit vector does.
    rng = random.Random(30)
    modules = {
        id(m): m
        for n in range(1, 5)
        for shape in partitions_of(n)
        for d in range(1, 5)
        for p in (2, 3, 5)
        for m in (build_dual_weyl(shape, d, p), build_gtensor_specht(shape, d, p))
    }
    for module in modules.values():
        basis, p = module.ambient, module.p
        vectors = [{i: 1} for i in range(basis.dim)] + [
            {rng.randrange(basis.dim): rng.randrange(-p, 2 * p) for _ in range(5)}
            for _ in range(5 if basis.dim else 0)
        ]
        rrefs = {}
        for coords in vectors:
            v = TabloidVector(basis, p, coords)
            r = module.reduce(v)
            want = _reduce_by_weight(module, coords, rrefs)
            assert r.coords == want, (module, coords)
            assert module.relations_contain(v.add(r.scale(-1)))
        for i in module.quotient_indices():
            assert not module.relations_contain(TabloidVector(basis, p, {i: 1}))


@pytest.mark.parametrize("build, p", [(build_dual_weyl, 3), (build_gtensor_specht, 2)])
def test_a_coordinate_out_of_range_is_refused(build, p):
    # A negative coordinate is not a tabloid counted from the end, and one
    # at dim or past it is refused alike, with a zero coefficient too.
    module = build(Partition((2, 1)), 3, p)
    dim = module.ambient.dim
    reads = (
        module.reduce,
        module.relations_contain,
        lambda v: apply_transvection(v, 1, 2, p),
    )
    for read in reads:
        for i in (-1, -dim, dim, dim + 1):
            for c in (1, p):
                vec = TabloidVector(module.ambient, p, {0: 1, i: c})
                with pytest.raises(ValueError, match=rf"coordinate {i} is not in range\({dim}\)"):
                    read(vec)


def test_module_index_needs_blocks_that_partition_the_coordinates():
    # The layout indexes the coordinates of its blocks, which must be a
    # partition: a forged layout that drops a block, or that then holds
    # one block twice, is refused.
    from dualweyl.partitions import InvariantError
    from dualweyl.quotients import _Layout

    layout = build_gtensor_specht(Partition((2, 1)), 3, 2)._layout
    blocks = dict(layout.blocks)
    blocks.popitem()
    with pytest.raises(InvariantError, match="partition"):
        _Layout(layout.basis, blocks)
    w, block = next(iter(blocks.items()))
    blocks[w + (0,)] = block  # one block twice
    with pytest.raises(InvariantError, match="partition"):
        _Layout(layout.basis, blocks)


def test_block_spans_match_full_ambient_spans():
    # The block-routed spans against spans over the whole ambient space,
    # with every label expanded to an ambient vector and no weight blocks.
    construction = {
        build_dual_weyl: [RelationKind.BASIC_SNAKE],
        build_gtensor_specht: [
            RelationKind.BASIC_SNAKE,
            RelationKind.SKEW_SUPPLEMENTARY,
        ],
    }
    oracle_families = [RelationKind.ALL_ADJACENT_SNAKES, RelationKind.EXHAUSTIVE_GARNIR]
    cases = 0
    for n in range(1, 5):
        for shape in partitions_of(n):
            for d in range(1, 4):
                for p in (2, 3):
                    for build, families in construction.items():
                        module = build(shape, d, p)
                        dim = module.ambient.dim
                        vectors = relation_vectors(module, families)
                        full = span([v.coords for v in vectors], dim, p).dim
                        assert full == module.relation_rank, (shape, d, p)
                        which = "nabla" if build is build_dual_weyl else "gtensor"
                        for family in oracle_families:
                            vectors = relation_vectors(module, [family])
                            full = span([v.coords for v in vectors], dim, p).dim
                            got = family_rank(which, shape, d, p, [family])
                            assert full == got, (which, shape, d, p, family)
                        cases += 1
    assert cases == 2 * 2 * 3 * sum(1 for n in range(1, 5) for _ in partitions_of(n))


def test_block_spans_are_pinned():
    digest = hashlib.sha256()
    blocks = 0
    for build in (build_dual_weyl, build_gtensor_specht):
        for n in range(1, 5):
            for shape in partitions_of(n):
                for d in range(1, 5):
                    for p in (3, 5):
                        module = build(shape, d, p)
                        if build is build_gtensor_specht:
                            assert module.supplementary_rank_gain == 0
                        for w, s in sorted(block_spans(module).items()):
                            key = (build.__name__, tuple(shape), d, p, w,
                                   s.pivot_indices(), s.basis_rows())
                            digest.update(repr(key).encode())
                            blocks += 1
    assert blocks == 1000
    assert digest.hexdigest() == BLOCK_SPANS_SHA256


def test_block_spans_are_pinned_at_two():
    digest = hashlib.sha256()
    blocks = 0
    for build in (build_dual_weyl, build_gtensor_specht):
        for n in range(1, 5):
            for shape in partitions_of(n):
                for d in range(1, 5):
                    module = build(shape, d, 2)
                    spans = block_spans(module)
                    for w, block in sorted(module._layout.blocks.items()):
                        s = spans[w]
                        key = (build.__name__, tuple(shape), d, w, s.pivot_indices(),
                               s.basis_rows(), module._spans[block.key].basic_rank)
                        digest.update(repr(key).encode())
                        blocks += 1
    assert blocks == 685
    assert digest.hexdigest() == BLOCK_SPANS_P2_SHA256


@pytest.mark.parametrize(
    "p, relation_rank, gain", [(2, 26166, 252), (3, 18390, 0)]
)
def test_large_gtensor_build_is_pinned(p, relation_rank, gain):
    # (5,1), d = 6: 27216 skew tabloids at p = 2 in 462 weight blocks.
    module = build_gtensor_specht(Partition((5, 1)), 6, p)
    assert module.dim == 1050 == hook_content_dim(Partition((5, 1)), 6)
    assert module.relation_rank == relation_rank
    assert module.supplementary_rank_gain == gain


def _pattern_snakes(shape, d, kind):
    """(basic, supplementary, nonzero supplementary) over one block of
    each packed weight: the tabloids outside R, whose basic snakes are
    expanded; the supplementary snakes of the mod-2 skew kind that are
    expanded (one per entry equal to its right neighbour in an R
    representative, in a column of height 2 or more); and those of all the
    supplementary snakes, on columns of height 1 too, that the reference
    `straighten_terms` straightens to a nonzero combination."""
    from dualweyl.garnir import equal_boxes, snake_box, snake_terms

    blocks, patterns = {}, {}
    for cols in build_basis(shape, d, kind).cols:
        blocks.setdefault(weight_of(cols, d), []).append(cols)
    for w, reps in blocks.items():
        patterns.setdefault(packed_weight(w), reps)
    basic = supplementary = nonzero = 0
    for cols in (cols for reps in patterns.values() for cols in reps):
        if snake_box(cols) is not None:
            basic += 1
        elif not kind.zero_on_column_repeats:
            for box in equal_boxes(cols):
                supplementary += len(cols[box[1]]) > 1
                terms = snake_terms(cols, *box, kind)
                nonzero += bool(straighten_terms(terms, kind, 2))
    return basic, supplementary, nonzero


@pytest.mark.parametrize("p", [2, 3])
def test_build_creates_no_objects_per_relation(monkeypatch, p):
    # With the basis built, the full build expands every relation from
    # column tuples: no Tableau, Partition or GarnirLabel is created. It
    # straightens one block of each packed weight once, expanding
    # the basic snake of each tabloid there that is not row semistandard
    # (and at p = 2 the supplementary snakes, but none on two columns of
    # height 1, which is zero mod 2), and eliminates no basic snake: at odd
    # p no pattern makes a span builder, and at p = 2 the patterns push
    # each nonzero straightened supplementary snake onto theirs.
    from dualweyl import quotients
    from dualweyl.garnir import GarnirLabel
    from helpers import record_pushes

    shape, kind = Partition((5, 1)), skew_column(p)
    basic, supplementary, nonzero = _pattern_snakes(shape, 6, kind)
    assert (basic, supplementary, nonzero) == {2: (2516, 40, 40), 3: (1991, 0, 0)}[p]
    quotients._pattern.cache_clear()
    created = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            created.append(name)
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Tableau, "__init__", counting("Tableau", Tableau.__init__))
    monkeypatch.setattr(
        Partition, "__new__", staticmethod(counting("Partition", Partition.__new__))
    )
    monkeypatch.setattr(
        GarnirLabel, "__init__", counting("GarnirLabel", GarnirLabel.__init__)
    )
    GarnirLabel(Tableau(((1,), (2,))), ((1, 1),), ((1, 2),))
    assert created == ["Tableau", "GarnirLabel"]  # the counters work
    Partition((1,))
    assert created[-1] == "Partition"
    created.clear()

    real_snake = quotients.snake_terms
    snakes = []

    def snake(*args):
        snakes.append(args)
        return real_snake(*args)

    monkeypatch.setattr(quotients, "snake_terms", snake)
    pushes = record_pushes(monkeypatch)
    module = quotients._build.__wrapped__(shape, 6, p, kind)
    assert created == []
    assert len(snakes) == basic + supplementary == len(set(snakes))
    masks = [mask for pushed in pushes for mask in pushed]
    assert len(masks) == nonzero and all(masks)
    assert len(pushes) == {2: len(module._layout.packs), 3: 0}[p]
    assert module.dim == 1050


def test_straightening_refuses_a_snake_that_is_not_unitriangular(monkeypatch):
    # Straightening is the check that the basic snakes are unitriangular,
    # on which the full build and `straighten` rest: a basic snake must
    # lead with its source with coefficient 1, and bring in only terms of
    # the block that are below it. One routine serves both callers, and
    # each fault is refused by name through each of them. A term outside
    # the block shows only in a build: `straighten` has an R-coordinate
    # for every semistandard tableau of the basis.
    from dualweyl import quotients
    from dualweyl.garnir import snake_box, snake_terms
    from dualweyl.partitions import InvariantError
    from helpers import patch_values

    shape, d = Partition((3, 1)), 3
    cols = build_basis(shape, d, ALT_COLUMN).cols
    block = [c for c in cols if weight_of(c, d) == (2, 1, 1)]
    outside = next(c for c in cols if c not in block)
    # the smallest and the greatest of the three tabloids of the block that
    # are not row semistandard (a greater column key is a smaller tableau)
    low, _, high = sorted(
        (c for c in block if snake_box(c) is not None),
        key=quotients._col_key,
        reverse=True,
    )
    args = (low, *snake_box(low), ALT_COLUMN)
    terms = snake_terms(*args)

    def build():
        quotients._pattern.cache_clear()
        return quotients._build.__wrapped__(shape, d, 3, ALT_COLUMN)

    def straighten_low():
        quotients._pattern.cache_clear()
        return straighten(Tableau(low), shape, d, 3)

    faults = {
        "does not lead with it": ({**terms, low: 2}, (build, straighten_low)),
        f"brings in {high}, which is not below it": (
            {**terms, high: 1},
            (build, straighten_low),
        ),
        f"relation term {outside} lies outside its weight block": (
            {**terms, outside: 1},
            (build,),
        ),
    }
    for message, (fault, callers) in faults.items():
        for call in callers:
            with monkeypatch.context() as m:
                patch_values(m, quotients, "snake_terms", {args: dict(fault)})
                with pytest.raises(InvariantError, match=re.escape(message)):
                    call()
    assert build().dim == hook_content_dim(shape, d)
    unit = unit_vector(build_basis(shape, d, ALT_COLUMN), 3, Tableau(low))
    assert straighten_low() == straighten_vector(unit)


@pytest.mark.parametrize(
    "kind, p", [(ALT_COLUMN, 2), (ALT_COLUMN, 3), (skew_column(2), 2)], ids=repr
)
def test_pattern_images_match_straightening_from_scratch(kind, p, monkeypatch):
    # A pattern block straightens its representatives from the smallest up,
    # each through the images of the smaller ones it has kept, and its
    # supplementary snakes through all of them. The supplementary images it
    # pushes onto its one span builder (none for the alternating kind, on
    # which they vanish) must be the nonzero reference straightenings of
    # the supplementary snakes from scratch, in order, and Q their span in
    # reduced echelon form by Gauss-Jordan elimination (`rref_oracle`).
    # Reduced mod p, every image must equal the reference straightening of
    # the same tabloid from scratch reduced modulo that span
    # (`reduce_oracle`), so no mod-2 image holds a pivot of Q: every
    # pattern block of every shape with n <= 6 and d <= n, for each kind
    # at each prime that reads it. The first
    # block of a packed weight of k letters uses the letters 1..k, as
    # checked here at d = n, so it is the pattern block at every d >= k.
    from dualweyl import quotients
    from dualweyl.garnir import equal_boxes, snake_terms
    from helpers import record_pushes

    pushes = record_pushes(monkeypatch)
    patterns = 0
    for n in range(1, 7):
        for shape in partitions_of(n):
            blocks = {}
            for cols in build_basis(shape, n, kind).cols:
                blocks.setdefault(weight_of(cols, n), []).append(cols)
            firsts = {}
            for w, reps in blocks.items():
                firsts.setdefault(packed_weight(w), (w, tuple(reps)))
            for key, (w, reps) in firsts.items():
                assert w[: len(key)] == key, (shape, w)
                pushes.clear()
                pattern = quotients._straightened_block(reps, kind)
                r_cols = tuple(reps[j] for j in pattern.r_pos)
                snakes = [
                    snake_terms(source, *box, kind)
                    for source in r_cols
                    for box in equal_boxes(source)
                ]

                def over_r(image):
                    if isinstance(image, int):
                        return {c: 1 for j, c in enumerate(r_cols) if image >> j & 1}
                    return {r_cols[j]: a % p for j, a in image if a % p}

                def dense(terms):
                    return [terms.get(cols, 0) for cols in r_cols]

                images = (straighten_terms(snake, kind, p) for snake in snakes)
                supplementary = [image for image in images if image]
                assert len(pushes) == (pattern.q is not None)
                masks = [mask for pushed in pushes for mask in pushed]
                assert list(map(over_r, masks)) == supplementary
                q = rref_oracle(map(dense, supplementary), len(r_cols), p)
                if pattern.q is None:
                    assert q == []
                else:
                    assert pattern.q.basis_rows() == list(map(tuple, q))
                    pivots = sum(1 << j for j in pattern.q.pivot_indices())
                    assert not any(image & pivots for image in pattern.images)
                for cols, image in zip(reps, pattern.images, strict=True):
                    want = straighten_terms({cols: 1}, kind, p)
                    assert dense(over_r(image)) == reduce_oracle(q, dense(want), p)
                patterns += 1
    assert patterns == {ALT_COLUMN: 319, skew_column(2): 521}[kind]


def test_straighten_matches_straightening_from_scratch():
    # `straighten` reads the image of its tabloid off the pattern of its
    # block and maps it through the block's ambient indices. R is a basis
    # modulo the basic snakes, so that must be the reference straightening
    # of the signed canonical tabloid from scratch: every canonical
    # alternating representative with n <= 5 and d <= n at p = 2 and 3, and
    # seeded unsorted fillings with n = 6 and d <= 7 at p = 5. Both sets
    # hold blocks that are only renamed copies of their pattern's block,
    # and the fillings zero tabloids.
    from dualweyl.tabloids import canonical_cols

    cases = renamed = 0
    for n in range(1, 6):
        for shape in partitions_of(n):
            for d in range(1, n + 1):
                basis = build_basis(shape, d, ALT_COLUMN)
                for p in (2, 3):
                    for i, cols in enumerate(basis.cols):
                        want = straighten_vector(TabloidVector(basis, p, {i: 1}))
                        assert straighten(Tableau(cols), shape, d, p) == want
                        w = weight_of(cols, d)
                        renamed += w[: len(packed_weight(w))] != packed_weight(w)
                        cases += 1
    assert (cases, renamed) == (15806, 11258)
    rng = random.Random(20261020)
    cases = renamed = zero = 0
    for shape in partitions_of(6):
        heights = shape.conjugate()
        for d in range(1, 8):
            basis = build_basis(shape, d, ALT_COLUMN)
            for _ in range(30):
                t = Tableau(
                    tuple(rng.randint(1, d) for _ in range(h)) for h in heights
                )
                cols, sign, is_zero = canonical_cols(t.cols, ALT_COLUMN)
                want = {} if is_zero else straighten_terms({cols: sign}, ALT_COLUMN, 5)
                got = straighten(t, shape, d, 5)
                assert got.coords == {
                    basis.index_of(Tableau(c)): v for c, v in want.items()
                }
                w = weight_of(cols, d)
                renamed += w[: len(packed_weight(w))] != packed_weight(w)
                zero += is_zero
                cases += 1
    assert cases == 11 * 7 * 30 and renamed > 0 and zero > 0


def test_straighten_refuses_an_oversized_basis_before_it_lists_a_tableau(
    monkeypatch,
):
    # `straighten` answers over the alternating basis, which it lists, so
    # `build_basis` refuses it past the budget, counted in closed form: here
    # 200^3 tabloids, before one is listed.
    from dualweyl import quotients, tableaux, tabloids

    def refuse(*args):
        raise AssertionError("an oversized straightening listed tableaux")

    for module in (quotients, tableaux, tabloids):
        monkeypatch.setattr(module, "enumerate_tableaux", refuse)
    t = Tableau(((2,), (1,), (1,)))
    match = f"alt tabloid space of .* at d=200 holds at least {200**3} "
    with pytest.raises(ValueError, match=match):
        straighten(t, Partition((3,)), 200, 3)


def test_builds_at_two_primes_expand_each_basic_snake_once(monkeypatch):
    # The thm1 sweep: every shape of at most 6 boxes at d = 4, built at
    # p = 3 and then p = 5. The builds share one layout and one set of
    # patterns, straightened over the integers once, so each basic snake is
    # expanded once in all: the p = 5 build expands no snake, groups no
    # tabloid and makes no block record, and reads the p = 3 module's
    # coordinate index itself; neither does a `straighten` of any tabloid
    # of the built space expand or group. Every block at both primes equals
    # the block eliminated on its own.
    from dualweyl import quotients

    real_snake, real_group = quotients.snake_terms, quotients._make_blocks
    real_block = quotients._Block.__init__
    calls, grouped, made = [], [], []

    def counting(*args):
        calls.append(args)
        return real_snake(*args)

    def grouping(reps, d):
        grouped.extend(reps)
        return real_group(reps, d)

    def making(self, *args):
        made.append(args)
        real_block(self, *args)

    quotients._layout.cache_clear()
    quotients._pattern.cache_clear()
    monkeypatch.setattr(quotients, "snake_terms", counting)
    monkeypatch.setattr(quotients, "_make_blocks", grouping)
    monkeypatch.setattr(quotients._Block, "__init__", making)
    expected = 0
    for n in range(1, 7):
        for shape in partitions_of(n):
            expected += _pattern_snakes(shape, 4, ALT_COLUMN)[0]
            for p in (3, 5):
                before = len(calls), len(grouped), len(made)
                module = quotients._build.__wrapped__(shape, 4, p, ALT_COLUMN)
                if p == 5:
                    assert (len(calls), len(grouped), len(made)) == before, shape
                    assert module._layout.block_no is first.block_no, shape
                    assert module._layout.local is first.local, shape
                first = module._layout
                oracle, _ = unshared_build(shape, 4, p, ALT_COLUMN)
                spans = block_spans(module)
                for w, block in module._layout.blocks.items():
                    _, want, basic_rank = oracle[w]
                    span = spans[w]
                    assert span.pivot_indices() == want.pivot_indices()
                    assert span.basis_rows() == want.basis_rows()
                    assert module._spans[block.key].basic_rank == basic_rank
            before = len(calls), len(grouped)
            for cols in module.ambient.cols:
                straighten(Tableau(cols), shape, 4, 5)
            assert (len(calls), len(grouped)) == before, shape
    assert made
    assert len(calls) == len(set(calls)) == expected


def test_an_oversized_full_build_is_refused_before_it_lists_a_tableau(monkeypatch):
    # `build_basis` counts a full build's tabloids in closed form, the
    # product over the columns of C(d, h) (alternating) or C(d + h - 1, h)
    # (mod-2 skew), and refuses a space past BUILD_BUDGET before it lists
    # one.
    from dualweyl import quotients, tableaux, tabloids

    for n in range(1, 6):
        for shape in partitions_of(n):
            for d in range(1, 6):
                for kind in (ALT_COLUMN, skew_column(2)):
                    strict = kind.zero_on_column_repeats
                    got = prod(
                        comb(d, h) if strict else comb(d + h - 1, h)
                        for h in shape.conjugate()
                    )
                    listed = build_basis(shape, d, kind).cols
                    assert got == len(listed), (shape, d, kind)

    def refuse(*args):
        raise AssertionError("an oversized build listed tableaux")

    for module in (quotients, tableaux, tabloids):
        monkeypatch.setattr(module, "enumerate_tableaux", refuse)
    budget = tabloids.BUILD_BUDGET
    cases = [
        (build_dual_weyl, Partition((6,)), 10, 3, 10**6),
        (build_gtensor_specht, Partition((3, 3)), 13, 2, comb(14, 2) ** 3),
        (build_dual_weyl, Partition((10**9,)), 2, 2, None),
    ]
    for build, shape, d, p, count in cases:
        assert count is None or count > budget
        match = f"tabloid space of .* at d={d} holds at least"
        with pytest.raises(ValueError, match=match) as info:
            build(shape, d, p)
        if count is not None:
            assert f"{count} " in str(info.value)
        assert str(budget) in str(info.value)
    # an empty alternating space is no build over the budget, and its
    # count stops at its first factor, 0, before the 10^9 columns
    assert tabloids._refuse_oversized(Partition((10**9,) * 4), 3, ALT_COLUMN) is None


@pytest.mark.parametrize("p", [2, 3, 5])
def test_shared_blocks_match_the_unshared_build(p):
    # Blocks whose weights have the same nonzero entries in order are one
    # block in local coordinates: every block of the full build matches the
    # block eliminated on its own, and two blocks hold the same frozen span
    # exactly when their packed weights are equal: the cached pattern of
    # that packed weight itself. Every shape with n <= 5, d <= 5, both
    # tabloid kinds (one kind at odd p).
    from dualweyl.quotients import _Pattern, _build, _pattern

    shared = 0
    for n in range(1, 6):
        for shape in partitions_of(n):
            for d in range(1, 6):
                for kind in dict.fromkeys((skew_column(p), ALT_COLUMN)):
                    module = _build.__wrapped__(shape, d, p, kind)
                    oracle, _ = unshared_build(shape, d, p, kind)
                    layout = module._layout
                    assert layout.blocks.keys() == oracle.keys()
                    spans, rebuilt = {}, block_spans(module)
                    for w, block in layout.blocks.items():
                        pos, want, basic_rank = oracle[w]
                        span = module._spans[block.key]
                        assert type(span) is _Pattern
                        assert span is _pattern(shape, d, block.key, kind)
                        assert rebuilt[w].pivot_indices() == want.pivot_indices()
                        assert rebuilt[w].basis_rows() == want.basis_rows()
                        assert span.basic_rank == basic_rank
                        # the coordinate index against the reference grouping
                        assert {
                            layout.basis.cols[i]: layout.local[i] for i in block.indices
                        } == pos
                        assert all(layout.order[layout.block_no[i]] is block
                                   for i in block.indices)
                        assert spans.setdefault(packed_weight(w), span) is span
                    assert len({id(s) for s in spans.values()}) == len(spans)
                    shared += len(layout.blocks) - len(spans)
    assert shared > 0


@pytest.mark.parametrize("forge", ["drop", "rotate"])
def test_a_layout_refuses_a_block_that_does_not_pack_onto_its_pattern(
    monkeypatch, forge
):
    # Forge a later block of a packed weight: one representative fewer (the
    # last one gets a block of its own, so the layout still partitions the
    # coordinates), or the same representatives starting at another one.
    # The layout refuses it when it is made, so neither the build, which
    # reuses the first block's span, nor `straighten`, which reads the
    # pattern of its tabloid's block, gets to read a pattern over it.
    from dualweyl import quotients
    from dualweyl.partitions import InvariantError

    real = quotients._make_blocks
    weights = []

    def forged(reps, d):
        blocks = real(reps, d)
        groups = {}
        for w in blocks:
            groups.setdefault(packed_weight(w), []).append(w)
        w = next(ws for ws in groups.values() if len(ws) > 1 and blocks[ws[0]].size > 1)[-1]
        ix, key = blocks[w].indices, blocks[w].key
        if forge == "drop":
            blocks[w + (0,)] = quotients._Block(ix[-1:], key)
            ix = ix[:-1]
        else:
            ix = ix[1:] + ix[:1]
        blocks[w] = quotients._Block(ix, key)
        weights.append(w)
        return blocks

    # the forged layouts must not outlive the test in the caches
    monkeypatch.setattr(quotients, "_make_blocks", forged)
    quotients._layout.cache_clear()
    quotients._pattern.cache_clear()
    try:
        shape = Partition((2, 1))
        with pytest.raises(InvariantError, match="does not pack"):
            quotients._layout(shape, 3, skew_column(2))
        with pytest.raises(InvariantError, match="does not pack"):
            quotients._build.__wrapped__(shape, 3, 2, skew_column(2))
        d = 4
        with pytest.raises(InvariantError, match="does not pack"):
            quotients._layout(shape, d, ALT_COLUMN)
        cols = build_basis(shape, d, ALT_COLUMN).cols
        t = Tableau(next(c for c in cols if weight_of(c, d) == weights[-1]))
        with pytest.raises(InvariantError, match="does not pack"):
            straighten(t, shape, d, 3)
    finally:
        quotients._layout.cache_clear()
        quotients._pattern.cache_clear()


def test_cold_builds_create_no_tableau(monkeypatch):
    # Bases, blocks, dimensions, the kernel probes and reduce work on column
    # tuples from cold caches on; a Tableau is made only at the API
    # boundary (rep, terms, canonicalize).
    from dualweyl import quotients

    created = []
    real_init = Tableau.__init__

    def counting(self, *args, **kwargs):
        created.append(args)
        return real_init(self, *args, **kwargs)

    monkeypatch.setattr(Tableau, "__init__", counting)
    Tableau(((1,),))
    assert len(created) == 1  # the counter works
    created.clear()

    shape = Partition((2, 2, 1))
    build_basis.cache_clear()
    quotients._dominant_block.cache_clear()
    kostka_number.cache_clear()
    for p in (2, 3):
        basis = build_basis.__wrapped__(shape, 4, skew_column(p))
        # only the row-semistandard representatives of content (2,2,1) are
        # enumerated: the mod-2 skew block holds 4 of its 5 skew tabloids,
        # and the Kostka number counts the one semistandard tableau
        if p == 2:
            reps = len(quotients._dominant_block.__wrapped__(shape, shape)[0])
        else:
            reps = kostka_number.__wrapped__(shape, shape)
        assert (basis.dim, reps) == {2: (200, 4), 3: (24, 1)}[p]
        for which in ("nabla", "gtensor"):
            assert quotients.module_dim(which, shape, 4, p) == (
                76 if (which, p) == ("gtensor", 2) else hook_content_dim(shape, 4)
            )
        assert verify_iso(shape, 4, p) is (p != 2)
        module = quotients._build.__wrapped__(shape, 4, p, skew_column(p))
        probe = TabloidVector(module.ambient, p, {0: 1, 7: p - 1, basis.dim - 1: 1})
        assert module.reduce(module.reduce(probe)).coords == module.reduce(probe).coords
    assert u_lambda_dim(shape, 4) == 56
    assert created == []


def test_package_has_no_bare_asserts():
    # A bare assert vanishes under `python -O`; every check in the package
    # raises an exception instead.
    import ast
    from pathlib import Path

    import dualweyl

    sources = sorted(Path(dualweyl.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_functions_take_no_private_parameters():
    # A parameter named with a leading underscore is a test hook; the
    # package keeps none, and the tests patch module attributes instead.
    import ast
    from pathlib import Path

    import dualweyl

    sources = sorted(Path(dualweyl.__file__).parent.glob("*.py"))
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                params += [a for a in (args.vararg, args.kwarg) if a is not None]
                found += [
                    f"{path.name}:{node.lineno}:{a.arg}"
                    for a in params
                    if a.arg.startswith("_")
                ]
    assert len(sources) >= 10
    assert found == []


def _package_caches():
    """Every `lru_cache` defined in a module of the package, by
    ``module.name``."""
    import importlib
    import pkgutil

    import dualweyl

    caches = {}
    for info in pkgutil.iter_modules(dualweyl.__path__):
        module = importlib.import_module(f"dualweyl.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_parameters") and obj.__module__ == module.__name__:
                caches[f"{info.name}.{name}"] = obj
    return caches


def test_every_cache_is_bounded():
    caches = _package_caches()
    for name, cache in caches.items():
        assert cache.cache_parameters()["maxsize"] is not None, name
    assert {
        "tabloids.build_basis",
        "tabloids.column_rank",
        "quotients._build",
        "quotients._column_heights",
        "quotients._column_moves",
        "quotients._layout",
        "quotients._pattern",
        "garnir._snake_pair",
        "garnir._snake_template",
        "tableaux.kostka_number",
    } <= set(caches)


def test_every_cached_value_is_frozen():
    # Every caller of a cache gets the same object, so none may change it:
    # attribute assignment fails on the module, a layout and its blocks, a
    # pattern (whose fields are tuples, but for its Q, None or a frozen
    # `Subspace`) and a basis (whose listing, column heights and radix
    # weights are tuples), and item assignment on the decomposition rows,
    # one row, a layout's block mapping, its blocks by packed weight and
    # both arrays of its coordinate index, a module's spans, the rows of
    # each Q, and a dominant block (a tuple); attribute assignment fails on
    # each span record too, whose images and coordinates are tuples, on its
    # Q and on a dominant block's. Each assignment writes back the value it
    # finds, so a mutable object would not be spoilt for later callers.
    # The template, the column heights and a column's rank moves are
    # tuples (of ints, or of int pairs), a two-column snake expansion a
    # tuple of (column pair, int) pairs, and the Kostka number and a column
    # rank ints. A new cache must join this test.
    from dualweyl.decomposition import decomposition_rows
    from dualweyl.garnir import _snake_pair, _snake_template
    from dualweyl.gfp import Subspace
    from dualweyl.quotients import (
        _Layout,
        _build,
        _column_heights,
        _column_moves,
        _dominant_block,
        _layout,
        _pattern,
    )
    from dualweyl.records import FrozenRecordError
    from dualweyl.tabloids import column_rank

    shape = Partition((2, 1))
    module = _build(shape, 3, 2, skew_column(2))
    dominant = _dominant_block(Partition((2, 2)), Partition((2, 2)))
    layout = _layout(shape, 3, skew_column(2))
    assert isinstance(layout, _Layout) and layout.basis == module.ambient
    w = next(w for w, b in layout.blocks.items() if b.size > 1)
    pattern = _pattern(shape, 3, packed_weight(w), skew_column(2))
    assert all(
        isinstance(getattr(pattern, f), tuple) for f in pattern.__slots__ if f != "q"
    )
    assert pattern.q is None or type(pattern.q) is Subspace
    basis = build_basis(shape, 3, ALT_COLUMN)
    rows = decomposition_rows(3)
    assert isinstance(_snake_template(2, 1, 0), tuple)
    assert isinstance(kostka_number(shape, Partition((1, 1, 1))), int)
    assert isinstance(column_rank((1, 3), 3, True), int)
    for strict in (True, False):
        pair = _snake_pair((1, 2), (3,), 0, strict)
        assert isinstance(pair, tuple) and pair
        for cols, c in pair:
            assert type(c) is int and type(cols) is tuple and len(cols) == 2
            assert all(type(col) is tuple for col in cols)
    assert _column_heights(shape) == (2, 1)
    moves = _column_moves((1, 1, 2), 1, 3, 3, False)
    assert isinstance(moves, tuple) and moves
    assert all(type(m) is tuple and set(map(type, m)) == {int} for m in moves)
    assert all(type(f) is tuple for f in (basis.cols, basis.heights, basis.weights))
    frozen = [
        *((module, f) for f in module.__slots__),
        *((lay, f) for lay in (layout, module._layout) for f in lay.__slots__),
        *((block, f) for block in layout.order for f in block.__slots__),
        *((pattern, f) for f in pattern.__slots__),
        *((span, f) for span in module._spans.values() for f in span.__slots__),
        *((span.q, f) for span in module._spans.values() for f in span.q.__slots__),
        *((dominant[1], f) for f in dominant[1].__slots__),
        *((basis, f) for f in basis.__slots__),
    ]
    for span in module._spans.values():
        fields = (span.images, span.r_pos, span.free)
        assert all(isinstance(f, tuple) for f in fields)
        assert type(span.q) is Subspace
    for obj, attr in frozen:
        with pytest.raises(FrozenRecordError):
            setattr(obj, attr, getattr(obj, attr))
    mu = Partition((2, 1))
    mappings = (rows, rows[mu], layout.blocks, layout.packs, module._spans,
                layout.block_no, layout.local,
                *(span.q._piv for span in module._spans.values() if span.q.dim))
    for mapping in mappings:
        key = 0 if isinstance(mapping, memoryview) else next(iter(mapping))
        with pytest.raises(TypeError):
            mapping[key] = mapping[key]
    with pytest.raises(TypeError):
        dominant[1] = dominant[1]
    assert set(_package_caches()) == {
        "quotients._build",
        "quotients._column_heights",
        "quotients._column_moves",
        "quotients._dominant_block",
        "quotients._layout",
        "quotients._pattern",
        "tabloids.build_basis",
        "tabloids.column_rank",
        "decomposition.decomposition_rows",
        "garnir._snake_pair",
        "garnir._snake_template",
        "tableaux.kostka_number",
    }


def _reachable(root):
    """Every object reachable from root through containers, records (a
    frozen `Subspace` among them) and builders (not through classes or
    modules)."""
    from types import MappingProxyType

    from dualweyl.gfp import SpanBuilder
    from dualweyl.records import Record

    seen, todo = {}, [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen[id(obj)] = obj
        if isinstance(obj, (dict, list, tuple, set, MappingProxyType)):
            todo.extend(gc.get_referents(obj))
        elif isinstance(obj, Record):
            todo.extend(getattr(obj, f) for f in obj.__slots__)
        elif isinstance(obj, SpanBuilder):
            todo.append(vars(obj))
    return seen.values()


def _is_cols(key) -> bool:
    return isinstance(key, tuple) and bool(key) and isinstance(key[0], tuple)


def test_built_module_holds_only_frozen_blocks():
    from dualweyl.gfp import SpanBuilder, Subspace
    from dualweyl.quotients import _Pattern, _build, _pattern

    for p in (2, 3):
        module = _build.__wrapped__(Partition((2, 1)), 3, p, skew_column(p))
        first = {w: module._spans[b.key] for w, b in module._layout.blocks.items()}
        assert first
        assert all(type(s) is _Pattern for s in first.values())
        assert all(
            s is _pattern(Partition((2, 1)), 3, key, skew_column(p))
            for key, s in module._spans.items()
        )
        if p == 2:
            assert all(type(s.q) is Subspace for s in first.values())
        else:  # the alternating kind freezes no Q: no builder ran
            assert all(s.q is None for s in first.values())
        reachable = _reachable(module)
        assert not any(isinstance(x, SpanBuilder) for x in reachable)
        # no map from a tabloid to a coordinate: coordinates are ranks
        by_tabloid = [
            x for x in reachable
            if isinstance(x, dict) and x and _is_cols(next(iter(x)))
        ]
        assert by_tabloid == []
        # (2,1,0), (2,0,1) and (0,2,1) share one frozen span, and so on
        assert len({id(s) for s in first.values()}) < len(first)
        # every read uses the frozen blocks, shared ones included, with no
        # refreezing and no change to their records or to the spans they give
        rows = {w: s.basis_rows() for w, s in block_spans(module).items()}
        fields = {w: (s.images, s.r_pos, s.free, s.q and s.q.basis_rows())
                  for w, s in first.items()}
        basis = module.ambient
        for i, j in ((0, 3), (1, basis.dim - 1), (basis.dim - 2, 5)):
            probe = vector_from_terms(basis, p, {basis.rep(i): 1, basis.rep(j): 2})
            module.reduce(probe)
            module.quotient_indices()
            reduced = module.reduce(probe)
            assert module.relations_contain(probe.add(reduced.scale(-1)))
        for w, b in module._layout.blocks.items():
            s = module._spans[b.key]
            assert s is first[w]
            assert (s.images, s.r_pos, s.free, s.q and s.q.basis_rows()) == fields[w]
        assert {w: s.basis_rows() for w, s in block_spans(module).items()} == rows


def test_cached_dominant_blocks_hold_only_frozen_spans():
    # Mod-2 skew dimensions, the isomorphism test and the kernel read the
    # cached dominant blocks, and the alternating dimensions build none:
    # each block holds its frozen span, and the kernel probes leave that
    # span as it was.
    from dualweyl.gfp import SpanBuilder, Subspace
    from dualweyl.quotients import _dominant_block, module_dim

    shape = Partition((2, 2, 1))
    _dominant_block.cache_clear()
    for p in (2, 3):
        for which in ("nabla", "gtensor"):
            module_dim(which, shape, 5, p)
    keys = list(partitions_of(5, 5))
    blocks = {beta: _dominant_block(shape, beta) for beta in keys}
    assert all(type(span) is Subspace for _, span in blocks.values())
    rows = {beta: span.basis_rows() for beta, (_, span) in blocks.items()}
    assert not verify_iso(shape, 5, 2)
    assert u_lambda_dim(shape, 5) == (5**4 + 5 * 5**2) // 6
    assert _dominant_block.cache_info().misses == len(keys)
    for beta, block in blocks.items():
        assert _dominant_block(shape, beta) is block
        assert block[1].basis_rows() == rows[beta]
    assert not any(isinstance(x, SpanBuilder) for x in _reachable(blocks))


def test_a_cached_span_refuses_mutation():
    # A frozen `Subspace` is a record: assigning to or deleting one of its
    # fields raises `FrozenRecordError`, and its rows refuse item
    # assignment and deletion. Clearing the rows of a cached dominant block
    # of (2,2,1) could once change u_lambda_dim((2,2,1), 4), which is 56,
    # for every later caller; a pattern's Q is cached the same way. A
    # subspace pickles and copies by its rows.
    import copy
    import pickle

    from dualweyl.quotients import _dominant_block
    from dualweyl.records import FrozenRecordError

    shape = Partition((2, 2, 1))
    assert u_lambda_dim(shape, 4) == 56
    spans = [_dominant_block(shape, beta)[1] for beta in partitions_of(5, 4)]
    spans += [s.q for s in build_gtensor_specht(shape, 4, 2)._spans.values()]
    spans = [q for q in spans if q.dim]
    assert spans
    for q in spans:
        rows = q.basis_rows()
        for field in ("_piv", "_pivmask", "ambient_dim"):
            with pytest.raises(FrozenRecordError):
                setattr(q, field, 0)
            with pytest.raises(FrozenRecordError):
                delattr(q, field)
        key = next(iter(q._piv))
        with pytest.raises(TypeError):
            q._piv[key] = 0
        with pytest.raises(TypeError):
            del q._piv[key]
        assert q.basis_rows() == rows
        for twin in (pickle.loads(pickle.dumps(q)), copy.copy(q)):
            assert twin.basis_rows() == rows and twin.ambient_dim == q.ambient_dim
    assert u_lambda_dim(shape, 4) == 56


def test_supplementary_rank_gain_reported():
    module = build_gtensor_specht(Partition((2, 1)), 2, 2)
    assert module.supplementary_rank_gain == 3
    assert build_dual_weyl(Partition((2, 1)), 2, 2).supplementary_rank_gain is None


def test_full_builds_are_shared_at_odd_p():
    # A full build is keyed by tabloid kind: at odd p both constructions are
    # the alternating kind, so the second one is a cache hit on the same
    # frozen module, whose gain is that of a skew build. At p = 2 the two
    # kinds differ, and only the skew build has a gain.
    from dualweyl.quotients import _build

    shape = Partition((2, 2, 1))
    _build.cache_clear()
    a = build_dual_weyl(shape, 4, 3)
    b = build_gtensor_specht(shape, 4, 3)
    assert _build.cache_info().misses == 1
    assert a is b and a.supplementary_rank_gain == 0
    nabla = build_dual_weyl(Partition((2, 1)), 2, 2)
    gtensor = build_gtensor_specht(Partition((2, 1)), 2, 2)
    assert nabla is not gtensor
    assert _build.cache_info().misses == 3
    assert (nabla.supplementary_rank_gain, gtensor.supplementary_rank_gain) == (None, 3)


def test_odd_primes_share_the_patterns_images():
    # An alternating build freezes no Q and copies nothing per prime: the
    # builds at p = 2, 3 and 5 hold the cached pattern record itself, by
    # identity, whose integer images they read, with R free. A mod-2 skew
    # build holds its cached patterns by identity too, each with its Q.
    from dualweyl.gfp import Subspace
    from dualweyl.quotients import _build, _pattern

    shape, d = Partition((3, 2, 1)), 4
    builds = [_build.__wrapped__(shape, d, p, ALT_COLUMN) for p in (2, 3, 5)]
    for key in builds[0]._spans:
        pattern = _pattern(shape, d, key, ALT_COLUMN)
        assert pattern.q is None and pattern.free == pattern.r_pos
        for module in builds:
            assert module._spans[key] is pattern
    skew = _build.__wrapped__(shape, d, 2, skew_column(2))
    assert skew.supplementary_rank_gain
    for key, span in skew._spans.items():
        assert span is _pattern(shape, d, key, skew_column(2))
        assert type(span.q) is Subspace


@pytest.mark.parametrize("p", [3, 5])
def test_odd_p_reads_reduce_integer_images_mod_p(p):
    # A synthetic record whose integer images carry a coefficient equal to
    # p, which is 0 mod p, reads as its span: `reduce`, `relations_contain`
    # and `quotient_indices` agree with Gauss-Jordan elimination
    # (`rref_oracle`, `reduce_oracle`) of e_i - image(i) for i outside R,
    # in the order that puts the coordinates outside R first, and with the
    # real module, whose span it is mod p. The patterns of every shape
    # with n <= 7 and d <= 5 have coefficients of absolute value at most
    # 2, so none of them reaches this case.
    from dualweyl.quotients import QuotientModule, _layout, _Pattern

    shape, d = Partition((3, 2, 1)), 4
    real = build_dual_weyl(shape, d, p)
    layout = _layout(shape, d, ALT_COLUMN)
    spans, planted = {}, 0
    for key, span in real._spans.items():
        images = []
        for image in span.images:
            absent = sorted(set(range(len(span.r_pos))) - {j for j, _ in image})
            if absent:
                image = (*image, (absent[0], p))
                planted += 1
            images.append(image)
        spans[key] = _Pattern(span.r_pos, tuple(images), None, span.r_pos)
    assert planted
    module = QuotientModule(layout, p, spans)

    oracles, free = [], []
    for block in layout.order:
        r_pos = spans[block.key].r_pos
        order = [i for i in range(block.size) if i not in r_pos] + list(r_pos)
        at = {i: k for k, i in enumerate(order)}
        rows = []
        for i in order[: block.size - len(r_pos)]:
            row = [0] * block.size
            row[at[i]] = 1
            for j, c in spans[block.key].images[i]:
                row[at[r_pos[j]]] -= c
            rows.append(row)
        basis = rref_oracle(rows, block.size, p)
        pivots = {next(k for k, x in enumerate(row) if x) for row in basis}
        free += [block.indices[order[k]] for k in range(block.size) if k not in pivots]
        oracles.append((block, order, basis))
    assert module.quotient_indices() == sorted(free) == real.quotient_indices()

    rng = random.Random(p)
    dim = module.ambient.dim
    vectors = [{i: 1} for i in range(dim)] + [
        {rng.randrange(dim): rng.randint(-2 * p, 2 * p) for _ in range(rng.randint(1, 6))}
        for _ in range(200)
    ]
    for coords in vectors:
        vec = TabloidVector(module.ambient, p, {i: c % p for i, c in coords.items()})
        want = {}
        for block, order, basis in oracles:
            local = [vec.coords.get(block.indices[i], 0) for i in order]
            for k, c in enumerate(reduce_oracle(basis, local, p)):
                if c:
                    want[block.indices[order[k]]] = c
        got = module.reduce(vec)
        assert got.coords == want == real.reduce(vec).coords
        assert module.relations_contain(vec) == (not want) == real.relations_contain(vec)


def test_degenerate_shapes_flow_through():
    module = build_dual_weyl(Partition((1, 1, 1)), 2, 3)
    assert module.dim == 0
    assert module.weight_table() == {}
    assert build_gtensor_specht(Partition((3,)), 1, 2).dim == 1


def test_inhomogeneous_relation_is_refused():
    from dualweyl.gfp import SpanBuilder
    from dualweyl.partitions import InvariantError
    from dualweyl.quotients import _make_blocks, _push_terms

    basis = build_basis(Partition((2, 1)), 2, skew_column(2))
    blocks = _make_blocks(basis.cols, 2)
    block = blocks[(2, 1)]
    pos = block_pos(basis.cols, block)
    other = next(cols for cols in basis.cols if weight_of(cols, 2) == (1, 2))
    terms = {next(iter(pos)): 1, other: 1}
    with pytest.raises(InvariantError):
        _push_terms(SpanBuilder(block.size), terms, pos, 2)
