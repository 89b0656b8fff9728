"""The dominant-block path against the all-blocks build, and the invariants
it rests on: final block ranks are constant on S_d-orbits of weights and do
not depend on d, while the rank of the basic relations alone is not."""

import hashlib
import re
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import factorial, prod

import pytest

from dualweyl import quotients, tableaux
from dualweyl.garnir import equal_boxes, snake_box
from dualweyl.partitions import (
    InvariantError,
    Partition,
    alternating_forecast,
    hook_content_dim,
    partitions_of,
)
from dualweyl.quotients import (
    _build,
    _dominant_block,
    _kernel_dims,
    _straightened_block,
    dominant_rep_bound,
    build_dual_weyl,
    build_gtensor_specht,
    module_dim,
    u_lambda_dim,
    u_lambda_weight_table,
    verify_iso,
)
from dualweyl.tableaux import TableauClass, enumerate_tableaux, kostka_number
from dualweyl.tabloids import (
    ALT_COLUMN,
    basis_class,
    build_basis,
    has_column_repeat,
    skew_column,
    tabloid_kind,
)
from helpers import (
    block_spans,
    inverse_schur_numbers,
    kernel_table_all_blocks,
    patch_values,
    probe_builder,
    record_pushes,
    straighten_terms,
)

CASES = [
    (shape, d, p)
    for n in range(1, 6)
    for shape in partitions_of(n)
    for d in range(1, n + 2)
    for p in (2, 3, 5)
]


@pytest.mark.parametrize("n", range(1, 6))
def test_dominant_path_matches_all_blocks(n):
    for shape, d, p in (c for c in CASES if c[0].n == n):
        assert module_dim("nabla", shape, d, p) == build_dual_weyl(shape, d, p).dim
        assert (
            module_dim("gtensor", shape, d, p)
            == build_gtensor_specht(shape, d, p).dim
        ), (shape, d, p)
        oracle = kernel_table_all_blocks(shape, d, p)
        assert verify_iso(shape, d, p) == (not oracle), (shape, d, p)
        if p == 2:
            table = u_lambda_weight_table(shape, d)
            assert table == oracle, (shape, d)
            assert list(table) == sorted(table)
            assert u_lambda_dim(shape, d) == sum(oracle.values())


def _one_snake_loop(shape, beta, full, monkeypatch) -> int:
    """Check the premise of the one supplementary-snake loop on the mod-2
    skew block of content beta: the dominant block and the full-build
    pattern of that content (``full``, at d = len(beta)) have the same R,
    in the same order, and both push, through `quotients._supplementary`,
    onto one span builder each, the masks of the reference straightening
    of every supplementary snake that is nonzero, those on two columns of
    height 1 included, and freeze the same Q; neither expands a snake on
    two columns of height 1. Returns how many of those the reference
    met."""
    kind = skew_column(2)
    real_snake = quotients.snake_terms
    expanded = []

    def snake(cols, i, j, kind):
        if cols[j][i] == cols[j + 1][i]:  # a supplementary snake
            expanded.append(len(cols[j]))
        return real_snake(cols, i, j, kind)

    with monkeypatch.context() as m:
        pushes = record_pushes(m)
        m.setattr(quotients, "snake_terms", snake)
        reps, span = _dominant_block.__wrapped__(shape, beta)
        pattern = quotients._pattern.__wrapped__(shape, len(beta), tuple(beta), kind)
    cols = build_basis(shape, len(beta), kind).cols
    block = [cols[i] for i in full.indices]
    assert reps == tuple(block[j] for j in pattern.r_pos), (shape, beta)
    pos = {cols: j for j, cols in enumerate(reps)}
    reference, flat = [], 0
    for cols in reps:
        for i, j in equal_boxes(cols):
            flat += len(cols[j]) == 1
            image = straighten_terms(real_snake(cols, i, j, kind), kind, 2)
            if mask := sum(1 << pos[t] for t in image):
                reference.append(mask)
    assert pushes == [reference] * 2, (shape, beta)
    assert pattern.q == span
    assert 1 not in expanded
    return flat


@pytest.mark.parametrize("p", (2, 3, 5))
def test_dominant_blocks_match_the_full_build_block_by_block(p, monkeypatch):
    # At the alternating kind the quotient dimension at beta is the Kostka
    # number; a mod-2 skew dominant block holds the row-and-column-
    # semistandard representatives R_beta and the supplementary snakes
    # straightened onto them, and |R_beta| less their rank is its
    # dimension. Either must be the quotient dimension of the beta block
    # of the full elimination build at d = len(beta). Both take their
    # supplementary snakes from one loop, which skips those on columns of
    # height 1 and keeps every nonzero one (`_one_snake_loop`).
    blocks = flat = 0
    for n in range(1, 6):
        for beta in partitions_of(n):
            for shape in partitions_of(n):
                for model in ("nabla", "gtensor"):
                    kind = tabloid_kind(model, p)
                    module = _build(shape, len(beta), p, kind)
                    full = module._layout.blocks.get(beta)
                    expected = full.size - module._spans[full.key].dim if full else 0
                    if kind is ALT_COLUMN:
                        got = kostka_number(shape, beta)
                    else:
                        reps, span = _dominant_block(shape, beta)
                        got = len(reps) - span.dim
                        if full:
                            flat += _one_snake_loop(shape, beta, full, monkeypatch)
                    assert got == expected, (shape, model, beta)
                    blocks += bool(full)
    assert blocks == {2: 141, 3: 106, 5: 106}[p]
    assert (flat > 0) == (p == 2)


def test_r_coordinates_of_the_kernel_generators():
    # The kernel count uses only the R-representatives with a repeated
    # column entry. That is enough because the surjection onto the dual
    # Weyl module is, on R-coordinates, the projection that drops them:
    # every straightened supplementary snake lies in their coordinates,
    # and every other repeated-column tabloid straightens into their span
    # modulo the relations.
    kind = skew_column(2)
    checked = 0
    for n in range(2, 7):
        for beta in partitions_of(n):
            for shape in partitions_of(n):
                reps, span = _dominant_block(shape, beta)
                pos = {cols: j for j, cols in enumerate(reps)}
                repeat = [has_column_repeat(cols) for cols in reps]
                for row in span.basis_rows():
                    assert all(repeat[j] for j, c in enumerate(row) if c), beta
                probe = probe_builder(span)
                for j, rep in enumerate(repeat):
                    if rep:
                        probe.add_mask(1 << j)
                full = enumerate_tableaux(
                    shape, len(beta), TableauClass.COLUMN_SEMISTANDARD, tuple(beta)
                )
                for cols in full:
                    if has_column_repeat(cols):
                        terms = straighten_terms({cols: 1}, kind, 2)
                        mask = sum(1 << pos[t] for t in terms)
                        assert not probe.residual_mask(mask)
                        checked += 1
    assert checked == 965


def test_the_construction_is_the_inverse_schur_image_by_definition():
    # The weight-beta space of the inverse Schur functor's image of the
    # Specht module is the S_beta-coinvariants of S, and merging the
    # letters of each block of beta maps the construction's (1^n) block,
    # which is S, onto its weight-beta block. So the block's dimension, the
    # merge map's rank and the coinvariants' dimension agree, for every
    # shape and every beta |- n with n <= 7. The supplementary snakes are
    # what makes them agree at p = 2: 303 of those blocks have one that
    # does not vanish.
    cases = supplementary = 0
    for n in range(1, 8):
        for shape in partitions_of(n):
            for p in (2, 3):
                for beta, numbers in inverse_schur_numbers(shape, p).items():
                    block, merged, coinvariants = numbers
                    assert block == merged == coinvariants, (shape, beta, p)
                    cases += 1
                    if p == 2:
                        supplementary += bool(_dominant_block(shape, beta)[1].dim)
    assert (cases, supplementary) == (868, 303)


def test_kernel_count_matches_an_elimination_probe():
    # The counted kernel, |G_beta| less the rank of the block's span,
    # against elimination: a builder seeded from the span's basis rows
    # takes the unit vectors of the repeated-column representatives, and
    # the rank they add is the kernel.
    for n in range(1, 8):
        for shape in partitions_of(n):
            grown = {}
            for beta in partitions_of(n):
                reps, span = _dominant_block(shape, beta)
                probe = probe_builder(span)
                grown[beta] = sum(
                    probe.add_mask(1 << j)
                    for j, cols in enumerate(reps)
                    if has_column_repeat(cols)
                )
            for d in range(1, n + 1):
                expected = {
                    beta: g for beta, g in grown.items() if g and len(beta) <= d
                }
                assert _kernel_dims(shape, d) == expected, (shape, d)


def test_kernel_count_matches_the_full_pattern_by_a_second_route():
    # The full mod-2 skew pattern of content beta, listed by content at
    # d = len(beta), with its span frozen, is the weight space of the skew
    # construction; the dual Weyl module's is K(shape, beta). So the kernel
    # there is its size, less its span's dimension, less the Kostka number:
    # a check of the projection off G_beta and of the G_beta count, for
    # every (shape, beta) with n <= 7.
    kind = skew_column(2)
    pairs = tabloids = 0
    for n in range(1, 8):
        betas = tuple(partitions_of(n))
        for shape in betas:
            counted = _kernel_dims(shape, n)
            for beta in betas:
                reps = tuple(
                    enumerate_tableaux(shape, len(beta), basis_class(kind), tuple(beta))
                )
                pattern = _straightened_block(reps, kind)
                grown = len(pattern.images) - pattern.dim - kostka_number(shape, beta)
                assert grown == counted.get(beta, 0), (shape, beta)
                pairs += 1
                tabloids += len(pattern.images)
    assert (pairs, tabloids) == (434, 33848)


def test_a_supplementary_snake_off_the_kernel_generators_is_refused(monkeypatch):
    # The kernel count is exact only if every straightened supplementary
    # snake lies in the repeated-column coordinates. Straighten one onto
    # the semistandard representative of (2,2) with content (2,2), and the
    # block must refuse to build.
    shape = beta = Partition((2, 2))
    semistandard = ((1, 2), (1, 2))
    monkeypatch.setattr(
        quotients, "_straighten", lambda terms, kind, r, known: 1 << r[semistandard]
    )
    with pytest.raises(InvariantError, match="no column repeat"):
        _dominant_block.__wrapped__(shape, beta)


def test_a_full_build_refuses_a_supplementary_snake_off_the_kernel_generators(
    monkeypatch,
):
    # The full build straightens its supplementary snakes through the same
    # `_supplementary`, so it checks the fact the kernel count rests on
    # too. The pattern of (2,2) with content (2,2) holds the
    # column-repeat representative ((1,1),(2,2)) beside the semistandard
    # one; force a supplementary snake onto the latter, and the pattern
    # must refuse to build.
    shape, key, kind = Partition((2, 2)), (2, 2), skew_column(2)
    semistandard = ((1, 2), (1, 2))
    pattern = quotients._pattern.__wrapped__(shape, 2, key, kind)
    assert pattern.q.dim == 1
    layout = quotients._layout(shape, 2, kind)
    reps = [layout.basis.cols[i] for i in layout.blocks[key].indices]
    r_cols = [reps[j] for j in pattern.r_pos]
    assert r_cols == [((1, 1), (2, 2)), semistandard]
    monkeypatch.setattr(
        quotients, "_straighten", lambda terms, kind, r, known: 1 << r[semistandard]
    )
    with pytest.raises(InvariantError, match="no column repeat"):
        quotients._pattern.__wrapped__(shape, 2, key, kind)


def test_the_dominant_straightening_refuses_a_snake_that_is_not_unitriangular(
    monkeypatch,
):
    # A dominant block has no pattern walk to check its basic snakes first:
    # `_straighten` expands each one that a supplementary snake brings in,
    # and its own checks are the only ones on this path. The block of (3,1)
    # with content (2,1,1) expands one basic snake. Forge each fault into
    # it, and the block must refuse to build, naming the fault.
    shape, beta, kind = Partition((3, 1)), Partition((2, 1, 1)), skew_column(2)
    source = ((1, 1), (3,), (2,))
    args = (source, *snake_box(source), kind)
    expanded = []
    true = quotients.snake_terms
    with monkeypatch.context() as m:
        m.setattr(quotients, "snake_terms", lambda *a: expanded.append(a) or true(*a))
        _dominant_block.__wrapped__(shape, beta)
    assert [a for a in expanded if snake_box(a[0]) is not None] == [args]
    terms = true(*args)
    # the greatest tabloid of the block outside R (a smaller key is a
    # greater tableau), and a row-semistandard one of another content
    reps = enumerate_tableaux(shape, 3, basis_class(kind), tuple(beta))
    greater = min((c for c in reps if snake_box(c)), key=quotients._col_key)
    assert quotients._col_key(greater) < quotients._col_key(source)
    outside = ((1, 1), (2,), (2,))
    faults = {
        f"basic snake of {source} does not lead with it": {
            t: c for t, c in terms.items() if t != source
        },
        f"basic snake of {source} brings in {greater}, which is not below it": {
            **terms, greater: 1
        },
        f"relation term {outside} lies outside its weight block": {
            **terms, outside: 1
        },
    }
    for message, fault in faults.items():
        with monkeypatch.context() as m:
            patch_values(m, quotients, "snake_terms", {args: fault})
            with pytest.raises(InvariantError, match=re.escape(message)):
                _dominant_block.__wrapped__(shape, beta)


def test_skipped_supplementary_snakes_are_zero_mod_2(monkeypatch):
    # A dominant block expands no supplementary snake on two columns of
    # height 1: it swaps two equal boxes, so its terms cancel mod 2. Every
    # equal box the block does not expand must give the empty relation.
    from dualweyl.garnir import equal_boxes, snake_terms

    expanded = set()

    def recording(cols, i, j, kind):
        expanded.add((cols, i, j))
        return snake_terms(cols, i, j, kind)

    monkeypatch.setattr(quotients, "snake_terms", recording)
    skipped = 0
    for n in range(1, 7):
        for shape in partitions_of(n):
            for beta in partitions_of(n):
                _dominant_block.__wrapped__(shape, beta)
                for cols in enumerate_tableaux(
                    shape, len(beta), TableauClass.ROW_AND_COLUMN_SEMISTANDARD, beta
                ):
                    for i, j in equal_boxes(cols):
                        if (cols, i, j) not in expanded:
                            skipped += 1
                            assert snake_terms(cols, i, j, skew_column(2)) == {}
    assert skipped


def test_the_kernel_census_is_pinned():
    # Each dominant block that can hold a kernel generator, for every shape
    # with n <= 8 at d = n: (shape, beta, dim U_beta, |G_beta|, dim Q_beta),
    # sorted and hashed. thm2's report pins only an iso verdict per d and
    # the rank gain at d = n - 2, so a rewrite of the kernel counts could
    # move one U_beta at n = 8 and pass it; it cannot pass this. The blocks
    # are those with beta_1 >= 2 of every shape with two rows or more.
    rows = []
    for n in range(1, 9):
        for shape in partitions_of(n):
            kernel = _kernel_dims(shape, n)
            for beta, gens in quotients._gens_by_weight(shape, n).items():
                q = _dominant_block(shape, beta)[1].dim
                u = kernel.get(beta, 0)
                rows.append((tuple(shape), tuple(beta), u, len(gens), q))
    rows.sort()
    assert len(rows) == 794
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "2a50962cf42b871548ec6f067201843b289d1319459c8df5516359153fc5a2cb"


def test_kernel_dimension_is_the_exact_polynomial():
    # dim U(d) is the sum over dominant beta of dim U_beta times the number
    # of rearrangements of beta over d letters, d(d-1)...(d-l+1) / prod_i
    # m_i(beta)!, which is a polynomial in d. At d = n every beta of n is
    # present, so the coefficients below hold for every d, not only for the
    # values of d that are evaluated.
    poly = [Fraction(0)] * 6  # poly[k] is the coefficient of d**k
    for beta, dim_u in _kernel_dims(Partition((2, 2, 1)), 5).items():
        falling = [Fraction(1)]
        for r in range(len(beta)):  # multiply by (d - r)
            falling = [
                (falling[k - 1] if k else 0) - r * (falling[k] if k < len(falling) else 0)
                for k in range(len(falling) + 1)
            ]
        scale = Fraction(dim_u, prod(factorial(m) for m in Counter(beta).values()))
        for k, c in enumerate(falling):
            poly[k] += scale * c
    assert poly == [0, 0, Fraction(5, 6), 0, Fraction(1, 6), 0]  # (d^4 + 5d^2)/6
    for d in range(1, 7):
        assert u_lambda_dim(Partition((2, 2, 1)), d) == (d**4 + 5 * d**2) // 6


def test_constructions_share_the_alternating_kind():
    # At odd p the skew column tabloids are the alternating ones: one kind,
    # one basis, and one hook-content count for the dual Weyl module at
    # every p and for the skew construction at odd p, with no Kostka
    # number read and no dominant block built.
    for p in (3, 5, 7):
        assert skew_column(p) is ALT_COLUMN
    shape = Partition((3, 2))
    assert build_basis(shape, 3, skew_column(3)) is build_basis(shape, 3, ALT_COLUMN)
    kostka_number.cache_clear()
    _dominant_block.cache_clear()
    for which, p in (("nabla", 2), ("nabla", 3), ("nabla", 5),
                     ("gtensor", 3), ("gtensor", 5)):
        assert module_dim(which, shape, 5, p) == hook_content_dim(shape, 5)
    assert kostka_number.cache_info().misses == 0
    assert _dominant_block.cache_info().misses == 0


@pytest.mark.parametrize("p", (2, 3))
def test_alternating_dim_is_the_hook_content_count(monkeypatch, p):
    # The semistandard tableaux are a basis of the alternating quotient at
    # every p, so `module_dim` answers it with the hook-content count. It
    # must equal the full elimination build, and list no tableau to get it.
    cases = [
        (shape, d)
        for n in range(1, 7)
        for shape in partitions_of(n)
        for d in range(1, n + 2)
    ]
    expected = {case: build_dual_weyl(*case, p).dim for case in cases}

    def refuse(*args):
        raise AssertionError("an alternating dimension listed tableaux")

    monkeypatch.setattr(quotients, "enumerate_tableaux", refuse)
    monkeypatch.setattr(tableaux, "enumerate_tableaux", refuse)
    monkeypatch.setattr(tableaux, "kostka_number", refuse)
    models = ("nabla", "gtensor") if p % 2 else ("nabla",)
    for case, dim in expected.items():
        for model in models:
            assert module_dim(model, *case, p) == dim, (model, case)


def test_dominant_weights_list_only_short_partitions():
    # `partitions_of(n, k)` lists the partitions of n with at most k parts,
    # the dominant weights over k letters, in descending lexicographic
    # order, against the multisets of r <= k parts (each at most
    # n - r + 1) that sum to n. They are listed directly: 10000 boxes over
    # two letters give 5001 weights at once.
    for n in range(1, 13):
        for k in range(1, n + 2):
            brute = sorted(
                (
                    Partition(reversed(parts))
                    for r in range(1, min(k, n) + 1)
                    for parts in combinations_with_replacement(range(1, n - r + 2), r)
                    if sum(parts) == n
                ),
                reverse=True,
            )
            assert list(partitions_of(n, k)) == brute, (n, k)
    started = time.perf_counter()
    weights = list(partitions_of(10000, 2))
    assert time.perf_counter() - started < 0.5
    assert len(weights) == 5001 and weights[-1] == Partition((5000, 5000))


def test_dominant_rep_bound_holds():
    # The closed form `dim` checks against its budget: an alternating
    # dimension costs its boxes (below 2^30 letters), and on the mod-2
    # skew path the form must bound the dominant weights and the
    # R-representatives their blocks hold.
    for n in range(1, 7):
        for shape in partitions_of(n):
            for d in range(1, n + 2):
                for which, p in (("nabla", 3), ("nabla", 2), ("gtensor", 3)):
                    assert alternating_forecast(which, shape, d, p) == n
                held = sum(
                    1 + len(_dominant_block(shape, beta)[0])
                    for beta in partitions_of(n)
                    if len(beta) <= d
                )
                for which in ("gtensor", "u"):
                    assert alternating_forecast(which, shape, d, 2) is None
                bound = dominant_rep_bound(shape, d)
                assert held <= bound, (shape, d)
    # Past 2^30 letters a factor of the product takes two digits.
    assert alternating_forecast("nabla", Partition((10,)), 2**40, 3) == 20


def test_module_dim_rejects_bad_input():
    with pytest.raises(ValueError):
        module_dim("u", Partition((2, 1)), 2, 2)
    with pytest.raises(ValueError):
        module_dim("nabla", Partition((2, 1)), 0, 2)
    with pytest.raises(ValueError):
        u_lambda_dim(Partition((2, 1)), 0)


def _ranks(module):
    return {w: span.dim for w, span in block_spans(module).items()}


def test_final_block_ranks_are_orbit_invariant_and_stable_in_d():
    # Every shape with n <= 4, d <= 4, p in (2, 3) and both constructions,
    # against every permutation of the d letters.
    for n in range(1, 5):
        for shape in partitions_of(n):
            for d, p, build in product(
                range(1, 5), (2, 3), (build_dual_weyl, build_gtensor_specht)
            ):
                ranks = _ranks(build(shape, d, p))
                for perm in permutations(range(d)):
                    for w, rank in ranks.items():
                        assert ranks[tuple(w[k] for k in perm)] == rank, (w, perm)
                wider = _ranks(build(shape, d + 1, p))
                for w, rank in ranks.items():
                    assert wider[w + (0,)] == rank, w


def test_basic_rank_is_not_orbit_invariant():
    # Only the final rank is constant on an orbit, so the supplementary
    # rank gain is no sum of dominant-block gains over orbits. It is a
    # count instead: the basic rank of a block is its number of tabloids
    # that are not row semistandard, whatever the weight.
    module = build_gtensor_specht(Partition((2, 2, 1)), 3, 2)
    keys = {module._layout.blocks[w].key for w in permutations((4, 1, 0))}
    assert {module._spans[key].basic_rank for key in keys} == {0, 1}
    assert {module._spans[key].dim for key in keys} == {1}
