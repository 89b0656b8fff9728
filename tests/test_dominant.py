"""The dominant-block path against the all-blocks build, and the invariants
it rests on: final block ranks are constant on S_d-orbits of weights and do
not depend on d, while the rank of the basic relations alone is not."""

from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from dualweyl import quotients
from dualweyl.partitions import (
    InvariantError,
    Partition,
    hook_content_dim,
    partitions_of,
)
from dualweyl.quotients import (
    _build,
    _dominant_block,
    _dominant_weights,
    _kernel_dims,
    _straighten_terms,
    _tabloid_kind,
    dominant_rep_bound,
    build_dual_weyl,
    build_gtensor_specht,
    module_dim,
    u_lambda_dim,
    u_lambda_weight_table,
    verify_iso,
)
from dualweyl.tableaux import TableauClass, enumerate_tableaux
from dualweyl.tabloids import (
    ALT_COLUMN,
    build_basis,
    has_column_repeat,
    skew_column,
)
from helpers import kernel_table_all_blocks, probe_builder

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


@pytest.mark.parametrize("p", (2, 3, 5))
def test_dominant_blocks_match_the_full_build_block_by_block(p):
    # A dominant block holds the row-semistandard representatives R_beta
    # and the supplementary snakes straightened onto them; |R_beta| less
    # their rank must be the quotient dimension of the beta block of the
    # full elimination build at d = len(beta).
    blocks = 0
    for n in range(1, 6):
        for beta in partitions_of(n):
            for shape in partitions_of(n):
                for model in ("nabla", "gtensor"):
                    kind = _tabloid_kind(model, p)
                    block = _dominant_block(shape, kind, beta)
                    full = _build(shape, len(beta), p, kind)._blocks.get(beta)
                    expected = full.size - full.span.dim if full else 0
                    got = block.size - block.span.dim
                    assert got == expected, (shape, model, beta)
                    blocks += bool(full)
    assert blocks == {2: 141, 3: 106, 5: 106}[p]


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
                block = _dominant_block(shape, kind, beta)
                reps = list(block.pos)
                repeat = [has_column_repeat(cols) for cols in reps]
                for row in block.span.basis_rows():
                    assert all(repeat[j] for j, c in enumerate(row) if c), beta
                probe = probe_builder(block.span)
                for j, rep in enumerate(repeat):
                    if rep:
                        probe.add_mask(1 << j)
                full = enumerate_tableaux(
                    shape, len(beta), TableauClass.COLUMN_SEMISTANDARD, tuple(beta)
                )
                for cols in full:
                    if has_column_repeat(cols):
                        terms = _straighten_terms({cols: 1}, kind, 2)
                        mask = sum(1 << block.pos[t] for t in terms)
                        assert not probe.residual_mask(mask)
                        checked += 1
    assert checked == 965


def test_kernel_count_matches_an_elimination_probe():
    # The counted kernel, |G_beta| less the rank of the block's span,
    # against elimination: a builder seeded from the span's basis rows
    # takes the unit vectors of the repeated-column representatives, and
    # the rank they add is the kernel.
    kind = skew_column(2)
    for n in range(1, 8):
        for shape in partitions_of(n):
            grown = {}
            for beta in partitions_of(n):
                block = _dominant_block(shape, kind, beta)
                probe = probe_builder(block.span)
                grown[beta] = sum(
                    probe.add_mask(1 << j)
                    for cols, j in block.pos.items()
                    if has_column_repeat(cols)
                )
            for d in range(1, n + 1):
                expected = {
                    beta: g for beta, g in grown.items() if g and len(beta) <= d
                }
                assert _kernel_dims(shape, d) == expected, (shape, d)


def test_a_supplementary_snake_off_the_kernel_generators_is_refused(monkeypatch):
    # The kernel count is exact only if every straightened supplementary
    # snake lies in the repeated-column coordinates. Straighten one onto
    # the semistandard representative of (2,2) with content (2,2), and the
    # block must refuse to build.
    shape = beta = Partition((2, 2))
    semistandard = ((1, 2), (1, 2))
    monkeypatch.setattr(
        quotients, "_straighten_terms", lambda terms, kind, p: {semistandard: 1}
    )
    with pytest.raises(InvariantError, match="no column repeat"):
        _dominant_block.__wrapped__(shape, skew_column(2), beta)


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
    # one basis, and one dominant block per content, built once for the
    # dual Weyl module at every p and for the skew construction at odd p.
    for p in (3, 5, 7):
        assert skew_column(p) is ALT_COLUMN
    shape = Partition((3, 2))
    assert build_basis(shape, 3, skew_column(3)) is build_basis(shape, 3, ALT_COLUMN)
    _dominant_block.cache_clear()
    for which, p in (("nabla", 2), ("nabla", 3), ("nabla", 5),
                     ("gtensor", 3), ("gtensor", 5)):
        assert module_dim(which, shape, 5, p) == hook_content_dim(shape, 5)
    assert _dominant_block.cache_info().misses == len(_dominant_weights(5, 5))


def test_dominant_rep_bound_holds():
    # The closed form `dim` checks against its budget must bound the
    # dominant weights and the R-representatives their blocks hold.
    for n in range(1, 7):
        for shape in partitions_of(n):
            for d in range(1, n + 2):
                for which, p in (("nabla", 3), ("nabla", 2), ("gtensor", 2),
                                 ("gtensor", 3), ("u", 2)):
                    kind = _tabloid_kind("gtensor" if which == "u" else which, p)
                    held = sum(
                        1 + _dominant_block(shape, kind, beta).size
                        for beta in partitions_of(n)
                        if len(beta) <= d
                    )
                    bound = dominant_rep_bound(which, shape, d, p)
                    assert held <= bound, (which, shape, d, p)


def test_module_dim_rejects_bad_input():
    with pytest.raises(ValueError):
        module_dim("u", Partition((2, 1)), 2, 2)
    with pytest.raises(ValueError):
        module_dim("nabla", Partition((2, 1)), 0, 2)
    with pytest.raises(ValueError):
        u_lambda_dim(Partition((2, 1)), 0)


def _ranks(module):
    return {w: block.span.dim for w, block in module._blocks.items()}


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from([s for n in range(1, 5) for s in partitions_of(n)]),
    d=st.integers(1, 4),
    p=st.sampled_from([2, 3]),
    which=st.sampled_from(["nabla", "gtensor"]),
    data=st.data(),
)
def test_final_block_ranks_are_orbit_invariant_and_stable_in_d(
    shape, d, p, which, data
):
    build = build_dual_weyl if which == "nabla" else build_gtensor_specht
    ranks = _ranks(build(shape, d, p))
    perm = data.draw(st.permutations(range(d)))
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
    blocks = build_gtensor_specht(Partition((2, 2, 1)), 3, 2)._blocks
    orbit = set(permutations((4, 1, 0)))
    assert {blocks[w].basic_rank for w in orbit} == {0, 1}
    assert {blocks[w].span.dim for w in orbit} == {1}
