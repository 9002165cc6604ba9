"""Group arithmetic, congruence chains, and residues."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odowin.groups import (
    _VEC_BOUND,
    ConstructionError,
    HeisenbergGroup,
    SubgroupChain,
    Z2Group,
    ZGroup,
    geometric_moduli,
    group_by_name,
    int_text,
    join_rows,
    ljust,
    row_keys,
    str_text,
)

Z = ZGroup()
Z2 = Z2Group()
H = HeisenbergGroup()

ints = st.integers(min_value=-(10**12), max_value=10**12)
triples = st.tuples(ints, ints, ints)


def heis_matrix(g):
    """Independent oracle: (a, b, c) as an upper unitriangular 3x3 matrix."""
    a, b, c = g
    return [[1, a, c], [0, 1, b], [0, 0, 1]]


def matmul3(m1, m2):
    return [
        [sum(m1[i][t] * m2[t][j] for t in range(3)) for j in range(3)]
        for i in range(3)
    ]


def heis_from_matrix(m):
    return (m[0][1], m[1][2], m[0][2])


def test_mul_examples():
    assert Z.mul(3, 5) == 8
    # product law against the matrix oracle
    lhs = H.mul((1, 0, 0), (0, 1, 0))
    assert lhs == heis_from_matrix(matmul3(heis_matrix((1, 0, 0)), heis_matrix((0, 1, 0))))
    assert lhs == (1, 1, 1)
    for g in (7, -4):
        assert Z.mul(g, Z.identity) == g
    assert H.mul((2, -3, 5), H.identity) == (2, -3, 5)


@given(triples, triples)
@settings(max_examples=100)
def test_heisenberg_mul_matches_matrix_oracle(g, h):
    assert H.mul(g, h) == heis_from_matrix(matmul3(heis_matrix(g), heis_matrix(h)))


@given(triples, triples, triples)
@settings(max_examples=100)
def test_heisenberg_group_laws(g, h, k):
    assert H.mul(H.mul(g, h), k) == H.mul(g, H.mul(h, k))
    assert H.mul(g, H.inv(g)) == H.identity
    assert H.mul(H.inv(g), g) == H.identity


def test_arbitrary_precision():
    big = 10**40
    assert Z.mul(big, big) == 2 * big
    g = (big, big, 0)
    assert H.mul(g, H.inv(g)) == H.identity


def test_conjugation():
    # abelian: conjugation is trivial
    assert Z.conjugate(5, 9) == 5
    assert Z2.conjugate((1, 2), (5, 5)) == (1, 2)
    # conjugating by the identity returns the element
    assert H.conjugate((3, 1, 2), H.identity) == (3, 1, 2)
    # oracle: explicit inverse/multiply composition
    h, g = (1, 0, 0), (0, 1, 0)
    oracle = H.mul(H.mul(H.inv(g), h), g)
    assert H.conjugate(h, g) == oracle == (1, 0, 1)


def test_project_examples():
    chain = SubgroupChain(Z, geometric_moduli(10, 10, 4))
    assert Z.residue(23, chain.modulus(1)) == 23 % 10 == 3
    for n in (1, 2, 3):
        assert Z.residue(Z.identity, chain.modulus(n)) == 0
    hchain = SubgroupChain(H, [2, 4, 8])
    g = (5, 7, 11)
    for n in (1, 2, 3):
        m = hchain.modulus(n)
        assert H.residue(g, m) == (5 % m, 7 % m, 11 % m)
        assert H.residue_rank(H.identity, m) == 0
    # (2,2,2) lies in Γ_1 = ker(mod 2), (1,0,0) does not
    assert H.residue((2, 2, 2), 2) == H.identity != H.residue((1, 0, 0), 2)
    assert hchain.index(2) == 4**3


def test_projections_are_homomorphisms():
    chain = SubgroupChain(H, [2, 4, 8])
    sample = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (3, 2, 1), (-1, 5, -7), (2, 2, 2)]
    for m in chain.moduli:
        table = {}
        for g in sample:
            for h in sample:
                key = (H.residue(g, m), H.residue(h, m))
                val = H.residue(H.mul(g, h), m)
                assert table.setdefault(key, val) == val


def test_normality():
    chain = SubgroupChain(H, [2, 4, 8])
    members = [(2, 4, 6), (-4, 0, 8), (0, 2, -2)]
    outer = [(1, 0, 0), (0, 1, 0), (1, 1, 1), (-3, 2, 5)]
    for m in chain.moduli[:2]:
        for gamma in members:
            if H.residue(gamma, m) != H.identity:
                continue
            for g in outer:
                conj = H.mul(H.mul(g, gamma), H.inv(g))
                assert H.residue(conj, m) == H.identity


def test_separation_and_refinement():
    chain = SubgroupChain(Z, geometric_moduli(2, 2, 20))
    sample = [0, 1, 5, -7, 1024, 1025, 10**5]
    for i, g in enumerate(sample):
        for h in sample[i + 1 :]:
            assert chain.separation_level(g, h) is not None
    # the first level whose modulus does not divide the difference
    assert chain.separation_level(0, 4) == 3 and chain.separation_level(1, 1025) == 11
    assert chain.separation_level(5, 5) is None
    # refinement: the finer projection determines the coarser one
    for g in sample:
        for n in range(1, 6):
            fine = Z.residue(g, chain.modulus(n + 1)) % chain.modulus(n)
            assert fine == Z.residue(g, chain.modulus(n))


def test_chain_validation():
    with pytest.raises(ConstructionError):
        SubgroupChain(Z, [4, 6])  # 6 not divisible by 4
    with pytest.raises(ConstructionError):
        SubgroupChain(Z, [4, 4])  # not strictly increasing
    with pytest.raises(ConstructionError):
        group_by_name("Free")


def test_vectorized_matches_scalar():
    rng = np.random.default_rng(0)
    for ctx in (Z, Z2, H):
        elems = []
        for _ in range(50):
            vals = rng.integers(-50, 50, size=ctx.dim)
            elems.append(int(vals[0]) if ctx.dim == 1 else tuple(int(v) for v in vals))
        arr = ctx.to_array(elems)
        prod = ctx.from_array(ctx.vec_mul(arr, arr[::-1].copy()))
        for i, e in enumerate(elems):
            assert prod[i] == ctx.mul(e, elems[len(elems) - 1 - i])
        invs = ctx.from_array(ctx.vec_inv(arr))
        for i, e in enumerate(elems):
            assert invs[i] == ctx.inv(e)
        m = 8
        ranks = ctx.vec_residue_rank(arr, m)
        for i, e in enumerate(elems):
            assert int(ranks[i]) == ctx.residue_rank(e, m)
        # contexts of the elements as right-hand heads, one row each
        ctxs = [ctx.context_step(ctx.context_identity(), e) for e in elems]
        ctx_arr = np.array([() if c is None else c for c in ctxs], dtype=np.int64)
        conj = ctx.from_array(ctx.conj_rows(ctx_arr, arr[::-1].copy()))
        step = ctx.vec_context_step(ctx_arr, arr[::-1].copy())
        for i, c in enumerate(ctxs):
            e = elems[len(elems) - 1 - i]
            assert conj[i] == ctx.conj_in_context(c, e)
            want = ctx.context_step(c, e)
            assert tuple(step[i].tolist()) == (() if want is None else want)


@pytest.mark.parametrize("ctx", [Z, Z2, H], ids=lambda c: c.name)
def test_vectorized_guard_edge(ctx):
    # Every coordinate below _VEC_BOUND: the int64 paths equal the scalar
    # route; one coordinate at _VEC_BOUND: each of them refuses.
    for top in (_VEC_BOUND - 1, _VEC_BOUND):
        coords = [top, -top, 1, 0]
        elems = [e[0] if ctx.dim == 1 else e for e in itertools.product(coords, repeat=ctx.dim)]
        a = ctx.to_array(elems)
        b = a[::-1].copy()
        ops = (
            (lambda: ctx.from_array(ctx.vec_mul(a, b)), [ctx.mul(x, y) for x, y in zip(elems, elems[::-1])]),
            (lambda: ctx.from_array(ctx.vec_inv(a)), [ctx.inv(x) for x in elems]),
            (lambda: ctx.vec_residue_rank(a, 8).tolist(), [ctx.residue_rank(x, 8) for x in elems]),
        )
        for vec, scalar in ops:
            if top < _VEC_BOUND:
                assert vec() == scalar
            else:
                with pytest.raises(OverflowError):
                    vec()
    # Residue ranks are refused once m**dim reaches 2**63.
    m = {1: (1 << 63) - 1, 2: 3037000499, 3: (1 << 21) - 1}[ctx.dim]
    assert m**ctx.dim < 1 << 63 <= (m + 1) ** ctx.dim
    a = ctx.to_array([ctx.identity, ctx.inv(ctx.identity)])
    assert ctx.vec_residue_rank(a - 1, m).tolist() == [m**ctx.dim - 1] * 2
    with pytest.raises(OverflowError):
        ctx.vec_residue_rank(a, m + 1)
    # int64's minimum has no int64 absolute value; it is refused like the rest.
    zero = ctx.to_array([ctx.identity])
    low = zero.copy()
    low[0, 0] = np.iinfo(np.int64).min
    for op in (
        lambda: ctx.vec_mul(low, zero),
        lambda: ctx.vec_mul(zero, low),
        lambda: ctx.vec_inv(low),
        lambda: ctx.vec_residue_rank(low, 8),
    ):
        with pytest.raises(OverflowError):
            op()


@pytest.mark.parametrize("ctx", [Z, Z2, H], ids=lambda c: c.name)
def test_vec_mul_broadcasts_over_leading_axes(ctx):
    rng = np.random.default_rng(2)
    left = rng.integers(-50, 50, size=(4, ctx.dim))
    right = rng.integers(-50, 50, size=(7, ctx.dim))
    grid = ctx.vec_mul(left[:, None, :], right[None, :, :])
    assert grid.shape == (4, 7, ctx.dim)
    rows = ctx.vec_mul(np.repeat(left, 7, axis=0), np.tile(right, (4, 1)))
    assert np.array_equal(grid.reshape(-1, ctx.dim), rows)


@pytest.mark.parametrize("ctx", [Z, Z2, H], ids=lambda c: c.name)
def test_mul_rows_is_vec_mul_without_the_bound_check(ctx):
    # In range the unchecked law equals vec_mul and the scalar law, broadcast
    # included; the bound is check_bounds' alone.
    rng = np.random.default_rng(3)
    top = _VEC_BOUND - 1
    left = rng.integers(-top, top, size=(4, 1, ctx.dim), endpoint=True)
    right = rng.integers(-top, top, size=(1, 7, ctx.dim), endpoint=True)
    left[0, 0], right[0, 0] = top, -top
    ctx.check_bounds(left, right)
    rows = ctx.mul_rows(left, right)
    assert np.array_equal(rows, ctx.vec_mul(left, right))
    pairs = itertools.product(ctx.from_array(left.reshape(-1, ctx.dim)),
                              ctx.from_array(right.reshape(-1, ctx.dim)))
    assert ctx.from_array(rows.reshape(-1, ctx.dim)) == [ctx.mul(a, b) for a, b in pairs]
    right[0, 0, -1] = _VEC_BOUND
    for op in (lambda: ctx.check_bounds(left, right), lambda: ctx.vec_mul(left, right)):
        with pytest.raises(OverflowError, match="values too large"):
            op()


# Edges of the law-derived dtype rule, per group: (M, answer), M the largest
# magnitude of each coordinate.  The answer is the narrowest of int16, int32 and
# int64 holding M and mul(M, M).  On Z and Z2, mul(M, M) = 2M, so int64 is
# unreachable below the 2**30 refusal: 2·(2**30 - 1) < 2**31.  On Heisenberg
# mul(M, M) = (2A, 2B, 2C + A·B).
DTYPE_EDGES = {
    "Z": [((16_383,), np.int16), ((16_384,), np.int32), ((_VEC_BOUND - 1,), np.int32)],
    "Z2": [
        ((16_383, 16_383), np.int16),
        ((16_384, 0), np.int32),
        ((0, 16_384), np.int32),
        ((_VEC_BOUND - 1, _VEC_BOUND - 1), np.int32),
    ],
    "Heisenberg": [
        ((1, 1, 16_383), np.int16),  # 2C + A·B = 32,767
        ((1, 2, 16_383), np.int32),  # 2C + A·B = 32,768
        ((0, 0, 16_383), np.int16),  # a = b = 0: c up to 16,383 stays int16
        ((0, 0, 16_384), np.int32),
        ((16_383, 0, 0), np.int16),  # 2A = 32,766
        ((16_384, 0, 0), np.int32),  # 2A = 32,768
        ((32_767, 32_769, 1 << 29), np.int32),  # 2C + A·B = 2**31 - 1
        ((1 << 15, 1 << 15, 1 << 29), np.int64),  # 2C + A·B = 2**31
        ((1 << 16, 1 << 16, 0), np.int64),  # A·B = 2**32
    ],
}


@pytest.mark.parametrize("ctx", [Z, Z2, H], ids=lambda c: c.name)
def test_exact_dtype_narrows_below_two_to_the_fifteen(ctx):
    # int16 while M and mul(M, M) lie below 2**15, int32 below 2**31, int64
    # beyond; refused from 2**30 on as check_bounds refuses it.  M is taken per
    # coordinate over every row of every array, whatever the leading axes and
    # the signs; empty arrays add nothing.
    empty = np.empty((0, ctx.dim), dtype=np.int64)
    zero = ctx.to_array([ctx.identity])
    assert ctx.exact_dtype() is ctx.exact_dtype(empty) is np.int16
    for top, want in DTYPE_EDGES[ctx.name]:
        for signs in itertools.product((1, -1), repeat=ctx.dim):
            edge = np.array([[s * t for s, t in zip(signs, top)]], dtype=np.int64)
            assert ctx.exact_dtype(empty, zero, edge) is want, (top, signs)
            assert ctx.exact_dtype(edge.astype(want)) is want, (top, signs)
            apart = np.diag(edge[0])  # row i holds coordinate i alone
            assert ctx.exact_dtype(zero, apart[None]) is want, (top, signs)
    for i in range(ctx.dim):
        for sign in (1, -1):
            edge = zero.copy()
            edge[0, i] = sign * _VEC_BOUND
            with pytest.raises(OverflowError, match="values too large"):
                ctx.exact_dtype(zero, edge)


@pytest.mark.parametrize("ctx", [Z, Z2, H], ids=lambda c: c.name)
def test_mul_rows_is_exact_in_the_answered_dtype(ctx):
    # At each edge, every sign pattern of ±M and 0 against every other: the
    # products in the answered dtype equal the int64 products and the scalar
    # law, and in the next narrower dtype some product wraps.
    narrower = {np.int32: np.int16, np.int64: np.int32}
    for top, want in DTYPE_EDGES[ctx.name]:
        coords = [(t, -t, 0) for t in top]
        elems = [e[0] if ctx.dim == 1 else e for e in itertools.product(*coords)]
        wide = ctx.to_array(elems)
        assert ctx.exact_dtype(wide) is want, top
        exact = ctx.mul_rows(wide[:, None], wide[None, :])
        narrow = wide.astype(want)
        rows = ctx.mul_rows(narrow[:, None], narrow[None, :])
        assert rows.dtype == want
        assert np.array_equal(rows, exact), top
        pairs = itertools.product(elems, repeat=2)
        assert ctx.from_array(rows.reshape(-1, ctx.dim)) == [ctx.mul(a, b) for a, b in pairs]
        if want in narrower:
            tight = wide.astype(narrower[want])
            assert not np.array_equal(ctx.mul_rows(tight[:, None], tight[None, :]), exact), top


def test_row_keys_keep_lexicographic_order():
    rng = np.random.default_rng(1)
    rows = rng.integers(-5, 5, size=(500, 3))
    keys = row_keys(rows)
    assert (np.argsort(keys, kind="stable") == np.lexsort(rows.T[::-1])).all()
    assert len(np.unique(keys)) == len(np.unique(rows, axis=0))
    edge = np.array([[0, 0, 0], [(1 << 21) - 1] * 3])  # spans 2**21 each: keys fill int64
    assert row_keys(edge).tolist() == [0, (1 << 63) - 1]
    with pytest.raises(OverflowError):
        row_keys(edge + [[0, 0, 0], [0, 0, 1]])


def test_vectorized_overflow_guard():
    arr = H.to_array([(1 << 40, 0, 0)])
    with pytest.raises(OverflowError):
        H.vec_mul(arr, arr)


# Values at the edges of the formatter's four-digit chunks, and the largest coordinate
# the int64 paths accept.
CHUNK_EDGES = [0, 1, -1, 9999, 10000, -10000, 99999999, 10**8, 2**30 - 1]


def texts(table):
    """The rows of a text table as strings, NULs dropped."""
    return [bytes(row[row != 0]).decode("ascii") for row in table]


def test_int_text_matches_str():
    rng = np.random.default_rng(3)
    values = [*CHUNK_EDGES, *(-v for v in CHUNK_EDGES), -(2**63), 2**63 - 1, 10**18, 1 - 10**18]
    values += rng.integers(-(2**62), 2**62, 200).tolist() + rng.integers(0, 10**5, 50).tolist()
    assert texts(int_text(np.array(values, dtype=np.int64))) == [str(v) for v in values]
    # without a negative value there is no sign column
    assert texts(int_text(np.array([7, 10000]))) == ["7", "10000"]
    assert int_text(np.array([7, 10000])).shape == (2, 8)
    assert int_text(np.zeros(0, dtype=np.int64)).shape[0] == 0


@pytest.mark.parametrize("g", [Z, Z2, H], ids=lambda g: g.name)
def test_row_text_matches_fmt_at_chunk_edges(g):
    coords = CHUNK_EDGES + [-v for v in CHUNK_EDGES if v]
    elems = [c[0] if g.dim == 1 else c for c in itertools.product(coords, repeat=g.dim)]
    rows = g.to_array(elems)
    assert texts(g.row_text(rows)) == [g.fmt(e) for e in elems]
    want = [g.fmt(e).replace("(", "[").replace(")", "]") for e in elems]
    assert texts(g.row_text(rows, "[]")) == want
    # joined row after row, as the writers join a block
    assert join_rows(g.row_text(rows, "[]"), str_text([";"] * len(rows))) == ";".join(want) + ";"


def test_ljust_moves_text_to_row_start():
    table = np.array([[0, 65, 0, 66], [67, 0, 0, 0], [0, 0, 0, 0]], dtype=np.uint8)
    assert ljust(table).tolist() == [[65, 66], [67, 0], [0, 0]]
    assert ljust(np.zeros((0, 3), dtype=np.uint8)).shape == (0, 1)
    rows = Z2.to_array([(10, -3), (9, 0), (-1, 123456)])
    lj = ljust(Z2.row_text(rows))
    assert lj.flags.c_contiguous and texts(lj) == ["(10,-3)", "(9,0)", "(-1,123456)"]
    # left-justified texts sort as bytes: "(-" before "(1" before "(9"
    assert np.argsort(lj.view(f"S{lj.shape[1]}").ravel()).tolist() == [2, 0, 1]
