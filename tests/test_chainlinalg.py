"""Homology over the chain ring, checked against known cyclic cohomology,
and the dense Smith elimination against a plain scalar one."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockext.chainlinalg import (
    ChainComplex,
    _smith_exponents,
    _sparse,
    homology_of_complex,
)
from blockext.chainring import ChainRing, chain_ring
from blockext.errors import BlockExtError, PrecisionUnstable

from ringref import RefRing


def cyclic_bar_complex(ring, q, mu_exp, length):
    """Normalized bar cochain complex of Z/q with rank-1 coefficients.

    The character sends the generator to zeta_q^mu_exp (mu_exp = 0 gives
    trivial coefficients).  Positions 0..length, so diffs d^0..d^(length-1).
    """
    rho = ring.root_powers(q if mu_exp % q else 1)[
        mu_exp * np.arange(q) % q]
    elems = list(range(1, q))
    bases = [list(product(elems, repeat=m)) for m in range(length + 1)]
    index = [{t: i for i, t in enumerate(b)} for b in bases]
    ranks = [len(b) for b in bases]
    diffs = []
    for m in range(length):
        d = np.zeros((ranks[m + 1], ranks[m], ring.dim), dtype=ring.dtype)

        def put(row, tau, coeff, m=m, d=d):
            col = index[m][tau]
            d[row, col] = (d[row, col] + coeff) % ring.pN

        for r, sigma in enumerate(bases[m + 1]):
            put(r, sigma[1:], rho[sigma[0]])
            for i in range(1, m + 1):
                prod = (sigma[i - 1] + sigma[i]) % q
                if prod:
                    tau = sigma[:i - 1] + (prod,) + sigma[i + 1:]
                    put(r, tau, ring.from_int((-1) ** i))
            put(r, sigma[:-1], ring.from_int((-1) ** (m + 1)))
        diffs.append(d)
    return ChainComplex(ring, ranks, diffs)


def test_cyclic_trivial_coefficients():
    R = chain_ring(3, 4, 1, 1)  # e = 2, cap = 8
    cx = cyclic_bar_complex(R, 3, 0, 3)
    cx.verify()
    b = R.e  # e * v_3(3), the valuation of the group exponent
    h = homology_of_complex(cx, bound=b)
    assert h[0] == (1, [])
    assert h[1] == (0, [])
    # H^2(C_3, O) = O/3, pi-exponent e
    assert h[2] == (0, [2])


def test_cyclic_nontrivial_coefficients():
    R = chain_ring(3, 4, 1, 1)
    cx = cyclic_bar_complex(R, 3, 1, 4)
    cx.verify()
    b = R.e
    # odd positions carry O/(1 - zeta_3) (pi-exponent e/2 = 1), even vanish
    h = homology_of_complex(cx, bound=b)
    assert h[0] == (0, [])
    assert h[1] == (0, [1])
    assert h[2] == (0, [])
    assert h[3] == (0, [1])


def test_c9_profiles():
    R = chain_ring(3, 6, 2, 1)  # e = 6, cap = 36
    b = 2 * R.e  # e * v_3(9)
    # order-9 character: 1 - zeta_9 torsion, exponent 1
    cx = cyclic_bar_complex(R, 9, 1, 2)
    assert homology_of_complex(cx, bound=b)[1] == (0, [1])
    # order-3 character: 1 - zeta_3 torsion, exponent 3
    cx = cyclic_bar_complex(R, 9, 3, 2)
    assert homology_of_complex(cx, bound=b)[1] == (0, [3])
    # trivial: H^2 = O/9, exponent 2e = 12, exactly the bound
    cx = cyclic_bar_complex(R, 9, 0, 3)
    assert homology_of_complex(cx, bound=b)[2] == (0, [12])


def test_homology_class_and_reverify():
    # d = 3 over Z/9: exponent 1 is reported under bound 1, and under
    # bound 0 the nonzero residue breaks the certificate
    R = chain_ring(3, 2, 0, 1)
    cx = ChainComplex(R, [1, 1], [array(R, [[R.from_int(3)]])])
    assert homology_of_complex(cx, bound=1, acyclic=True)[1] == (0, [1])
    with pytest.raises(PrecisionUnstable, match="exponent 1") as err:
        homology_of_complex(cx, bound=0, acyclic=True)
    assert str(R.key()) in str(err.value) and "1x1 matrix" in str(err.value)


def array(R, rows):
    """The element array of a matrix given as rows of element tuples."""
    return np.array(rows, dtype=R.dtype).reshape(len(rows), len(rows[0]),
                                                 R.dim)


def test_snf_chain_ring():
    R = chain_ring(3, 6, 0, 1)  # plain Z/3^6, e = 1
    bound = R.cap - 1
    M = array(R, [[R.from_int(1), R.from_int(1)],
                  [R.from_int(-1), R.from_int(2)]])
    assert _smith_exponents(R, M, bound) == [0, 1]  # det = 3
    M = array(R, [[R.from_int(1), R.from_int(1)],
                  [R.from_int(1), R.from_int(1)]])
    assert _smith_exponents(R, M, bound) == [0]  # rank 1
    M = array(R, [[R.from_int(9), R.zero],
                  [R.zero, R.from_int(3)]])
    assert _smith_exponents(R, M, bound) == [1, 2]


def test_verify_catches_broken_complex():
    R = chain_ring(3, 4, 1, 1)
    cx = cyclic_bar_complex(R, 3, 0, 3)
    d1 = cx.matrix(1).copy()
    d1[0, 0] = (d1[0, 0] + R.one) % R.pN
    broken = ChainComplex(R, cx.ranks, [cx.matrix(0), d1, cx.matrix(2)])
    with pytest.raises(BlockExtError, match="d o d"):
        broken.verify()


def test_chain_matrix_mul():
    R = chain_ring(3, 3, 0, 1)
    A = array(R, [[R.from_int(1), R.from_int(2)]])
    B = array(R, [[R.from_int(3)], [R.from_int(4)]])
    assert np.array_equal(R.matmul(A, B)[0, 0], R.from_int(11))
    eye = array(R, [[R.one, R.zero], [R.zero, R.one]])
    assert _sparse(eye) == {(0, 0): (1,), (1, 1): (1,)}


# -- the dense Smith routine against a scalar reference --------------------

def reference_exponents(R, rows, threshold):
    """Global minimal-valuation elimination on lists of element tuples,
    in the scalar reference ring."""
    R = RefRing(R)
    rows = [[tuple(int(c) for c in v) for v in r] for r in rows]
    live = set(range(len(rows)))
    exps = []
    while True:
        cands = [(R.val(v), i, j) for i in live
                 for j, v in enumerate(rows[i]) if v != R.zero]
        if not cands:
            return exps
        v0, i0, j0 = min(cands)
        if v0 >= threshold:
            return exps
        a = rows[i0][j0]
        for i in live - {i0}:
            if rows[i][j0] != R.zero:
                q = R.div(rows[i][j0], a)
                rows[i] = [R.sub(x, R.mul(q, y))
                           for x, y in zip(rows[i], rows[i0])]
                assert rows[i][j0] == R.zero
        live.discard(i0)
        exps.append(v0)


RING_SHAPES = {
    "example-c": (2, 6, 2, 3),
    "c3x9": (3, 6, 2, 1),
    "c3x9-recheck": (3, 8, 2, 1),
    "q8": (3, 4, 1, 4),
    "plain": (3, 5, 0, 1),
    "p5-dim20": (5, 6, 2, 1),
}


@st.composite
def ring_matrices(draw, R):
    """Random small matrices whose entries have spread-out valuations;
    half of them are products, which repeat invariant factors."""
    R = RefRing(R)

    def element():
        if draw(st.integers(0, 3)) == 0:
            return R.zero
        unit = tuple(draw(st.lists(st.integers(0, R.pN - 1),
                                   min_size=R.dim, max_size=R.dim)))
        return R.mul(unit, R.power(R.pi, draw(st.integers(0, R.cap))))

    def matrix(m, n):
        return [[element() for _ in range(n)] for _ in range(m)]

    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        return matrix(m, n)
    k = draw(st.integers(1, 3))
    A, B = matrix(m, k), matrix(k, n)
    out = []
    for i in range(m):
        row = []
        for j in range(n):
            acc = R.zero
            for l in range(k):
                acc = R.add(acc, R.mul(A[i][l], B[l][j]))
            row.append(acc)
        out.append(row)
    return out


@pytest.mark.parametrize("shape", sorted(RING_SHAPES))
def test_smith_matches_reference(shape):
    R = chain_ring(*RING_SHAPES[shape])

    @settings(derandomize=True, max_examples=25, deadline=None,
              database=None)
    @given(rows=ring_matrices(R), bound=st.integers(0, R.cap + 2))
    def check(rows, bound):
        ref = reference_exponents(R, rows, R.cap)  # ascending
        past = [a for a in ref if a > bound]
        if not past:
            assert _smith_exponents(R, array(R, rows), bound) == ref
        else:  # the first exponent past the bound breaks the certificate
            with pytest.raises(PrecisionUnstable,
                               match=f"exponent {past[0]} past"):
                _smith_exponents(R, array(R, rows), bound)

    check()


def test_smith_past_int64_bound_uses_objects():
    R = chain_ring(3, 40, 0, 1)
    assert R.dim * (R.pN - 1) ** 2 >= 1 << 63 and R.dtype is object
    # U diag(3^5, 3^39, 3^0) W with U, W unimodular over Z
    diag = [[R.from_int(3 ** 5), R.zero, R.zero],
            [R.zero, R.from_int(3 ** 39), R.zero],
            [R.zero, R.zero, R.one]]
    U = array(R, [[R.from_int(c) for c in row]
                  for row in ((1, 2, 0), (0, 1, -7), (4, 9, -27))])
    W = array(R, [[R.from_int(c) for c in row]
                  for row in ((1, 0, 5), (3, 1, 0), (-2, 11, 1))])
    A = R.matmul(R.matmul(U, array(R, diag)), W)
    assert A.dtype == object
    rows = [[tuple(v) for v in row] for row in A.tolist()]
    assert reference_exponents(R, rows, R.cap) == [0, 5, 39]
    # under bound 20 the residue 3^39 is past the bound and raises
    with pytest.raises(PrecisionUnstable, match="exponent 39 past"):
        _smith_exponents(R, A.copy(), 20)
    assert _smith_exponents(R, A, R.cap - 1) == [0, 5, 39]


def test_smith_residue_names_ring():
    R = ChainRing(3, 4, 0, 1)  # a private instance: its inverse is broken
    R.inv = lambda u: R.from_int(2)
    M = array(R, [[R.one], [R.one]])
    with pytest.raises(BlockExtError, match="residue") as err:
        _smith_exponents(R, M, R.cap - 1)
    assert str(R.key()) in str(err.value)
    assert "2x1 matrix" in str(err.value) and "pivot (0, 0)" in str(err.value)


def test_negative_free_rank_names_ring():
    R = chain_ring(3, 4, 0, 1)
    # not a complex: d1 d0 != 0, so the ranks cannot add up
    one = array(R, [[R.one]])
    cx = ChainComplex(R, [1, 1, 1], [one, one])
    with pytest.raises(PrecisionUnstable) as err:
        homology_of_complex(cx, bound=0)
    assert str(R.key()) in str(err.value)


@pytest.mark.parametrize("shape", [(3, 4, 1, 1), (3, 40, 0, 1)])
def test_array_built_complex_exposes_dicts(shape):
    R = chain_ring(*shape)  # the second is stored in uint64, run as objects
    cx = cyclic_bar_complex(R, 3, 0, 3)
    assert cx.diffs == [_sparse(cx.matrix(i)) for i in range(3)]
    assert cx.diffs[0] == {}  # d^0 vanishes on trivial coefficients
    assert homology_of_complex(cx, bound=R.e)[:3] == \
        [(1, []), (0, []), (0, [R.e])]
    # the sparse view is derived: editing it changes nothing
    cx.diffs[1][(0, 0)] = R.one
    cx.verify()
    with pytest.raises(ValueError, match="read-only"):
        cx.matrix(1)[0, 0] = 1


def test_dict_differentials_are_rejected():
    R = chain_ring(3, 4, 0, 1)
    with pytest.raises(TypeError, match="element arrays"):
        ChainComplex(R, [1, 1], [{(0, 0): R.one}])
