"""Term lattice basics: evaluation, product signs, the non-canonical set,
and the zero-splitting identity."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pohst.partition import block_products, build_good_partition
from pohst.triangle import (
    TermIndex,
    as_sign_pattern,
    as_vector,
    close,
    eval_f,
    eval_term,
    leq_with_tol,
    negate_abs,
    noncanonical_set,
    pohst_bound,
    product_sign,
    sign_pattern_of,
    split_at_zeros,
    term_indices,
)

patterns = st.lists(st.sampled_from((-1, 1)), min_size=1, max_size=8)


@pytest.mark.parametrize("v,t,expected", [
    ((-1.0,), (1, 1), 2.0),
    ((0.5, -0.5), (1, 2), 1.25),
    ((0.5, -0.5), (2, 2), 1.5),
    ((0.5, -0.5), (1, 1), 0.5),
])
def test_eval_term_frozen(v, t, expected):
    assert eval_term(v, t) == expected


def test_eval_term_frozen_nondyadic():
    # 1 - 0.3*(-0.7)*0.9*(-0.2) = 1 - 378/10000, rational oracle
    assert close(eval_term((0.3, -0.7, 0.9, -0.2), (1, 4)), 0.9622)
    assert type(eval_term((0.3, -0.7, 0.9, -0.2), (1, 4))) is float


@pytest.mark.parametrize("t", [(0, 1), (1, 3), (3, 3), (2, 1)])
def test_eval_term_rejects_bad_index(t):
    with pytest.raises(IndexError):
        eval_term((0.5, -0.5), t)


@pytest.mark.parametrize("v,expected", [
    ((0.0, 0.0, 0.0), 1.0),
    ((-1.0, 0.0, -1.0), 4.0),
    ((0.5, -0.5), 0.9375),
    ((-0.5, 0.75), 0.515625),  # 33/64, dyadic so exact
])
def test_eval_f_frozen(v, expected):
    assert eval_f(v) == expected


def test_eval_f_frozen_nondyadic():
    # 1038464969231570727 / 3125000000000000000 by rational arithmetic
    assert close(eval_f((0.3, -0.7, 0.9, -0.2)), 0.33230879015410264)


def test_eval_f_reads_a_scalar_as_a_vector_of_one():
    """as_vector reshapes a 0-d input to one entry: f_1(x) = 1 - x."""
    assert as_vector(0.5).shape == (1,)
    assert eval_f(0.5) == eval_f((0.5,)) == 0.5


def test_eval_f_matches_definition():
    rng = np.random.default_rng(7)
    for n in range(1, 9):
        v = rng.uniform(-1.0, 1.0, size=n)
        direct = 1.0
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                direct *= 1.0 - np.prod(v[i - 1:j])
        assert eval_f(v) == direct


def test_running_terms_on_columns_aliases_nothing():
    """A full pass over batch columns leaves them unchanged, and every
    yielded term is an array of its own: the block products of the
    columns, which hold every term at once, equal those of each row's
    floats."""
    X = np.random.default_rng(11).uniform(-1.0, 1.0, size=(6, 7))
    X[2, 3] = X[4, 0] = 0.0
    cols = np.ascontiguousarray(X.T)
    before = cols.copy()
    blocks = [b.members for b in build_good_partition((1, -1, -1, 1, -1, 1, 1)).blocks]
    blocks += [[t] for t in term_indices(7)]
    batch = block_products(cols, blocks)
    assert np.array_equal(cols, before)
    for r, row in enumerate(X):
        assert [b[r] for b in batch] == block_products(row.tolist(), blocks)


@pytest.mark.parametrize("n,expected", [
    (1, 2.0), (2, 2.0), (3, 4.0), (4, 4.0), (5, 8.0), (10, 32.0), (11, 64.0),
])
def test_pohst_bound(n, expected):
    assert pohst_bound(n) == expected


def test_pohst_bound_rejects_nonpositive():
    with pytest.raises(ValueError):
        pohst_bound(0)


@pytest.mark.parametrize("bad", [(), (1.5,), (0.5, -2.0), [[0.1, 0.2]]])
def test_as_vector_rejects(bad):
    with pytest.raises(ValueError):
        as_vector(bad)


@pytest.mark.parametrize("bad", [(), (0,), (1, 2), (1, -1, 0)])
def test_as_sign_pattern_rejects(bad):
    with pytest.raises(ValueError):
        as_sign_pattern(bad)


def test_as_sign_pattern_reads_entries_as_integers():
    """Entries are read with operator.index: numpy integers and bools
    pass, None and floats, 1.0 included, are rejected as entries."""
    assert as_sign_pattern(np.array([1, -1], dtype=np.int64)) == (1, -1)
    assert as_sign_pattern([True, -1]) == (1, -1)
    for bad in ((None,), (1.5,), (1.0,), (1, -1.0)):
        with pytest.raises(ValueError, match="entries must be"):
            as_sign_pattern(bad)


def test_sign_pattern_of():
    assert sign_pattern_of((0.5, -0.5)) == (1, -1)
    with pytest.raises(ValueError):
        sign_pattern_of((0.5, 0.0, -0.5))


def test_negate_abs():
    assert np.array_equal(negate_abs((0.5, -0.5, 0.0)), [-0.5, -0.5, 0.0])
    v = (-0.3, -0.9)
    assert np.array_equal(negate_abs(v), np.asarray(v))


@pytest.mark.parametrize("t,expected", [
    ((1, 1), -1), ((1, 2), -1), ((2, 2), 1),
])
def test_product_sign_frozen(t, expected):
    assert product_sign((-1, 1), t) == expected


@pytest.mark.parametrize("pattern,expected", [
    # (1,2): odd i+j and sign -1, non-canonical; (1,1): even i+j and
    # sign -1, canonical
    ((-1, 1), {(2, 2): 1, (1, 2): -1}),
    ((1, 1), {(1, 1): 1, (2, 2): 1}),
    ((-1,), {}),
    ((-1, -1, -1, -1), {}),
])
def test_noncanonical_set_frozen(pattern, expected):
    J = noncanonical_set(pattern)
    assert {tuple(t): s for t, s in J.signs.items()} == expected


def test_noncanonical_set_accessors():
    J = noncanonical_set((-1, 1))
    assert sorted(t for t in J.members if (-1) ** (t.i + t.j) > 0) == [TermIndex(2, 2)]
    assert sorted(t for t in J.members if (-1) ** (t.i + t.j) < 0) == [TermIndex(1, 2)]
    assert TermIndex(1, 2) in J and TermIndex(1, 1) not in J
    assert TermIndex(1, 1) not in J.signs


@given(patterns)
def test_noncanonical_membership_xor(pattern):
    """t is non-canonical exactly when its product sign is not (-1)^(i+j+1)."""
    J = noncanonical_set(pattern)
    for t in term_indices(len(pattern)):
        s = math.prod(pattern[t.i - 1:t.j])
        assert product_sign(pattern, t) == s
        reference = -1 if (t.i + t.j) % 2 == 0 else 1
        assert (t in J) != (s == reference)
        if t in J:
            assert J.signs[t] == s
            assert s == (1 if (t.i + t.j) % 2 == 0 else -1)


def test_canonical_terms_match_mirror_exactly():
    rng = np.random.default_rng(11)
    for n in range(1, 8):
        v = rng.uniform(-1.0, 1.0, size=n)
        v[v == 0.0] = 0.5
        J = noncanonical_set(sign_pattern_of(v))
        m = negate_abs(v)
        for t in term_indices(n):
            if t not in J:
                assert eval_term(v, t) == eval_term(m, t)


def test_term_below_one_iff_positive_sign():
    rng = np.random.default_rng(13)
    for n in range(1, 8):
        v = rng.uniform(-1.0, 1.0, size=n)
        v[v == 0.0] = -0.5
        pat = sign_pattern_of(v)
        for t in term_indices(n):
            if product_sign(pat, t) == 1:
                assert eval_term(v, t) < 1.0
            else:
                assert eval_term(v, t) > 1.0


@pytest.mark.parametrize("v,segments", [
    ((0.5, 0.0, -1.0), [[0.5], [-1.0]]),
    ((0.0, 0.0), []),
    ((-1.0, 0.0, -1.0, 0.0, -1.0), [[-1.0], [-1.0], [-1.0]]),
    ((0.25, -0.5), [[0.25, -0.5]]),
])
def test_split_at_zeros_frozen(v, segments):
    assert [s.tolist() for s in split_at_zeros(v)] == segments


def test_split_identity_frozen():
    v = (-1.0, 0.0, -1.0, 0.0, -1.0)
    segs = split_at_zeros(v)
    assert math.prod(eval_f(s) for s in segs) == 8.0 == eval_f(v)


@given(st.lists(st.sampled_from((-0.75, -0.25, 0.0, 0.5, 1.0)),
                min_size=1, max_size=10))
def test_split_product_identity(v):
    product = math.prod((eval_f(s) for s in split_at_zeros(v)), start=1.0)
    assert close(eval_f(v), product)


def test_term_indices_order():
    assert list(term_indices(3)) == [
        (1, 1), (2, 2), (1, 2), (3, 3), (2, 3), (1, 3)]
    assert len(list(term_indices(12))) == 12 * 13 // 2


def test_tolerance_helpers():
    assert leq_with_tol(1.0, 1.0 - 1e-14)
    assert not leq_with_tol(1.0 + 1e-9, 1.0)
    assert leq_with_tol(np.array([1.0 - 1e-14, 1.0 + 1e-9]), 1.0).tolist() == [True, False]
    assert close(2.0, 2.0 + 1e-13)
    assert not close(2.0, 2.0 + 1e-9)
