"""Howell-form linear algebra: canonicity, membership, kernels, solving."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altring import zmod

from helpers import reference_howell, reference_span_elements

MODULI = [2, 3, 4, 6, 8, 9, 12]


def brute_span(rows, k, width=3):
    """Every Z/kZ-combination of the rows, as a frozenset of tuples."""
    rows = [tuple(int(c) % k for c in r) for r in rows]
    span = {(0,) * width}
    frontier = list(span)
    while frontier:
        nxt = []
        for v in frontier:
            for r in rows:
                w = tuple((a + b) % k for a, b in zip(v, r))
                if w not in span:
                    span.add(w)
                    nxt.append(w)
        frontier = nxt
    return frozenset(span)


small_matrix = st.integers(2, 12).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.lists(
            st.lists(st.integers(0, k - 1), min_size=3, max_size=3),
            min_size=1,
            max_size=8,
        ),
    )
)


@settings(max_examples=150, deadline=None)
@given(small_matrix)
def test_howell_is_idempotent_and_span_preserving(data):
    k, rows = data
    h = zmod.howell(rows, k, width=3)
    again = zmod.howell(h, k, width=3)
    assert np.array_equal(h, again)
    assert brute_span(rows, k) == brute_span(h.tolist(), k)


@settings(max_examples=150, deadline=None)
@given(small_matrix, st.randoms(use_true_random=False))
def test_howell_is_span_invariant(data, rng):
    k, rows = data
    h = zmod.howell(rows, k, width=3)
    mangled = [r[:] for r in rows]
    rng.shuffle(mangled)
    mangled += [rows[rng.randrange(len(rows))]]  # duplicate
    scale = rng.randrange(1, k)
    mangled += [[(scale * c) % k for c in rows[0]]]  # scaled copy
    if len(mangled) >= 2:
        mangled += [[(a + b) % k for a, b in zip(mangled[0], mangled[1])]]
    assert np.array_equal(h, zmod.howell(mangled, k, width=3))


def test_howell_matches_row_by_row_reference():
    """The array elimination gives the bytes of the row-at-a-time one on
    wide, square and tall matrices, dense and sparse, at every k in 2..36."""
    rng = np.random.default_rng(36)
    for k in range(2, 37):
        for _ in range(30):
            m, n = rng.integers(0, 9), rng.integers(1, 7)
            a = rng.integers(0, k, size=(m, n)) * (rng.random((m, n)) < rng.random())
            got, expect = zmod.howell(a, k, width=n), reference_howell(a, k, n)
            assert got.shape == expect.shape and got.tobytes() == expect.tobytes(), (k, a)
            assert got.base is None  # its own buffer, not a view of the whole work


@settings(max_examples=100, deadline=None)
@given(small_matrix)
def test_membership_matches_brute_span(data):
    k, rows = data
    h = zmod.howell(rows, k, width=3)
    span = brute_span(rows, k)
    for v in itertools.product(range(k), repeat=3):
        assert zmod.member(h, v, k) == (v in span)


@settings(max_examples=100, deadline=None)
@given(small_matrix, st.integers(0, 2**32 - 1))
def test_batched_membership_matches_brute_span(data, seed):
    k, rows = data
    h = zmod.howell(rows, k, width=3)
    span = brute_span(rows, k)
    batch = np.random.default_rng(seed).integers(0, k, size=(int(seed % 9), 3))
    batch = np.vstack([batch, h, np.zeros((1, 3), dtype=np.int64)])
    got = zmod.member(h, batch, k)
    assert got.shape == (len(batch),)
    assert got.tolist() == [tuple(int(c) for c in v) in span for v in batch]


@settings(max_examples=100, deadline=None)
@given(small_matrix)
def test_span_elements_enumerates_exactly(data):
    k, rows = data
    h = zmod.howell(rows, k, width=3)
    listed = [tuple(int(c) for c in v) for v in zmod.span_elements(h, k, 3)]
    assert len(listed) == len(set(listed)) == zmod.span_count(h, k)
    assert set(listed) == brute_span(rows, k)
    assert listed == [tuple(int(c) for c in v) for v in reference_span_elements(h, k, 3)]


@pytest.mark.parametrize("k", MODULI)
def test_kernel_matches_brute_force(k):
    """Wide, square and tall: fewer equations than unknowns stop the
    elimination early, more take the annihilator rows at composite k."""
    rng = np.random.default_rng(k)
    for rows in [3] * 8 + [1, 2, 5] * 4:
        m = rng.integers(0, k, size=(rows, 3))
        ker = zmod.kernel(m, k)
        brute = {
            v
            for v in itertools.product(range(k), repeat=3)
            if not ((m @ np.array(v)) % k).any()
        }
        assert brute_span(ker.tolist(), k) == brute
        for row in ker:
            assert not ((m @ row) % k).any()


def test_kernel_known_cases():
    assert zmod.kernel(np.zeros((3, 3), dtype=int), 2).shape == (3, 3)  # full space
    assert zmod.kernel(np.eye(3, dtype=int), 2).shape == (0, 3)  # zero space
    assert zmod.kernel(np.zeros((0, 3), dtype=int), 4).shape == (3, 3)  # no equations
    ker = zmod.kernel([[2]], 4)  # v -> 2v on Z4
    assert ker.tolist() == [[2]]
    assert sorted(tuple(v) for v in zmod.span_elements(ker, 4, 1)) == [(0,), (2,)]


@pytest.mark.parametrize("k", MODULI)
def test_solve_round_trips(k):
    rng = np.random.default_rng(100 + k)
    for _ in range(10):
        m = rng.integers(0, k, size=(4, 3))
        x = rng.integers(0, k, size=3)
        t = (m @ x) % k
        sol = zmod.solve(m, t, k)
        assert sol is not None
        assert not ((m @ sol - t) % k).any()


def test_solve_detects_unsolvable():
    # over Z4, 2x = 1 has no solution
    assert zmod.solve([[2]], [1], 4) is None
    assert zmod.solve([[2]], [2], 4) is not None


@pytest.mark.parametrize("k", MODULI)
def test_solve_is_none_exactly_when_brute_force_finds_no_solution(k):
    """Random targets, most of them outside the image at composite k."""
    rng = np.random.default_rng(200 + k)
    xs = np.array(list(itertools.product(range(k), repeat=2)))
    for _ in range(20):
        m = rng.integers(0, k, size=(2, 2))
        t = rng.integers(0, k, size=2)
        solvable = (((xs @ m.T) - t) % k == 0).all(axis=1).any()
        sol = zmod.solve(m, t, k)
        assert (sol is not None) == solvable, (m.tolist(), t.tolist())
        if sol is not None:
            assert not ((m @ sol - t) % k).any()


@pytest.mark.parametrize("k", MODULI)
def test_intersection_matches_brute_force(k):
    rng = np.random.default_rng(7 * k)
    for _ in range(6):
        a = rng.integers(0, k, size=(2, 3))
        b = rng.integers(0, k, size=(2, 3))
        got = zmod.intersect(a, b, k, 3)
        expect = brute_span(a.tolist(), k) & brute_span(b.tolist(), k)
        assert brute_span(got.tolist(), k) == expect
        # canonical: recomputing from any generating set of the intersection agrees
        assert np.array_equal(got, zmod.howell(list(expect), k, width=3))


def test_unit_multiplier_contract():
    import math

    for k in MODULI:
        for a in range(k):
            u = zmod.unit_multiplier(a, k)
            assert math.gcd(u, k) == 1
            assert (u * a) % k == math.gcd(a, k) % k


def test_unit_multiplier_memo_matches_recomputation():
    """The memoised values, for a in [-k, 2k) and every k in 2..36, equal a
    fresh computation of the lift for a mod k."""
    for k in range(2, 37):
        for a in range(-k, 2 * k):
            first, again = zmod.unit_multiplier(a, k), zmod.unit_multiplier(a, k)
            assert first == again == zmod._unit_multiplier.__wrapped__(a % k, k), (a, k)


def test_empty_and_zero_inputs():
    assert zmod.howell([], 5, width=4).shape == (0, 4)
    assert zmod.howell([[0, 0, 0]], 5).shape == (0, 3)
    assert zmod.member(zmod.howell([], 5, width=2), [0, 0], 5)
    assert zmod.span_elements(zmod.howell([], 5, width=2), 5, 2).tolist() == [[0, 0]]
    assert zmod.solve(np.zeros((0, 3), dtype=int), [], 4).tolist() == [0, 0, 0]
