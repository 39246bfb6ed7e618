"""The one candidate list of the primeness scans: the proper divisors of the
modulus, the index ranges of the candidates a, and the check that the rank
test and the kernel agree at prime k."""

import numpy as np
import pytest

from altring import analysis, fixtures
from altring.core import RingSpec


def _brute_divisors(k):
    return tuple(c for c in range(1, k) if k % c == 0)


def test_proper_divisors_match_brute_force_up_to_3000():
    assert [analysis._proper_divisors(k) for k in range(1, 3001)] == [
        _brute_divisors(k) for k in range(1, 3001)
    ]


@pytest.mark.parametrize("k", [1_321_123, 2_000_003, 2**20])
def test_proper_divisors_of_large_moduli(k):
    """47 * 28 109, a prime, and a prime power."""
    assert analysis._proper_divisors(k) == _brute_divisors(k)


def test_proper_divisors_run_once_per_modulus():
    """``analyze`` with primeness reads the divisors of k several times; the
    loop runs once, and every read returns the same tuple."""
    analysis._proper_divisors.cache_clear()
    analysis.analyze(fixtures.matrix2(5))
    info = analysis._proper_divisors.cache_info()
    assert (info.misses, info.currsize) == (1, 1) and info.hits >= 1
    assert analysis._proper_divisors(5) is analysis._proper_divisors(5) == (1,)


def _zero_ring(k, d):
    return RingSpec(f"zero_{k}_{d}", k, [f"b{i}" for i in range(d)], np.zeros((d, d, d), int))


def _leading_coefficient(a, k):
    while a >= k:
        a //= k
    return a


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", range(2, 17))
def test_candidates_are_the_elements_whose_lead_divides_k(k, d):
    ring = _zero_ring(k, d)
    got = [a for lo, hi in analysis._candidate_ranges(ring) for a in range(lo, hi)]
    assert got == [a for a in range(1, ring.size) if k % _leading_coefficient(a, k) == 0]
    if _brute_divisors(k) == (1,):
        assert len(got) == (ring.size - 1) // (k - 1)


@pytest.mark.parametrize("variant", ["left", "right"])
def test_rank_test_against_a_zero_kernel_is_an_error(variant, monkeypatch):
    """matrix2_z3 is prime, so no M(a) has a nonzero kernel.  A rank test
    that reports one anyway contradicts the kernel, and the criterion says
    so rather than scanning on."""
    monkeypatch.setattr(analysis, "_first_rank_deficient", lambda stack, k: 0)
    with pytest.raises(AssertionError, match="kernel is zero"):
        analysis.prime_criterion(fixtures.matrix2(3), variant)
