"""Integer helpers: deterministic Miller-Rabin against the sieve and the
strong pseudoprimes psi_t."""

import pytest

from cmdihedral.arith import is_prime, primes_upto

# psi_t, the least strong pseudoprime to the first t prime bases, t = 1..12
# (Jaeschke, Math. Comp. 61, 1993; Sorenson-Webster, Math. Comp. 86, 2017);
# each is composite, and the first t - 1 bases pass it
PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
)


def test_is_prime_equals_the_sieve():
    limit = 2 * 10**6
    sieve = bytearray(limit + 1)
    for p in primes_upto(limit):
        sieve[p] = 1
    assert [n for n in range(limit + 1) if is_prime(n) != bool(sieve[n])] == []


@pytest.mark.parametrize("t", range(1, 12))
def test_is_prime_rejects_the_strong_pseudoprimes(t):
    assert not is_prime(PSI[t - 1])


def test_is_prime_refuses_psi_12_and_above():
    # 318665857834031151167461 = 399165290221 * 798330580441 passes all twelve bases
    assert PSI[11] == 399165290221 * 798330580441
    for n in (PSI[11], PSI[11] + 2, 2**89 - 1):
        with pytest.raises(ValueError, match="not decided"):
            is_prime(n)
    assert is_prime(PSI[11] - 1) is False
