"""Known answers from classical identities that share no code with the
package: each oracle here is computed from scratch, and only the object under
test comes from `cmdihedral`.

Delta mod 23 from two binary forms of discriminant -23 (Serre, "Modular forms
of weight one and Galois representations", Durham 1977): eta(z)^24 =
eta(z) eta(23z) (mod 23), and eta(z) eta(23z) = (theta_1 - theta_2) / 2 for
the forms x^2 + xy + 6y^2 and 2x^2 + xy + 3y^2.  So tau(n) = (r_1(n) -
r_2(n)) / 2 (mod 23), where r_i(n) counts the representations of n.

Frobenius traces of the CM curves y^2 = x^3 - x and y^2 = x^3 + 1 (Ireland-
Rosen, GTM 84, ch. 18): a_p = 0 where p is inert in Z[i], resp. Z[w], and
elsewhere a_p = 2a for p = a^2 + b^2, resp. p = a^2 + 3b^2, up to sign."""

from math import isqrt

from cmdihedral import congruence
from cmdihedral.charmod import prime_table, table_images
from cmdihedral.congruence import EllipticCurve, curve_ap
from cmdihedral.qseries import euler_product

BOUND = 552  # the delta23 comparison bound


def _representations(a, b, c, bound):
    """r[n] = #{(x, y) : a x^2 + b xy + c y^2 = n} for n <= bound, for a form of
    discriminant -23: 4a*n = (2ax + by)^2 + 23 y^2 bounds |y|, and 4c*n bounds |x|."""
    r = [0] * (bound + 1)
    xs, ys = isqrt(4 * c * bound // 23), isqrt(4 * a * bound // 23)
    for x in range(-xs, xs + 1):
        for y in range(-ys, ys + 1):
            n = a * x * x + b * x * y + c * y * y
            if n <= bound:
                r[n] += 1
    return r


def _tau_mod_23():
    r1 = _representations(1, 1, 6, BOUND)
    r2 = _representations(2, 1, 3, BOUND)
    assert r1[0] == r2[0] == 1 and all((u - v) % 2 == 0 for u, v in zip(r1, r2))
    return [(u - v) // 2 % 23 for u, v in zip(r1, r2)]


def test_tau_mod_23_is_half_the_difference_of_two_theta_series():
    half = _tau_mod_23()
    assert half[1:6] == [1, 22, 22, 0, 0]  # tau(1..5) = 1, -24, 252, -1472, 4830
    # Delta over F_23 with the multiples of 23 dropped, as every verdict uses it
    expected = [0] + [0 if n % 23 == 0 else half[n] for n in range(1, BOUND + 1)]
    assert congruence.TAU.expansion(23, BOUND, None).coeffs == expected

    # the reduced theta series that the delta23 verdict compares, rebuilt
    # through the built-in's reported character and reduction map
    result = congruence.run_scenario(congruence.builtin_scenario("delta23"))
    assert result.report.verdict and result.report.count == BOUND
    assert result.report.reduction_map == result.reduction.describe()
    chi, m = result.character, result.reduction
    F = m.field
    assert (F.ell, F.r) == (23, 2)
    rows = prime_table(chi.D, chi.cond, chi.class_ideals, BOUND)
    *_, (_, theta) = euler_product(F, table_images(rows, m), BOUND)
    # a prime-field element has the same code in F_{23^2}
    assert theta == [0] + [F.scalar(c) for c in expected[1:]]


AP_BOUND = 10**5


def _odd_primes_from_5(bound):
    sieve = bytearray([1]) * (bound + 1)
    for p in range(2, isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, bound + 1, p)))
    return [p for p in range(5, bound + 1) if sieve[p]]


def _is_square(n):
    return n >= 0 and isqrt(n) ** 2 == n


def test_cm_curve_traces_to_10_5_follow_the_norm_forms():
    # y^2 = x^3 - x: 4p - a_p^2 = 4b^2; y^2 = x^3 + 1: 4p - a_p^2 = 12b^2 = 3(2b)^2
    for E, modulus, inert, c in ((EllipticCurve(0, 0, 0, -1, 0), 4, 3, 4),
                                 (EllipticCurve(0, 0, 0, 0, 1), 3, 2, 3)):
        for p in _odd_primes_from_5(AP_BOUND):
            a = curve_ap(E, p)
            if p % modulus == inert:
                assert a == 0, (E, p)
            else:
                rest = 4 * p - a * a
                assert rest % c == 0 and _is_square(rest // c), (E, p, a)
