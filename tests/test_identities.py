"""Known answers from classical identities that share no code with the
package: each oracle here is computed from scratch, and only the object under
test comes from `cmdihedral`.

Delta mod 23 from two binary forms of discriminant -23 (Serre, "Modular forms
of weight one and Galois representations", Durham 1977): eta(z)^24 =
eta(z) eta(23z) (mod 23), and eta(z) eta(23z) = (theta_1 - theta_2) / 2 for
the forms x^2 + xy + 6y^2 and 2x^2 + xy + 3y^2.  So tau(n) = (r_1(n) -
r_2(n)) / 2 (mod 23), where r_i(n) counts the representations of n."""

from math import isqrt

from cmdihedral import congruence

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


def test_tau_mod_23_is_half_the_difference_of_two_theta_series(monkeypatch):
    half = _tau_mod_23()
    assert half[1:6] == [1, 22, 22, 0, 0]  # tau(1..5) = 1, -24, 252, -1472, 4830
    # Delta over F_23 with the multiples of 23 dropped, as every verdict uses it
    expected = [0] + [0 if n % 23 == 0 else half[n] for n in range(1, BOUND + 1)]
    assert congruence.TAU.expansion(23, BOUND, None).coeffs == expected

    # the reduced theta series that the delta23 verdict compares, read at the
    # comparison through the built-in's reduction map
    seen, compare = [], congruence.compare

    def recording_compare(f, g, bound, indices=None):
        seen.append(f)
        return compare(f, g, bound, indices)

    monkeypatch.setattr(congruence, "compare", recording_compare)
    result = congruence.run_scenario(congruence.builtin_scenario("delta23"))
    theta = seen[-1]
    assert result.report.verdict and result.report.count == BOUND
    assert result.report.reduction_map == result.reduction.describe()
    F = result.reduction.field
    assert (F.ell, F.r) == (23, 2) and theta.ring is F and theta.prec == BOUND
    # a prime-field element has the same code in F_{23^2}
    assert theta.coeffs == [0] + [F.scalar(c) for c in expected[1:]]
