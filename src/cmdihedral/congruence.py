"""Reduction of exact expansions, coefficientwise congruence comparison, the
comparison targets, and the scenario orchestration of the verification runs.

A target, TAU (Delta) or an EllipticCurve, answers every question about itself: its
JSON form, a scenario's default conductor, its sorted compared indices, its F_ell codes
there, and the theta they need (the Euler product, or a curve's prime sums).  A scenario
is checked in one order before any target or candidate is built: datum, bound cap
(PREC_CAP), perturbation index, the target's compared indices, and for a search the size
of (O_K/f)^*.  Every target is rational, so only a character with a reduction map into
F_ell or F_{ell^2} can match it (`charmod.build_reductions`): a search refuses any other
candidate, and an explicit one gets the empty report.  Under each reduction map one lazy
stream of mismatches decides the map by its first entry and, read to the end, is its
report."""

from __future__ import annotations

from itertools import product
from math import gcd, isqrt, lcm
from typing import NamedTuple

from .arith import (
    Record,
    factorint,
    is_prime,
    power,
    primes_upto,
)
from .charmod import (
    HeckeChar,
    ReductionMap,
    build_hecke_char,
    build_reductions,
    check_conductor_norm,
    prime_table,
    reduction_count,
    residue_group,
    table_images,
)
from .ffield import FiniteField, check_field_size, finite_field
from .qfield import (
    DISC_CAP,
    IdealRep,
    check_fundamental,
    ideal_divide_prime,
    primes_above,
    unit_ideal,
)
from .qseries import (
    PREC_CAP,
    QExpansion,
    delta_mod,
    drop_multiples,
    euler_product,
    prime_sums,
    sturm_bound,
)
from .serrepred import (
    DihedralDatum,
    SerrePrediction,
    delta_conductor_at_ell,
    nebentypus,
    predict_invariants,
    ramification_case,
)

SEARCH_MAP_CAP = 100
QUICK_PRUNE_BOUND = 20
# a_p from the table of squares at and below, by baby-step giant-step above
AP_BSGS_CROSSOVER = 229


# ---------------------------------------------------------------------------
# elliptic curves


class EllipticCurve(Record):
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6, refused when singular.
    The invariants c4, c6 and the discriminant are computed once, here."""

    __slots__ = ("a1", "a2", "a3", "a4", "a6", "_c4", "_c6", "_disc")
    theta = staticmethod(prime_sums)

    def __init__(self, a1: int, a2: int, a3: int, a4: int, a6: int):
        self.a1 = a1
        self.a2 = a2
        self.a3 = a3
        self.a4 = a4
        self.a6 = a6
        b2, b4, b6, b8 = self.b_invariants()
        self._c4 = b2 * b2 - 24 * b4
        self._c6 = -b2**3 + 36 * b2 * b4 - 216 * b6
        self._disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        if self._disc == 0:
            raise ValueError("singular Weierstrass equation")

    def b_invariants(self):
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return b2, b4, b6, b8

    def discriminant(self) -> int:
        return self._disc

    def to_json(self) -> dict:
        return {"curve": [self.a1, self.a2, self.a3, self.a4, self.a6]}

    def default_conductor(self, at_ell: IdealRep):
        raise ValueError("curve scenarios must specify the character conductor")

    def indices(self, ell: int, bound: int) -> list[int]:
        # the good primes other than ell: the target holds nothing at any other n but 1
        return [p for p in primes_upto(bound) if p != ell and self._disc % p]

    def expansion(self, ell: int, bound: int, primes) -> dict[int, int]:
        # c_1 = 1 is a_1 of a newform; index 1 is compared only when perturbed
        return {1: 1, **{p: _curve_ap(self, p) % ell for p in primes}}


def curve_ap(E: EllipticCurve, p: int) -> int:
    """a_p = p + 1 - #E(F_p) at a prime p of good reduction.

    At and below AP_BSGS_CROSSOVER this is a quadratic character sum over x,
    read from a table of the squares mod p, in O(p).  Above it, the
    Shanks-Mestre search (Cohen, GTM 138, ch. 7 and Section 7.4.2; Schoof,
    J. Theor. Nombres Bordeaux 7, 1995) collects the multiples in the Hasse
    interval of a few points of the short model and of its quadratic twist,
    one point per x with no square root taken, by one baby-step giant-step
    walk of O(p^{1/4}) group operations per point.  The crossover is never
    below 229: Mestre's theorem, which makes the search exact, holds for
    p > 229.  Measured per prime, the two routes tie just below 229 and the
    search is faster above, so the crossover sits at 229.  At 2 and 3, where
    the short model does not exist, the table of squares always runs."""
    if not is_prime(p):
        raise ValueError("p must be a prime")
    if E.discriminant() % p == 0:
        raise ValueError(f"bad reduction at {p}")
    return _curve_ap(E, p)


def _curve_ap(E: EllipticCurve, p: int) -> int:
    """curve_ap without its checks, for primes already sieved and known good."""
    if p <= AP_BSGS_CROSSOVER:
        return _ap_by_squares(E, p)
    return _ap_by_bsgs(E, p)


def _ap_by_squares(E: EllipticCurve, p: int) -> int:
    if p == 2:
        return p + 1 - _count_points_naive(E, p)
    # (2y + a1 x + a3)^2 = g(x) = 4x^3 + b2 x^2 + 2 b4 x + b6: 1 + (g/p) values of y
    squares = bytearray(p)
    for y in range(1, (p + 1) // 2):
        squares[y * y % p] = 1
    b2, b4, b6, _ = E.b_invariants()
    gs = [(((4 * x + b2) * x + 2 * b4) * x + b6) % p for x in range(p)]
    # a_p = -sum (g/p) = #non-squares - #squares = p - #zeros - 2 #squares
    return p - gs.count(0) - 2 * sum(squares[g] for g in gs)


def _ap_by_bsgs(E: EllipticCurve, p: int) -> int:
    """For x = 0, 1, 2, ... with v = x^3 + A x + B != 0 on the short model
    (A, B), the point (v x, v^2) lies on y^2 = x^3 + A v^2 x + B v^3, which is
    E when (v/p) = 1 and its quadratic twist when (v/p) = -1, so it has
    p + 1 - (v/p) a_p points.  Each such point keeps the candidates
    a = (v/p)(p + 1 - N) for the N in the Hasse interval with N*P = O, until
    one candidate is left.  Every x gives a point of E or of the twist, and for
    p > 229 Mestre's theorem makes that happen before the x run out."""
    A, B = _short_model(E, p)
    half = (p - 1) // 2
    candidates = None
    for x in range(p):
        v = ((x * x + A) * x + B) % p
        if v:
            sign = 1 if pow(v, half, p) == 1 else -1
            P = v * x % p, v * v % p
            ts = {sign * (p + 1 - N) for N in _hasse_multiples(P, A * v * v % p, p)}
            candidates = ts if candidates is None else candidates & ts
            if len(candidates) == 1:
                return candidates.pop()
            if not candidates:
                break
    raise AssertionError(f"the points of E and its twist leave a_{p} open")


def _short_model(E: EllipticCurve, p: int) -> tuple[int, int]:
    """(A, B) with y^2 = x^3 + A x + B isomorphic to E over F_p, p > 3."""
    return -27 * E._c4 % p, -54 * E._c6 % p


def _hasse_multiples(P, a4: int, p: int):
    """Every N in the Hasse interval [lo, hi] = [p+1-r, p+1+r] with N*P = O under
    the closure `_ec_adder(a4, p)`.  Baby steps jP (j <= s) stand for +-jP; if they
    reach O or meet -iP, ord P <= 2s is known and its multiples are read off.
    Otherwise giant steps G = wP, w = 2s+1, run over the multiples c = mw from the
    one with lo in [c-s, c+s] until the windows [c-s, c+s] cover hi; each window
    holds at most one multiple, found as cP = -+jP."""
    add = _ec_adder(a4, p)
    r = isqrt(4 * p)
    lo, hi = p + 1 - r, p + 1 + r
    s = isqrt(r) + 1
    baby = {}
    R = None
    for j in range(1, s + 1):
        R = add(R, P)
        if R is None or R[0] in baby or R[1] == 0:
            # jP is O, -iP for some i < j, or -jP: the order is j, i + j or 2j
            n = j if R is None else j + baby.get(R[0], (j,))[0]
            return range(-(-lo // n) * n, hi + 1, n)
        baby[R[0]] = j, R[1]
    w = 2 * s + 1
    G = add(add(R, R), P)  # wP from the last baby step R = sP
    m = (lo + s) // w
    c = m * w
    R = power(G, m, add, None)
    multiples = []
    while c - s <= hi:
        if R is None:
            multiples.append(c)
        elif R[0] in baby:
            j, y = baby[R[0]]
            multiples.append(c - j if y == R[1] else c + j)
        R = add(R, G)
        c += w
    return [N for N in multiples if lo <= N <= hi]


def _ec_adder(a4: int, p: int):
    """P + Q on y^2 = x^3 + a4 x + a6 over F_p in affine coordinates, None the origin; a
    closure of two points, because a partial or lambda around a 4-argument law costs more."""
    def add(P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2:
            if (y1 + y2) % p == 0:
                return None
            lam = (3 * x1 * x1 + a4) * pow(2 * y1, -1, p) % p
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (lam * lam - x1 - x2) % p
        return x3, (lam * (x1 - x3) - y1) % p

    return add


def curve_ap_naive(E: EllipticCurve, p: int) -> int:
    """Oracle: a_p by brute force over all (x, y)."""
    if E.discriminant() % p == 0:
        raise ValueError(f"bad reduction at {p}")
    return p + 1 - _count_points_naive(E, p)


def _count_points_naive(E: EllipticCurve, p: int) -> int:
    count = 1  # point at infinity
    a1, a2, a3, a4, a6 = E.a1, E.a2, E.a3, E.a4, E.a6
    for x in range(p):
        rhs = (x * x * x + a2 * x * x + a4 * x + a6) % p
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y - rhs) % p == 0:
                count += 1
    return count


# ---------------------------------------------------------------------------
# reductions and comparison


def reduce_expansion(f: QExpansion, m: ReductionMap) -> QExpansion:
    coeffs = [0] + [m.reduce(c) for c in f.coeffs[1:]]
    return QExpansion(m.field, coeffs, f.weight, f.level)


def reduce_int_expansion(f: QExpansion, ell: int) -> QExpansion:
    if f.ring != "int":
        raise ValueError("expected an integer expansion")
    F = finite_field(ell, 1)
    coeffs = [0] + [F.scalar(c) for c in f.coeffs[1:]]
    return QExpansion(F, coeffs, f.weight, f.level)


class CongruenceReport(NamedTuple):
    ell: int
    reduction_map: dict | None
    bound: int
    count: int
    mismatches: tuple
    verdict: bool

    def to_json(self) -> dict:
        return {
            "ell": self.ell,
            "reduction_map": self.reduction_map,
            "bound": self.bound,
            "count": self.count,
            "mismatches": [list(m) for m in self.mismatches],
            "verdict": self.verdict,
        }


def compare(f: QExpansion, g: QExpansion, bound: int, indices=None) -> CongruenceReport:
    """Coefficientwise comparison over 1..bound (or the given indices)."""
    if f.prec < bound or g.prec < bound:
        raise ValueError("insufficient precision for the requested bound")
    Ff, Fg = f.ring, g.ring
    if not isinstance(Ff, FiniteField) or not isinstance(Fg, FiniteField):
        raise ValueError("compare expects finite-field expansions")
    if Ff.ell != Fg.ell:
        raise ValueError("expansions live in different characteristics")
    # a prime-field element has the same code in F_ell and F_{ell^2}
    idx = range(1, bound + 1) if indices is None else [n for n in indices if n <= bound]
    fc, gc = f.coeffs, g.coeffs
    mism = [(n, fc[n], gc[n]) for n in idx if fc[n] != gc[n]]
    return CongruenceReport(Ff.ell, None, bound, len(idx), tuple(mism), not mism)


# ---------------------------------------------------------------------------
# scenarios


class Tau(NamedTuple):
    """The target Delta = sum tau(n) q^n, of level 1: no fields, so copies equal TAU."""
    theta = staticmethod(euler_product)

    def to_json(self) -> str:
        return "tau"

    def default_conductor(self, at_ell: IdealRep) -> IdealRep:
        return at_ell

    def indices(self, ell: int, bound: int) -> range:
        if bound < 1:  # derived at m < 6 (paper) or k*m < 12 (standard): D = -3, unit conductor
            raise ValueError(f"comparison bound {bound} compares no coefficient")
        return range(1, bound + 1)

    def expansion(self, ell: int, bound: int, indices) -> list[int]:
        """Delta over F_ell by `delta_mod`, zero at the multiples of ell: no exact tau(n)."""
        return drop_multiples(delta_mod(bound, ell), ell).coeffs


TAU = Tau()


class Scenario(NamedTuple):
    disc: int
    weight: int
    ell: int
    char: object  # "search" or an explicit spec dict
    target: object  # TAU or EllipticCurve
    bound_mode: str = "standard"
    cond: IdealRep | None = None
    bound: int | None = None
    perturb: int | None = None

    @staticmethod
    def from_json(obj: dict) -> "Scenario":
        _json_object(obj, "scenario", ("disc", "weight", "ell", "char", "target"),
                     ("bound_mode", "cond", "bound", "perturb"))
        disc = _json_int(obj["disc"], "disc")
        weight = _json_int(obj["weight"], "weight")
        ell = _json_int(obj["ell"], "ell")
        char = obj["char"]
        target_spec = obj["target"]
        bound_mode = obj.get("bound_mode", "standard")
        bound = None if obj.get("bound") is None else _json_int(obj["bound"], "bound")
        perturb = None if obj.get("perturb") is None else _json_int(obj["perturb"], "perturb")
        # the conductor is an ideal of this discriminant: check it first
        check_fundamental(disc)
        if bound is not None and bound < 1:
            raise ValueError("bound must be a positive integer")
        if bound_mode not in ("paper", "standard"):
            raise ValueError(f"unknown bound mode {bound_mode!r}")
        if target_spec == "tau":
            target = TAU
        elif isinstance(target_spec, dict) and _is_int_list(target_spec.get("curve"), 5):
            _json_object(target_spec, "target", ("curve",))
            target = EllipticCurve(*target_spec["curve"])
        else:
            raise ValueError(
                "malformed scenario: target must be 'tau' or {'curve': [a1,a2,a3,a4,a6]}"
            )
        if char != "search":
            if not isinstance(char, dict):
                raise ValueError("char must be 'search' or an explicit spec object")
            _json_object(char, "char", (), ("finite_part", "class_part", "conductor"))
            if not _is_int_list(char.get("finite_part")):
                raise ValueError(
                    "malformed scenario: explicit char needs a 'finite_part' list of integers"
                )
            class_part = char.get("class_part", "canonical")
            if class_part != "canonical" and not _is_int_list(class_part):
                raise ValueError(
                    "malformed scenario: class_part must be 'canonical' or a list of integers"
                )
        # a top-level cond and an explicit char's conductor must name one ideal
        specs = (obj.get("cond"), char.get("conductor") if isinstance(char, dict) else None)
        conds = {_conductor(disc, spec) for spec in specs if spec is not None}
        if len(conds) > 1:
            raise ValueError("malformed scenario: cond and char.conductor name different ideals")
        cond = conds.pop() if conds else None
        return Scenario(disc, weight, ell, char, target, bound_mode, cond, bound, perturb)

    def to_json(self) -> dict:
        out = {name: v for name, v in self._asdict().items() if v is not None}
        for name in ("target", "cond"):
            if name in out:
                out[name] = out[name].to_json()
        return out


def _conductor(disc: int, spec) -> IdealRep:
    _json_object(spec, "conductor", ("n", "b"), ("c",))
    return IdealRep(
        disc, _json_int(spec["n"], "conductor n"), _json_int(spec["b"], "conductor b"),
        _json_int(spec.get("c", 1), "conductor c"),
    )


def _json_object(x, what: str, keys, optional=()) -> None:
    """Refuse, in one line, anything but a JSON object with every key of keys
    and no key outside keys and optional."""
    if not isinstance(x, dict):
        raise ValueError(f"malformed {what}: expected a JSON object, not {type(x).__name__}")
    for key in keys:
        if key not in x:
            raise ValueError(f"malformed {what}: missing key {key!r}")
    for key in x:
        if key not in keys and key not in optional:
            raise ValueError(f"malformed {what}: unknown key {key!r}")


def _is_json_int(x) -> bool:
    # bool is a subclass of int, but true is not a JSON integer
    return isinstance(x, int) and not isinstance(x, bool)


def _json_int(x, name: str) -> int:
    if not _is_json_int(x):
        raise ValueError(f"malformed scenario: {name} must be an integer, not {type(x).__name__}")
    return x


def _is_int_list(x, length=None) -> bool:
    return (
        isinstance(x, list)
        and all(_is_json_int(a) for a in x)
        and (length is None or len(x) == length)
    )


# the built-in scenarios, as the JSON documents a scenario file would hold
BUILTINS = {
    "delta23": {"disc": -23, "weight": 12, "ell": 23, "char": "search", "target": "tau",
                "cond": {"n": 23, "b": 23}},
    "curve65533": {"disc": -71, "weight": 2, "ell": 7, "char": "search",
                   "target": {"curve": [0, -1, 1, -18507, -989382]},
                   "cond": {"n": 71, "b": 71}, "bound": 500},
}


def builtin_scenario(name: str) -> Scenario:
    if name not in BUILTINS:
        raise ValueError(f"unknown builtin scenario {name!r}")
    return Scenario.from_json(BUILTINS[name])


# ---------------------------------------------------------------------------
# orchestration


class RunResult(NamedTuple):
    prediction: SerrePrediction
    report: CongruenceReport
    character: HeckeChar | None
    reduction: ReductionMap | None


def _scenario_setup(s: Scenario) -> tuple[DihedralDatum, IdealRep, int, list | range]:
    """(datum, conductor, comparison bound, the target's sorted compared indices),
    refused in the one order of the module docstring, before any series is built."""
    sp = primes_above(s.disc, s.ell)
    # every reduction lands in an extension of this field: check its size first
    check_field_size(s.ell, 2 if sp.kind == "inert" else 1)
    case = ramification_case(s.ell, sp.kind, s.weight)
    expected = delta_conductor_at_ell(case)
    cond = s.cond or s.target.default_conductor(sp.primes[0] if expected else unit_ideal(s.disc))
    check_conductor_norm(cond)
    at_ell = factorint(cond.norm()).get(s.ell, 0)
    if at_ell != expected:
        raise ValueError(
            f"conductor exponent at ell is {at_ell}, case table expects {expected}"
        )
    # strip the prime above ell (residue degree 1 in the ramified cases)
    away = ideal_divide_prime(cond, sp.primes[0]) if at_ell else cond
    datum = DihedralDatum(s.ell, s.disc, s.weight, away, case)
    bound = s.bound
    if bound is None:
        bound = sturm_bound(s.weight, cond.norm() * abs(s.disc), s.bound_mode)
    if bound > PREC_CAP:
        raise ValueError(f"comparison bound {bound} exceeds the cap of {PREC_CAP}")
    n = s.perturb
    if n is not None and not 1 <= n <= bound:
        raise ValueError("perturbation index out of range")
    indices = s.target.indices(s.ell, bound)
    # a target is read at its indices only, and at 1 when perturbed there
    if n not in (None, 1) and n not in indices:
        raise ValueError(f"perturbation index {n} is not compared for a curve target")
    if not indices:
        raise ValueError(f"comparison bound {bound} leaves no good prime to compare")
    return datum, cond, bound, indices


def _target_expansion(s: Scenario, bound: int, indices):
    """The target's F_ell codes at its compared indices and its indices, perturbed."""
    t = s.target.expansion(s.ell, bound, indices)
    n = s.perturb
    if n is not None:
        t[n] = (t[n] + 1) % s.ell
        indices = sorted({*indices, n})
    return t, indices


def _mismatches(rows, m: ReductionMap, theta, target, bound: int, indices):
    """Each (n, c_n, target[n]) at which the theta series c of m.chi under m, expanded
    by theta (the target's) from its prime table rows to bound, differs from target,
    over indices (sorted, each <= bound) in order: each as soon as c_n is final."""
    steps = theta(m.field, table_images(rows, m), bound)
    final, c = next(steps)
    for n in indices:
        while n >= final:
            final, c = next(steps)
        if c[n] != target[n]:
            yield n, c[n], target[n]


def _search_matches(s: Scenario, cond: IdealRep, bound: int, indices, diagnostics: list):
    """Lazily yield each matching (character, reduction map, report) in candidate
    order, and append to diagnostics why each other candidate was skipped.

    The Galois orbit of a finite part fp of order w is {c*fp : c in (Z/w)^*}.  The
    maps of chi_{c*fp} are those of chi_fp composed with zeta_w -> zeta_w^(1/c), w_D
    and the t_j fixed, so the orbit shares one set of reduced theta series, and each
    refusal reads only what it shares: w, eps_f on the units (accepted only where it
    is +-1, which zeta_w -> zeta_w^c fixes), the kernels at each P | f, the fan-out
    and the fields.  So the first member of an orbit that is refused or
    pruned at the quick bound skips every later member unbuilt, with its reason; an
    orbit with a map past the quick bound is built member by member."""
    # one candidate per element of the character group of (O_K/cond)^*
    rg = residue_group(s.disc, cond)
    target, indices = _target_expansion(s, bound, indices)
    theta = s.target.theta
    quick = min(QUICK_PRUNE_BOUND, bound)
    quick_indices = [n for n in indices if n <= quick]
    decided = {}  # each later member of a refused or pruned orbit -> its skip reason
    for fp in product(*(range(n) for n in rg.orders)):
        label = {"finite_part": list(fp)}
        if fp in decided:
            diagnostics.append({**label, "skipped": decided.pop(fp)})
            continue
        try:
            chi = build_hecke_char(
                s.disc, s.weight, cond, fp, "canonical", avoid_primes=(s.ell,)
            )
            if reduction_count(chi, s.ell) > SEARCH_MAP_CAP:
                raise ValueError("reduction fan-out above cap")
            maps = build_reductions(chi, s.ell)
            if not maps:
                raise ValueError("no reduction map into F_ell or F_ell^2")
        except ValueError as exc:
            skipped = str(exc)
        else:
            rows = prime_table(chi.D, cond, chi.class_ideals, quick)
            surviving = [m for m in maps if next(
                _mismatches(rows, m, theta, target, quick, quick_indices), None) is None]
            skipped = None if surviving else "pruned at the quick bound"
        if skipped is not None:
            diagnostics.append({**label, "skipped": skipped})
            w = rg.character_order(fp)
            decided.update((tuple(c * e % n for e, n in zip(fp, rg.orders)), skipped)
                           for c in range(2, w) if gcd(c, w) == 1)
            continue
        rows = prime_table(chi.D, cond, chi.class_ideals, bound)
        for m in surviving:
            first = next(_mismatches(rows, m, theta, target, bound, indices), None)
            if first is None:
                yield chi, m, CongruenceReport(s.ell, m.describe(), bound, len(indices), (), True)
            else:
                diagnostics.append({**label, "map": m.describe(), "failed_at": first[0]})


def search_matching_char(s: Scenario):
    """Every matching (character, reduction map, report) triple of the search,
    in candidate order, plus the skip diagnostics of the other candidates."""
    _, cond, bound, indices = _scenario_setup(s)
    diagnostics = []
    return list(_search_matches(s, cond, bound, indices, diagnostics)), diagnostics


def run_scenario(s: Scenario) -> RunResult:
    """Serre prediction plus the verification report for the scenario.

    A search stops at its first match, the first entry of `search_matching_char`,
    else reports an empty false comparison.  An explicit character is compared
    under every reduction map up to the first match, else reports the first map;
    with no map into F_ell or F_{ell^2} it reports the empty false comparison."""
    datum, cond, bound, indices = _scenario_setup(s)
    # the nebentypus tables span its modulus: refuse it before any of them
    L = lcm(cond.norm(), abs(s.disc))
    if L > DISC_CAP:
        raise ValueError(f"nebentypus modulus {L} exceeds the cap of {DISC_CAP}")
    empty = CongruenceReport(s.ell, None, bound, 0, (), False)
    if s.char == "search":
        chi, rmap, report = next(_search_matches(s, cond, bound, indices, []),
                                 (None, None, empty))
    else:
        chi = build_hecke_char(
            s.disc,
            s.weight,
            cond,
            s.char["finite_part"],
            s.char.get("class_part", "canonical"),
            avoid_primes=(s.ell,),
        )
        target, indices = _target_expansion(s, bound, indices)
        maps = build_reductions(chi, s.ell)
        rmap, report = None, empty
        if maps:
            rows = prime_table(chi.D, cond, chi.class_ideals, bound)
            for rmap in maps:
                if next(_mismatches(rows, rmap, s.target.theta, target, bound, indices),
                        None) is None:
                    mism = ()
                    break
            else:
                rmap = maps[0]
                mism = tuple(_mismatches(rows, rmap, s.target.theta, target, bound, indices))
            report = CongruenceReport(s.ell, rmap.describe(), bound, len(indices), mism,
                                      not mism)
    neb = None if chi is None else nebentypus(chi)[0].conductor()
    return RunResult(predict_invariants(datum, neb), report, chi, rmap)
