"""The value types, which take equality, hashing and repr from `arith.Record`:
equality holds exactly for the same class with the same fields, the hash is
that of the field tuple, and the repr is the field listing.  For QuadInt,
QuadForm, IdealRep and TeichRep, arithmetic is not tuple arithmetic, and
IdealRep refuses bad input with its messages and normalises b.  A type
that writes no constructor gets one from `Record` that stores its slots in
order.  ClassGroup
and ResidueGroup leave their discrete-log tables, and ResidueGroup its kernel
table, out of all three, the value ring cached per HeckeChar takes no part in
it, and QExpansion is unhashable."""

import inspect

import pytest
from hypothesis import given, settings, strategies as st

from cmdihedral.arith import Record
from cmdihedral.charmod import (HeckeChar, ResidueGroup, TeichRep, build_hecke_char,
                                residue_group, value_ring)
from cmdihedral.congruence import EllipticCurve
from cmdihedral.ffield import FiniteField
from cmdihedral.qfield import (ClassGroup, IdealRep, QuadForm, QuadInt, class_group,
                               ideals_of_norm, primes_above, unit_ideal)
from cmdihedral.qseries import QExpansion
from cmdihedral.serrepred import DihedralDatum, DirichletChar, ramification_case

DISCS = [-3, -4, -7, -8, -23, -71]
ints = st.integers(-50, 50)


def quadints():
    return st.builds(QuadInt, st.sampled_from(DISCS), ints, ints)


def quadforms():
    return st.builds(QuadForm, ints, ints, ints)


def teichreps():
    return st.builds(TeichRep, st.integers(1, 30), st.integers(0, 29))


@st.composite
def idealreps(draw):
    D = draw(st.sampled_from(DISCS))
    n = draw(st.integers(1, 60))
    ideals = ideals_of_norm(D, n)
    if not ideals:
        ideals = ideals_of_norm(D, 1)
    return draw(st.sampled_from(ideals))


def fields(x) -> tuple:
    if isinstance(x, QuadInt):
        return x.D, x.a, x.b
    if isinstance(x, QuadForm):
        return x.a, x.b, x.c
    if isinstance(x, IdealRep):
        return x.D, x.n, x.b, x.content
    return x.m, x.e


NAMES = {QuadInt: ("D", "a", "b"), QuadForm: ("a", "b", "c"),
         IdealRep: ("D", "n", "b", "content"), TeichRep: ("m", "e")}
# the other type with as many integer fields
TWINS = {QuadInt: QuadForm, QuadForm: QuadInt}
values = st.one_of(quadints(), quadforms(), idealreps(), teichreps())


@settings(max_examples=300, deadline=None)
@given(values, values)
def test_equal_exactly_for_same_class_and_fields(x, y):
    same = type(x) is type(y) and fields(x) == fields(y)
    assert (x == y) is same
    assert (x != y) is not same
    if same:
        assert hash(x) == hash(y)
    assert hash(x) == hash(fields(x))
    rebuilt = type(x)(*fields(x))
    assert rebuilt is not x and rebuilt == x and hash(rebuilt) == hash(x)


@settings(max_examples=200, deadline=None)
@given(values)
def test_never_equal_to_a_tuple_or_another_type_with_the_same_numbers(x):
    assert x != fields(x) and fields(x) != x
    assert x != list(fields(x))
    if type(x) in TWINS:
        twin = TWINS[type(x)](*fields(x))
        assert x != twin and twin != x
    assert len({x, fields(x)}) == 2


@settings(max_examples=200, deadline=None)
@given(values)
def test_repr_lists_the_fields(x):
    cls = type(x)
    args = ", ".join(f"{name}={v!r}" for name, v in zip(NAMES[cls], fields(x)))
    assert repr(x) == f"{cls.__name__}({args})"


@given(quadints(), quadints())
def test_quadint_sum_is_not_tuple_concatenation(x, y):
    with pytest.raises(TypeError):
        x + y


@settings(max_examples=200, deadline=None)
@given(idealreps(), st.integers(-5, 5))
def test_idealrep_normalises_b_into_half_open_window(a, k):
    shifted = IdealRep(a.D, a.n, a.b + 2 * a.n * k, a.content)
    assert shifted == a and hash(shifted) == hash(a)
    assert -a.n < shifted.b <= a.n


@pytest.mark.parametrize("args,message", [
    ((-23, 0, 1), "ideal parts must be positive"),
    ((-23, -6, 1), "ideal parts must be positive"),
    ((-23, 6, 1, 0), "ideal parts must be positive"),
    ((-23, 6, 1, -2), "ideal parts must be positive"),
    ((-23, 6, 2), r"b\^2 != D mod 4n"),
    ((-4, 2, 1), r"b\^2 != D mod 4n"),
    ((-71, 71, 70), r"b\^2 != D mod 4n"),
])
def test_idealrep_refuses_bad_input(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        IdealRep(*args)


# The other value types, each built from fields mixed across real instances
# (or, for the two whose constructors check their input, from valid ones), so
# that two draws share some fields and differ in others.

RECORD_FIELDS = {
    ClassGroup: ("D", "reps", "gens", "orders"),
    ResidueGroup: ("D", "modulus", "gens", "orders"),
    HeckeChar: ("D", "k", "cond", "rg", "fp", "w", "zeta_exps", "class_ideals",
                "class_betas", "class_part", "class_zetas"),
    EllipticCurve: ("a1", "a2", "a3", "a4", "a6"),
    DihedralDatum: ("ell", "D", "k", "cond_away", "case"),
    DirichletChar: ("modulus", "order", "exps"),
    QExpansion: ("ring", "coeffs", "weight", "level"),
}
P23, P71 = IdealRep(-23, 23, 23), IdealRep(-71, 71, 71)
REAL = {
    ClassGroup: [class_group(D) for D in DISCS],
    ResidueGroup: [residue_group(D, f) for D, f in [
        (-23, unit_ideal(-23)), (-23, P23), (-71, P71), (-7, IdealRep(-7, 2, 1)),
        (-4, IdealRep(-4, 5, 4)), (-3, IdealRep(-3, 1, 1, 2))]],
    HeckeChar: [build_hecke_char(-23, 12, P23, [11]), build_hecke_char(-23, 12, P23, [1]),
                build_hecke_char(-23, 12, P23, [3]), build_hecke_char(-71, 2, P71, [35])],
    DirichletChar: [DirichletChar.trivial(12), DirichletChar.kronecker_char(-4, 12),
                    DirichletChar.kronecker_char(-3, 12), DirichletChar.kronecker_char(-23, 23),
                    DirichletChar.from_gen_values(29, 28, [1]),
                    DirichletChar.from_gen_values(29, 7, [4])],
    QExpansion: [QExpansion("int", [0, 1, -24, 252], 12, 1),
                 QExpansion("int", [0, 1, -24], 12, 1),
                 QExpansion(FiniteField(7, 1), [0, 1, 3], 2, 71),
                 QExpansion("int", [0, 1, -24, 252], 2, 71)],
}


def _dlogs():
    return st.sampled_from([{}, {"x": (1,)}, {QuadForm(1, 1, 6): (0,)}])


def _kernels():
    return st.sampled_from([(), ((2, ((1,),)),), ((71, ((0,), (1,))),)])


def _mixed(cls):
    pools = [st.sampled_from([getattr(x, name) for x in REAL[cls]])
             for name in RECORD_FIELDS[cls]]
    tables = {ClassGroup: [_dlogs()], ResidueGroup: [_dlogs(), _kernels()]}.get(cls, [])
    return st.tuples(*pools, *tables).map(lambda args: cls(*args))


def _curve(coeffs):
    try:
        return EllipticCurve(*coeffs)
    except ValueError:
        return None


def _datums():
    out = []
    for ell in (5, 7, 11, 23):
        for D in DISCS:
            for k in range(2, ell):
                for away in (unit_ideal(D), *ideals_of_norm(D, 2), *ideals_of_norm(D, 3)):
                    try:
                        case = ramification_case(ell, primes_above(D, ell).kind, k)
                        out.append(DihedralDatum(ell, D, k, away, case))
                    except ValueError:
                        pass
    return out


records = st.one_of(
    *[_mixed(cls) for cls in REAL],
    st.tuples(*[st.integers(-2, 2)] * 5).map(_curve).filter(lambda E: E is not None),
    st.sampled_from(_datums()),
)


def record_fields(x) -> tuple:
    return tuple(getattr(x, name) for name in RECORD_FIELDS[type(x)])


# the tables a class holds outside its fields, passed to its constructor after them
TABLES = {ClassGroup: ("_dlog",), ResidueGroup: ("_dlog", "_kernels")}


def rebuilt(x):
    return type(x)(*record_fields(x), *(getattr(x, name) for name in TABLES.get(type(x), ())))


@settings(max_examples=400, deadline=None)
@given(records, records)
def test_records_equal_exactly_for_same_class_and_fields(x, y):
    same = type(x) is type(y) and record_fields(x) == record_fields(y)
    assert (x == y) is same
    assert (x != y) is not same
    assert x != record_fields(x) and record_fields(x) != x
    copy = rebuilt(x)
    assert copy is not x and copy == x
    if type(x) is QExpansion:
        return
    assert hash(x) == hash(record_fields(x)) == hash(copy)
    if same:
        assert hash(x) == hash(y)


@settings(max_examples=200, deadline=None)
@given(records)
def test_record_repr_lists_the_fields(x):
    cls = type(x)
    args = ", ".join(f"{name}={getattr(x, name)!r}" for name in RECORD_FIELDS[cls])
    assert repr(x) == f"{cls.__name__}({args})"


@pytest.mark.parametrize("cls", [ClassGroup, ResidueGroup])
def test_dlog_takes_no_part_in_equality_hash_or_repr(cls):
    junk = {"_dlog": {"not": "a dlog"}, "_kernels": ((5, "not a kernel"),)}
    for x in REAL[cls]:
        other = cls(*record_fields(x), *(junk[name] for name in TABLES[cls]))
        assert other == x and hash(other) == hash(x) and repr(other) == repr(x)
        assert not any(name in repr(x) for name in TABLES[cls])
        twin = {ClassGroup: ResidueGroup, ResidueGroup: ClassGroup}[cls]
        assert twin(*record_fields(x), *(junk[name] for name in TABLES[twin])) != x


def test_hecke_char_ring_takes_no_part():
    for chi in REAL[HeckeChar]:
        copy = rebuilt(chi)
        value_ring(chi)
        assert copy == chi and hash(copy) == hash(chi) and repr(copy) == repr(chi)


def test_qexpansion_is_unhashable():
    for f in REAL[QExpansion]:
        with pytest.raises(TypeError):
            hash(f)


# the value types whose constructor validates, normalises or derives; Record
# writes the constructor of every other one
HAND_WRITTEN = {IdealRep, EllipticCurve, DirichletChar, DihedralDatum}
RECORDS = [cls for cls in Record.__subclasses__() if cls.__module__.startswith("cmdihedral.")]
GENERATED = [cls for cls in RECORDS if cls not in HAND_WRITTEN]


def test_record_writes_the_constructor_of_each_type_that_only_stores():
    assert {cls.__name__ for cls in GENERATED} == {
        "QuadInt", "QuadForm", "ClassGroup", "ResidueGroup", "TeichRep", "HeckeChar",
        "QExpansion"}
    for cls in RECORDS:
        init = vars(cls)["__init__"]
        assert init.__qualname__ == f"{cls.__qualname__}.__init__"
        assert init.__module__ == cls.__module__
        assert (init.__code__.co_filename == "<string>") is (cls not in HAND_WRITTEN)


@pytest.mark.parametrize("cls", GENERATED, ids=lambda cls: cls.__name__)
def test_generated_constructor_takes_and_stores_each_slot(cls):
    assert tuple(inspect.signature(cls.__init__).parameters) == ("self", *cls.__slots__)
    args = [object() for _ in cls.__slots__]
    x = cls(*args)
    assert all(getattr(x, name) is arg for name, arg in zip(cls.__slots__, args))
    for wrong in (args[:-1], [*args, object()], []):
        with pytest.raises(TypeError):
            cls(*wrong)


@settings(max_examples=200, deadline=None)
@given(idealreps())
def test_idealrep_stores_its_w_offset(a):
    assert a._mp == (a.b - a.D % 2) // 2
    assert IdealRep(a.D, a.n, a.b + 2 * a.n, a.content)._mp == a._mp
