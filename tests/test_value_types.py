"""The hand-written value types QuadInt, QuadForm, IdealRep and TeichRep:
equality holds exactly for the same class with the same fields, hashing
agrees with it, the repr is the field listing, arithmetic is not tuple
arithmetic, and IdealRep refuses bad input with its messages and normalises b."""

import pytest
from hypothesis import given, settings, strategies as st

from cmdihedral.charmod import TeichRep
from cmdihedral.qfield import IdealRep, QuadForm, QuadInt, ideals_of_norm

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
