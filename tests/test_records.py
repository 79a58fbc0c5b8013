"""Records behave as frozen value types: field-wise equality, the hash of
the field tuple, a repr that names every field, positional ``match``,
no assignment, and the validations of their constructors."""

import pytest

from decrv import ltl, traceio
from decrv.registry import SpecError
from decrv.simulator import DeliveryPolicy, SimulationError

P = ltl.Prop("p")


def test_equality_is_by_class_and_fields():
    assert ltl.Prop("a") == ltl.Prop("a")
    assert ltl.And(P, ltl.Prop("q")) == ltl.parse("p & q")
    assert ltl.Globally(P) != ltl.Finally(P)
    assert ltl.Prop("a") != ("a",)
    assert ltl.And(P, ltl.Prop("q")) != ltl.Or(P, ltl.Prop("q"))
    assert DeliveryPolicy() == DeliveryPolicy("immediate", 0) != DeliveryPolicy("delay", 0)


def test_hash_is_the_hash_of_the_field_tuple():
    assert hash(ltl.Prop("a")) == hash(("a",))
    assert hash(ltl.And(P, ltl.TRUE)) == hash((P, ltl.TRUE))
    assert hash(ltl.FinallyWithin(3, P)) == hash((3, P))
    assert hash(ltl.Not(P)) == hash((P,))
    assert hash(DeliveryPolicy("reorder", 2)) == hash(("reorder", 2))
    assert len({ltl.Globally(P), ltl.Globally(ltl.Prop("p")), ltl.Finally(P)}) == 2


def test_repr_names_every_field():
    f = ltl.parse("G(s -> X(l U !s)) & F<=2 true")
    assert repr(f) == (
        "And(left=Globally(operand=Implies(left=Prop(name='s'), right=Next(operand="
        "Until(left=Prop(name='l'), right=Not(operand=Prop(name='s')))))), "
        "right=FinallyWithin(bound=2, operand=Const(value=True)))"
    )
    assert repr(DeliveryPolicy("reorder", 3)) == "DeliveryPolicy(mode='reorder', delay=3)"
    assert repr(traceio.PollConfig(0, 10, 2)) == "PollConfig(start=0, end=10, interval=2)"


def test_positional_match():
    match ltl.parse("F<=4 (a U b)"):
        case ltl.FinallyWithin(bound, ltl.Until(ltl.Prop(left), ltl.Prop(right))):
            assert (bound, left, right) == (4, "a", "b")
        case _:
            pytest.fail("no match")
    match ltl.parse("x & !y"):
        case ltl.And(ltl.Prop(a), ltl.Not(ltl.Prop(b))):
            assert (a, b) == ("x", "y")
        case _:
            pytest.fail("no match")


@pytest.mark.parametrize(
    "record, field",
    [
        (ltl.Prop("a"), "name"),
        (ltl.And(P, P), "left"),
        (ltl.GloballyWithin(2, P), "bound"),
        (ltl.Not(P), "operand"),
        (DeliveryPolicy(), "delay"),
        (traceio.SensorLog((0,), ("ON",)), "times"),
        (traceio.PollConfig(0, 2, 1), "interval"),
    ],
)
def test_fields_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_constructors_validate():
    with pytest.raises(ValueError, match="negative bound -1"):
        ltl.FinallyWithin(-1, P)
    with pytest.raises(ValueError, match="negative bound -2"):
        ltl.GloballyWithin(-2, P)
    with pytest.raises(SimulationError, match="non-negative"):
        DeliveryPolicy("delay", -1)
    with pytest.raises(SimulationError, match="unknown delivery mode"):
        DeliveryPolicy("teleport")
    with pytest.raises(traceio.SensorDataError, match="not strictly increasing"):
        traceio.SensorLog((2, 1), ("ON", "OFF"))
    with pytest.raises(traceio.SensorDataError, match="interval must be positive"):
        traceio.PollConfig(0, 10, 0)


@pytest.mark.parametrize(
    "cls, values",
    [
        (ltl.Prop, ()),
        (ltl.Prop, ("a", "b")),
        (ltl.And, (P,)),
        (ltl.Not, (P, P)),
        (ltl.Const, (True, False)),
        (ltl.Until, (P, P, P)),
    ],
)
def test_constructor_takes_one_value_per_field(cls, values):
    with pytest.raises(TypeError, match=f"^{cls.__qualname__} takes {len(cls.__match_args__)} values"):
        cls(*values)


def test_validation_errors_share_one_base():
    from decrv.base import ValidationError
    from decrv.memory import ConflictingObservationError

    for cls in (SpecError, SimulationError, ConflictingObservationError):
        assert issubclass(cls, ValidationError) and issubclass(cls, ValueError)
    assert not issubclass(traceio.SensorDataError, ValidationError)
    assert not issubclass(ltl.ParseError, ValidationError)
