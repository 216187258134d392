"""Alternating purchase/adjustment sequences and their invoice totals.

The motivating story: a customer alternates purchases (prices from a set
A) with adjustments (surcharges or discounts from a set B, where 0 means
"no adjustment"), always starting and ending with a purchase.  The
invoice of such a sequence is its plain sum.  The set of achievable
invoice totals, together with 0, is a monoid that honours B as a
constraint set; in fact it is the smallest one containing A, which
verify_theorem5 checks numerically on a window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .closure import _membership, closure_msg
from .errors import BoundTooLarge, InvalidModel, InvalidSequence, ValueOutOfRange
from .monoid import _ascending, _check_ints, _generated, _int_set

# largest m_ab_set bound: the totals list and its bitsets take about
# 0.1 s and 58 MB at 2**20 and grow linearly beyond
_SET_CEILING = 2**20


@dataclass(frozen=True)
class SequenceModel:
    """Validated purchase prices (a_set) and adjustments (b_set).

    Rules: prices are positive and there is at least one; 0 is an
    adjustment (skipping the adjustment step is always allowed); and
    min(a_set) + min(b_set) >= 0, so no prefix of a sequence can owe the
    customer money.
    """

    a_set: tuple[int, ...]
    b_set: tuple[int, ...]

    def __post_init__(self) -> None:
        for name, vals in (("a_set", self.a_set), ("b_set", self.b_set)):
            if not isinstance(vals, tuple):
                object.__setattr__(self, name, tuple(vals))
        a, b = self.a_set, self.b_set
        _check_ints(a + b, "model entries", InvalidModel)
        if not a or a[0] < 1:
            raise InvalidModel("a_set needs at least one positive price")
        if any(x >= y for x, y in zip(a, a[1:])) or any(x >= y for x, y in zip(b, b[1:])):
            raise InvalidModel("model sets must be strictly increasing; use SequenceModel.of")
        if 0 not in b:
            raise InvalidModel("b_set must contain 0 (the no-adjustment step)")
        if a[0] + b[0] < 0:
            raise InvalidModel(
                f"min price {a[0]} plus min adjustment {b[0]} is negative; "
                "a two-step prefix could owe the customer money"
            )

    @classmethod
    def of(cls, a_set: Iterable[int], b_set: Iterable[int]) -> "SequenceModel":
        return cls(*(_int_set(vals, "model entries", InvalidModel) for vals in (a_set, b_set)))


def is_ab_sequence(model: SequenceModel, xs: Sequence[int]) -> bool:
    """Is xs an alternating purchase/adjustment sequence?

    Odd length, odd positions (1st, 3rd, ...) drawn from the prices, even
    positions from the adjustments, all plain integers.  The empty list
    has even length 0 and is not a sequence.  The rules are invoice's.
    """
    try:
        invoice(model, xs)
    except (InvalidSequence, ValueOutOfRange):
        return False
    return True


def invoice(model: SequenceModel, xs: Sequence[int]) -> int:
    """Sum of a valid sequence; rejects anything else with a 1-indexed diagnosis.

    Entries must be plain integers: a float or bool raises InvalidSequence
    even when it compares equal to a price or adjustment.
    """
    if len(xs) % 2 == 0:
        raise InvalidSequence(f"sequence length must be odd, got {len(xs)}")
    _check_ints(tuple(xs), "sequence entries", InvalidSequence)
    a = set(model.a_set)
    b = set(model.b_set)
    for i, v in enumerate(xs):
        pool, kind = (a, "price") if i % 2 == 0 else (b, "adjustment")
        if v not in pool:
            raise InvalidSequence(f"position {i + 1}: {v} is not a valid {kind}")
    return sum(xs)


def m_ab_membership(model: SequenceModel, n: int) -> bool:
    """Is n the invoice of some sequence (or 0)?

    A multiset of p prices and p - 1 adjustments can always be arranged
    alternately, so membership is a counting question: n must be a sum
    using exactly one more price than adjustments.  closure_membership
    accepts any surplus of prices, which is the same thing here because
    padding with the 0 adjustment lowers any larger surplus to exactly 1.
    So the totals are the smallest closure of a_set under b_set minus
    zero (Theorem 5), and closure's membership engine answers after one
    check of n: the model's rules already admit its prices (min >= theta).
    """
    _check_ints((n,), "membership targets")
    return _membership(model.a_set, tuple(v for v in model.b_set if v), n, model.b_set)


def m_ab_set(model: SequenceModel, bound: int) -> list[int]:
    """All invoice totals in [0, bound], plus 0, ascending.

    A total of p prices and p - 1 adjustments is one price plus p - 1
    price/adjustment pairs.  Each pair is at least min(a_set) +
    min(b_set) >= 0, pairs equal to 0 drop out, and any such choice can
    be laid out alternately.  So the totals are 0 and a_set + <P>, where
    P holds the positive pair sums (the prices among them, paired with
    the 0 adjustment); both are built as bitsets on [0, bound].  A bound
    above _SET_CEILING raises BoundTooLarge before anything is built.
    """
    _check_ints((bound,), "bounds")
    if bound < 0:
        return []
    if bound > _SET_CEILING:
        raise BoundTooLarge(f"m_ab_set bounds are capped at 2**20, got {bound}")
    generated = _generated({a + b for a in model.a_set for b in model.b_set} - {0}, bound)
    totals = 1
    for a in model.a_set:
        totals |= generated << a
    return _ascending(totals & ((1 << (bound + 1)) - 1))


def verify_theorem5(model: SequenceModel, bound: int) -> bool:
    """Check on [0, bound] that the invoice totals form the smallest closure.

    Compares m_ab_set against the membership of closure_msg(a_set, b_set
    minus zero); the two engines share only the generated-set builder.
    """
    result = closure_msg(model.a_set, model.b_set)
    totals = set(m_ab_set(model, bound))
    closure_members = {v for v in range(bound + 1) if result.member(v)}
    return totals == closure_members
