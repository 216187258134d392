"""Exact arithmetic for finitely generated submonoids of (N, +).

A submonoid is always described by a finite set of positive integer
generators.  Everything runs on plain Python integers, bitsets included;
no floating point appears anywhere in the library.

Conventions:

* Generating sets are sorted, deduplicated, and strictly positive.  The
  trivial monoid {0} is deliberately not a GenSet; the few callers that
  can produce it (closure of an empty seed set, the divisor report) say
  so with an explicit marker instead of smuggling an empty list through.
* A numerical semigroup (gcd of the generators equal to 1, hence finite
  complement in N) carries its minimal generators, Frobenius number and
  gap set.  The gap set is one Python int whose bit v is set iff v is a
  gap, so membership is a bit test and removing a generator x above the
  Frobenius number is `gap_bits | 1 << x`.  For N itself the Frobenius
  number is -1 and the gap set is 0.
* Inputs are capped at 2**31 in absolute value so that sums of a handful
  of elements stay inside machine range wherever these values end up
  serialized or ported.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterable

from .errors import BoundTooLarge, GcdNotOne, InternalInvariant, InvalidGenerators, ValueOutOfRange

MAX_INPUT = 2**31

# one-shot membership queries above this build the Frobenius-bounded
# table instead of a table up to n itself
_TABLE_CEILING = 1_000_000

# largest limit _generated builds a set for; there one doubling step takes
# ~2 ms, and <3,5> (45 steps) 0.09 s with 13 MB more peak RSS (2-core VM, Python 3.11)
_GENERATED_CEILING = 2**24

_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _bitmask(values: Iterable[int]) -> int:
    """The int with bit v set for each v in values (non-negative).

    Setting bits in a bytearray keeps this linear in the largest value; a
    sum of shifts would copy an ever wider int per value.
    """
    vals = tuple(values)
    if not vals:
        return 0
    buf = bytearray((max(vals) >> 3) + 1)
    for v in vals:
        buf[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(buf, "little")


def _check_ints(values: tuple[int, ...], what: str, error: type = InvalidGenerators) -> None:
    """The one integer check: error on a bool or non-int, ValueOutOfRange above 2**31."""
    # screen at C level; the per-element loop runs only to name the
    # first offending value, or to admit int subclasses other than bool
    if (
        set(map(type, values)) == {int}
        and min(values) >= -MAX_INPUT
        and max(values) <= MAX_INPUT
    ):
        return
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise error(f"{what} must be plain integers, got {v!r}")
        if abs(v) > MAX_INPUT:
            raise ValueOutOfRange(f"{what} are capped at 2**31 in magnitude, got {v}")


def _int_set(values: Iterable[int], what: str, error: type = InvalidGenerators) -> tuple[int, ...]:
    """Validate raw integers with _check_ints, then sort and deduplicate them.

    Validating first keeps True from merging into 1 and a non-integer
    from reaching the sort.
    """
    vals = tuple(values)
    _check_ints(vals, what, error)
    return tuple(sorted(set(vals)))


@dataclass(frozen=True, slots=True)
class GenSet:
    """Sorted, deduplicated, non-empty positive generators of a submonoid.

    Use monoid_from_generators to normalize raw user input; constructing
    a GenSet directly requires the elements to be strictly increasing
    already.
    """

    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.elements, tuple):
            object.__setattr__(self, "elements", tuple(self.elements))
        elems = self.elements
        if not elems:
            raise InvalidGenerators(
                "a generating set needs at least one element; "
                "the trivial monoid {0} is represented explicitly by its callers"
            )
        _check_ints(elems, "generators")
        if elems[0] < 1:
            raise InvalidGenerators(f"generators must be >= 1, got {elems[0]}")
        if not all(map(operator.lt, elems, elems[1:])):
            raise InvalidGenerators(
                "generators must be strictly increasing; "
                "use monoid_from_generators to sort and deduplicate"
            )

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __str__(self) -> str:
        return "⟨" + ",".join([str(g) for g in self.elements]) + "⟩"


def monoid_from_generators(gens: Iterable[int]) -> GenSet:
    """Sort, deduplicate, and validate raw generators."""
    return GenSet(_int_set(gens, "generators"))


def _as_genset(gens: GenSet | Iterable[int]) -> GenSet:
    return gens if isinstance(gens, GenSet) else monoid_from_generators(gens)


def gcd_of(gens: GenSet | Iterable[int]) -> int:
    """Greatest common divisor of the generators."""
    return math.gcd(*_as_genset(gens).elements)


def _generated(elements: Iterable[int], limit: int) -> int:
    """Bitset of the monoid the positive elements generate, cut at limit.

    Bit v is set iff 0 <= v <= limit is a sum of the elements.  This is
    the one builder of generated sets in the library.  A limit above
    _GENERATED_CEILING raises BoundTooLarge before anything is allocated.
    """
    if limit > _GENERATED_CEILING:
        raise BoundTooLarge(f"generated sets are capped at 2**24 values, got limit {limit}")
    mask = (1 << (limit + 1)) - 1
    bits = 1
    for g in elements:
        # doubling steps reach every multiple of g up to limit
        step = g
        while step <= limit:
            bits = (bits | bits << step) & mask
            step <<= 1
    return bits


def _byte_table(bits: int, length: int) -> bytes:
    """Entry v is bit v of bits, for v in [0, length); bits < 2**length."""
    return format(bits, "b").zfill(length)[::-1].encode().translate(_DIGIT_BYTES)


def _ascending(bits: int) -> list[int]:
    """The positions of the set bits, ascending."""
    return [v for v, ch in enumerate(bin(bits)[:1:-1]) if ch == "1"]


def membership(gens: GenSet | Iterable[int], n: int) -> bool:
    """Decide whether n is a non-negative combination of the generators.

    Negative n is never a member.  Up to _TABLE_CEILING, n is read off the
    generated set up to n.  Beyond it, for generators with gcd d the
    question reduces to n/d against the divided generators (and is false
    outright when d does not divide n), whose numerical semigroup answers.
    """
    g = _as_genset(gens)
    _check_ints((n,), "membership targets")
    if n < g.elements[0]:
        return n == 0
    if n <= _TABLE_CEILING:
        return bool(_generated(g.elements, n) >> n)
    d = gcd_of(g)
    if n % d:
        return False
    return n // d in numerical_semigroup(GenSet(tuple(e // d for e in g.elements)))


def msg(gens: GenSet | Iterable[int]) -> GenSet:
    """Minimal system of generators of the monoid the input generates.

    A generator survives iff it is not a sum of two non-zero members; the
    survivors are the unique minimal generating set.  Generators with a
    common divisor d are minimized at scale 1/d and scaled back, which
    keeps the tables small.
    """
    g = _as_genset(gens)
    elems = g.elements
    if len(elems) == 1:
        return g
    d = gcd_of(g)
    if d > 1:
        reduced = msg(GenSet(tuple(e // d for e in elems)))
        return GenSet(tuple(e * d for e in reduced.elements))
    table = _byte_table(_generated(elems, elems[-1]), elems[-1] + 1)
    keep = tuple(
        v
        for v in elems
        if not any(table[a] and table[v - a] for a in range(1, v // 2 + 1))
    )
    return GenSet(keep)


@dataclass(frozen=True, eq=False, slots=True)
class NumericalSemigroup:
    """A cofinite submonoid of (N, +): minimal generators plus a gap bitset.

    Bit v of gap_bits is set iff v is a gap, so the Frobenius number is
    gap_bits.bit_length() - 1 and every larger integer is a member.  For
    N itself gap_bits is 0 and the Frobenius number is -1.  gen_bits is
    the same kind of mask for the minimal generators, computed once at
    construction (or handed over by _derived, for records derived from a
    parent).  gaps, member_table (bytes over [0, frobenius + 1]) and
    genus are derived from gap_bits on demand.  Equality and hashing go
    through the minimal generators, which determine the semigroup.
    """

    msg: GenSet
    frobenius: int
    gap_bits: int
    gen_bits: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        gen_bits = _bitmask(self.msg.elements)
        object.__setattr__(self, "gen_bits", gen_bits)
        _check_bits(self.frobenius, self.gap_bits, gen_bits)

    @classmethod
    def _derived(
        cls, elements: tuple[int, ...], frobenius: int, gap_bits: int, gen_bits: int
    ) -> "NumericalSemigroup":
        """Trusted constructor for records derived from an already valid one.

        The caller guarantees that elements are strictly increasing
        positive ints and that gen_bits is their mask, so GenSet's checks
        and _bitmask are skipped; the three bit invariants of _check_bits
        are still checked.  The slots are filled through the member
        descriptors, which skip the frozen __setattr__ and cost less than
        object.__setattr__.
        """
        _check_bits(frobenius, gap_bits, gen_bits)
        gens = object.__new__(GenSet)
        _SET_ELEMENTS(gens, elements)
        sg = object.__new__(cls)
        _SET_MSG(sg, gens)
        _SET_FROBENIUS(sg, frobenius)
        _SET_GAP_BITS(sg, gap_bits)
        _SET_GEN_BITS(sg, gen_bits)
        return sg

    def __contains__(self, n: int) -> bool:
        return n >= 0 and not self.gap_bits >> n & 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self.msg.elements == other.msg.elements

    def __hash__(self) -> int:
        return hash(self.msg.elements)

    @property
    def gaps(self) -> tuple[int, ...]:
        """The gaps in ascending order."""
        return tuple(_ascending(self.gap_bits))

    @property
    def member_table(self) -> bytes:
        """Entry v is 1 iff v is a member, for v in [0, frobenius + 1]."""
        size = self.frobenius + 2
        return _byte_table(~self.gap_bits & ((1 << size) - 1), size)

    @property
    def genus(self) -> int:
        return self.gap_bits.bit_count()

    @property
    def multiplicity(self) -> int:
        return self.msg.elements[0]

    def elements_upto(self, bound: int) -> list[int]:
        """All members in [0, bound]."""
        return _ascending(~self.gap_bits & ((1 << max(bound + 1, 0)) - 1))

    def __str__(self) -> str:
        return str(self.msg)


def _check_bits(frobenius: int, gap_bits: int, gen_bits: int) -> None:
    """The invariants every semigroup record keeps: three bit tests.

    Raises InternalInvariant naming the first one broken.
    """
    if frobenius != gap_bits.bit_length() - 1:
        raise InternalInvariant(
            f"frobenius {frobenius} does not match gap set {tuple(_ascending(gap_bits))}"
        )
    if gap_bits & 1:
        raise InternalInvariant("0 is a member of every monoid, not a gap")
    if gen_bits & gap_bits:
        raise InternalInvariant("a minimal generator cannot be a gap")


# slot setters of the frozen records, for NumericalSemigroup._derived
_SET_ELEMENTS = GenSet.elements.__set__
_SET_MSG = NumericalSemigroup.msg.__set__
_SET_FROBENIUS = NumericalSemigroup.frobenius.__set__
_SET_GAP_BITS = NumericalSemigroup.gap_bits.__set__
_SET_GEN_BITS = NumericalSemigroup.gen_bits.__set__


def numerical_semigroup(gens: GenSet | Iterable[int]) -> NumericalSemigroup:
    """Build the full numerical-semigroup record for gcd-1 generators.

    The generated set is grown until its last multiplicity-many values
    are all members; every larger value is then a member too, so the
    gaps are the non-members below that run and the largest of them is
    the Frobenius number.  A semigroup whose run does not appear by
    _GENERATED_CEILING raises BoundTooLarge.
    """
    g = _as_genset(gens)
    d = gcd_of(g)
    if d != 1:
        raise GcdNotOne(f"gcd of {g} is {d}; the complement in N is infinite")
    mg = msg(g)
    elems = mg.elements
    m = elems[0]
    limit = min(2 * elems[-1], _GENERATED_CEILING)
    while True:
        bits = _generated(elems, limit)
        if bits >> (limit - m + 1) == (1 << m) - 1:
            gap_bits = ~bits & ((1 << (limit + 1)) - 1)
            return NumericalSemigroup(mg, gap_bits.bit_length() - 1, gap_bits)
        if limit == _GENERATED_CEILING:
            raise BoundTooLarge(
                f"{mg} needs a generated set past 2**24 values to find its Frobenius "
                "number; generated sets are capped at 2**24"
            )
        limit = min(2 * limit, _GENERATED_CEILING)
