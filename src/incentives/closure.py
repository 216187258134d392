"""Adjustment constraints and smallest-closure computations.

A constraint set C is a finite set of integer adjustments.  A submonoid M
of (N, +) honours C when s + t + c lands back in M for every pair of
non-zero members s, t and every c in C.  This module decides which seed
sets admit such a monoid at all and computes the smallest one two
independent ways:

* closure_msg runs a fixpoint on generating sets: adjoin every value
  (pair sum) + c for pair sums not seen before, re-minimize, and stop
  when the minimal generating set is stable;
* closure_membership runs a reachability dynamic program: n belongs to
  the closure iff n is a sum of seed elements and adjustments in which
  the seed elements strictly outnumber the adjustments.

The offset threshold theta = -min(C ∪ {0}) rules the geometry.  Every
monoid honouring C either lives inside {0, theta, theta+1, ...} or is
exactly the multiples of theta/2, and the multiples of theta/2 qualify
only when every adjustment is such a multiple with factor >= -2.  That
dichotomy is what _admitted checks, and it splits _reduced, the one
reduction in front of both engines, into two exclusive cases.  Seeds
below the threshold close up to theta/2 times N, and otherwise the gcd d
of seeds and adjustments divides out, leaving seeds and adjustments whose
closure is numerical (it holds every seed x and every 2x + c); either way
the closure is scale times that numerical closure.  Below the reduction
the two engines share nothing.

Zero adjustments are inert: a monoid honours C exactly when it honours C
minus {0}.  IncentiveSpec.shifts is C minus {0}, the adjustments the pair
test, both engines and the tree read; under {0}, whose shifts are empty,
every submonoid qualifies and the closure of a seed set is just the
monoid it generates.  Messages name c_set, the set as given.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

from .errors import BoundTooLarge, InternalInvariant, InvalidGenerators, NotAdmissible
from .monoid import (
    _GENERATED_CEILING,
    MAX_INPUT,
    GenSet,
    NumericalSemigroup,
    _as_genset,
    _check_ints,
    _byte_table,
    _generated,
    _int_set,
    monoid_from_generators,
    msg,
    numerical_semigroup,
)

# kinds of closure result
TRIVIAL = "trivial"
NUMERICAL = "numerical"
MULTIPLE = "multiple"

ITERATION_CAP = 10_000


def _braced(values: Iterable[int]) -> str:
    return "{" + ",".join(map(str, values)) + "}"


@dataclass(frozen=True)
class IncentiveSpec:
    """A constraint set: sorted, deduplicated, non-empty adjustments.

    theta (the offset threshold) and shifts (c_set without the inert 0)
    are derived once, at construction.
    """

    c_set: tuple[int, ...]
    theta: int = field(init=False)
    shifts: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.c_set, tuple):
            object.__setattr__(self, "c_set", tuple(self.c_set))
        cs = self.c_set
        if not cs:
            raise InvalidGenerators("a constraint set needs at least one adjustment")
        _check_ints(cs, "adjustments")
        if not all(map(operator.lt, cs, cs[1:])):
            raise InvalidGenerators("adjustments must be strictly increasing; use IncentiveSpec.of")
        object.__setattr__(self, "theta", -min(cs + (0,)))
        # the conditional keeps a zero-free set's tuple, the common case, uncopied
        object.__setattr__(self, "shifts", cs if 0 not in cs else tuple(v for v in cs if v))

    @classmethod
    def of(cls, values: Iterable[int]) -> "IncentiveSpec":
        return cls(_int_set(values, "adjustments"))

    def __str__(self) -> str:
        return _braced(self.c_set)


def _as_spec(c: "IncentiveSpec | Iterable[int]") -> IncentiveSpec:
    return c if isinstance(c, IncentiveSpec) else IncentiveSpec.of(c)


def theta(c: IncentiveSpec | Iterable[int]) -> int:
    """Offset threshold of a constraint set: -min(C ∪ {0})."""
    return _as_spec(c).theta


def is_incentive(gens: GenSet | Iterable[int], c: IncentiveSpec | Iterable[int]) -> bool:
    """Does the monoid generated by gens honour every adjustment?

    The pair test suffices: the monoid qualifies iff n_i + n_j + c stays a
    member for every pair of generators (i <= j) and every adjustment c.
    Any generating set works; a minimal one just makes fewer pairs.

    With d the gcd of gens, every multiple of d from (a_1 - 1)(a_k - 1)
    on is a member (Schur's bound on the Frobenius number), and so is
    every value above a_k - a_1 when gens meet every residue mod a_1
    (Selmer: the Frobenius number is the largest Apery element minus
    a_1), as the root {theta, ..., 2 * theta - 1} does.  The membership
    table stops at the smaller bound or at the largest value tested, and a
    pair whose sum plus min(C) lies past the table's last non-member
    passes every adjustment unread.  An adjustment that is not a multiple
    of d fails every pair.
    """
    g = _as_genset(gens)
    shifts = _as_spec(c).shifts
    if not shifts:
        return True
    elems = g.elements
    m = elems[0]
    limit = min(2 * elems[-1] + max(shifts[-1], 0), (m - 1) * (elems[-1] - 1))
    if len(elems) >= m and len({e % m for e in elems}) == m:
        limit = min(limit, elems[-1] - m)
    table = _byte_table(_generated(elems, limit), limit + 1)
    d = math.gcd(*elems)
    if any(cc % d for cc in shifts):
        return False
    top = table.rfind(0) - shifts[0]  # pair sums above it pass every adjustment
    for i, a in enumerate(elems):
        if 2 * a > top:
            break
        for b in elems[i:]:
            if a + b > top:
                break
            for cc in shifts:
                v = a + b + cc
                if v < 0 or v <= limit and not table[v]:
                    return False
    return True


def half_theta_is_incentive(c: IncentiveSpec | Iterable[int]) -> bool:
    """Do the multiples of theta/2 honour the constraint set?

    True iff theta is even and positive and every adjustment is a multiple
    k * (theta/2) with k >= -2.  (Factors -2 and -1 are the only negative
    ones a sum of two members can absorb without leaving the multiples.)
    """
    spec = _as_spec(c)
    th = spec.theta
    if th == 0 or th % 2:
        return False
    half = th // 2
    return all(v % half == 0 and v // half >= -2 for v in spec.c_set)


def _admitted(x_set: Iterable[int], spec: IncentiveSpec) -> tuple[int, ...]:
    """Normalize a seed set, or raise NotAdmissible when no monoid honouring spec contains it.

    Normalizing requires non-negative integers and drops zeros.  Every
    entry point that takes seeds goes through here once; the
    admissibility rule is is_admissible's.
    """
    xs = _int_set(x_set, "seed elements")
    if xs and xs[0] < 0:
        raise InvalidGenerators(f"seed elements must be non-negative, got {xs[0]}")
    xs = tuple(v for v in xs if v)
    th = spec.theta
    if xs and xs[0] < th:
        half = th // 2
        if not (half_theta_is_incentive(spec) and all(v % half == 0 for v in xs)):
            raise NotAdmissible(f"no monoid honouring {spec} contains {set(xs)}")
    return xs


def is_admissible(x_set: Iterable[int], c: IncentiveSpec | Iterable[int]) -> bool:
    """Is there any submonoid honouring the constraints that contains the seeds?

    Zeros in the seed set are ignored (0 is in every monoid).  The empty
    seed set is admissible: the trivial monoid {0} contains it.  Otherwise
    the seeds must lie at or above the threshold, or fit inside the
    multiples of theta/2 while those multiples themselves qualify.
    """
    try:
        _admitted(x_set, _as_spec(c))
    except NotAdmissible:
        return False
    return True


def _reduced(
    xs: tuple[int, ...], cs: tuple[int, ...]
) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(scale, seeds, adjustments) whose numerical closure, times scale, is the closure asked for.

    xs must be admitted under the adjustments cs and non-empty.  Seeds
    below the threshold give (theta/2, (1,), ()); otherwise the gcd of
    seeds and adjustments is divided out (math.gcd ignores signs); at
    gcd 1 the inputs come back unchanged, not copied.
    """
    th = -min(cs + (0,))
    if xs[0] < th:
        return th // 2, (1,), ()
    d = math.gcd(*xs, *cs)
    if d == 1:
        return 1, xs, cs
    return d, tuple(x // d for x in xs), tuple(v // d for v in cs)


@dataclass(frozen=True)
class ClosureResult:
    """Smallest monoid honouring the constraints and containing the seeds.

    kind is "trivial" (empty seed set, closure {0}), "numerical" (the
    closure has finite complement), or "multiple" (every element shares
    the factor scale > 1).  msg holds the minimal generators of the
    closure itself, already scaled; it is None only for the trivial kind.
    semigroup is the reduced gcd-1 semigroup, i.e. the closure divided by
    scale; for the numerical kind that is the closure itself.
    """

    kind: str
    scale: int
    msg: GenSet | None
    semigroup: NumericalSemigroup | None

    def member(self, n: int) -> bool:
        """Membership of n in the closure."""
        if self.kind == TRIVIAL:
            return n == 0
        if n < 0:
            return False
        if n % self.scale:
            return False
        return (n // self.scale) in self.semigroup


def closure_msg(x_set: Iterable[int], c: IncentiveSpec | Iterable[int]) -> ClosureResult:
    """Minimal generators of the smallest monoid honouring c that contains x_set.

    An empty seed set gives the trivial closure.  Otherwise _reduced turns
    the problem into a numerical one at some scale, the generating-set
    fixpoint solves that, and the result is scaled back.
    """
    spec = _as_spec(c)
    xs = _admitted(x_set, spec)
    if not xs:
        return ClosureResult(TRIVIAL, 1, None, None)
    scale, rxs, cs = _reduced(xs, spec.shifts)
    ns = _fixpoint(rxs, cs, min(_GENERATED_CEILING, MAX_INPUT // scale), (xs, spec.c_set))
    if scale == 1:
        return ClosureResult(NUMERICAL, 1, ns.msg, ns)
    scaled = GenSet(tuple(g * scale for g in ns.msg.elements))
    return ClosureResult(MULTIPLE, scale, scaled, ns)


def _past_cap(given: tuple[tuple[int, ...], ...]) -> BoundTooLarge:
    """The refusal of a closure too large to build; given is (seeds, c_set) as admitted."""
    seeds, c_set = given
    return BoundTooLarge(
        f"closing {_braced(seeds)} under {_braced(c_set)} "
        "adjoins values past the closure's size cap"
    )


def _fixpoint(
    xs: tuple[int, ...], cs: tuple[int, ...], cap: int, given: tuple[tuple[int, ...], ...]
) -> NumericalSemigroup:
    """The numerical closure of reduced seeds xs under adjustments cs.

    Each round adjoins {pair sum + c} for previously unseen pair sums of
    the current minimal generators and re-minimizes; the round count is
    capped because a bound on rounds is not obvious, but in practice
    small seeds stabilize within a handful of rounds.

    A value to adjoin above cap raises BoundTooLarge naming given, the
    admitted seeds and the constraint set as the caller gave it, and so
    do seeds whose largest value, over their own gcd (which msg divides
    out), is above cap.  The seeds and adjustments share no divisor, so
    every round's set has gcd 1 and msg would need a generated set up to
    its largest value: cap is at most _GENERATED_CEILING, and closure_msg
    also keeps its scaled generators within 2**31.
    """
    if xs[-1] // math.gcd(*xs) > cap:
        raise _past_cap(given)
    y = msg(GenSet(xs)).elements
    seen_sums: set[int] = set()
    for _ in range(ITERATION_CAP):
        sums = {a + b for i, a in enumerate(y) for b in y[i:]}
        new_sums = sums - seen_sums
        z = set(y)
        for e in new_sums:
            for cc in cs:
                v = e + cc
                if v < 0:
                    raise InternalInvariant(
                        f"pair sum {e} plus adjustment {cc} went negative during closure"
                    )
                if v > cap:
                    raise _past_cap(given)
                if v:
                    z.add(v)
        new_y = msg(monoid_from_generators(z)).elements
        if new_y == y:
            if math.gcd(*y) != 1:
                raise InternalInvariant(
                    "reduced closure must be numerical after dividing out the gcd"
                )
            ns = numerical_semigroup(GenSet(y))
            if ns.msg.elements != y:
                raise InternalInvariant("fixpoint generators are not minimal")
            return ns
        y = new_y
        seen_sums |= new_sums
    raise InternalInvariant(f"closure fixpoint did not stabilize within {ITERATION_CAP} rounds")


# largest membership target answered by the reachability table; beyond it
# the generator engine is cheaper than a table of n entries
_DP_CEILING = 1_000_000


def _profile_cap(n: int) -> int:
    cap = 256
    while cap < n:
        cap *= 4
    return cap


@lru_cache(maxsize=128)
def _slack_profile(adds: tuple[int, ...], shifts: tuple[int, ...], cap: int) -> tuple[int, ...]:
    """Best slack (adds used minus shifts used) reachable at each value in [0, vmax].

    States are (value, slack); an add step moves to (v + x, k + 1), a
    shift step to (v + c, k - 1).  The table keeps only the maximum slack
    per value, which is enough: acceptance only asks whether some slack
    >= 1 reaches the target, and the maximum dominates every transition.
    Values are capped at cap + slack_cap * theta and slacks clamped to
    [-slack_cap, slack_cap]; any witness needs at most ceil(cap / min add)
    + 1 adds laid down before its shifts, so the windows lose nothing.
    Entries below -slack_cap mean unreachable.  shifts hold no 0
    (IncentiveSpec.shifts and m_ab_membership leave it out); a zero shift
    would only lower the slack at the same value.
    """
    th = -min(shifts + (0,))
    minx = adds[0]
    slack_cap = -(-cap // max(th, minx, 1)) + 1
    vmax = cap + slack_cap * th
    floor = -slack_cap
    unreachable = floor - 1
    f = [unreachable] * (vmax + 1)
    f[0] = 0
    queue = deque((0,))
    queued = bytearray(vmax + 1)
    queued[0] = 1
    while queue:
        v = queue.popleft()
        queued[v] = 0
        k = f[v]
        up = k + 1 if k < slack_cap else slack_cap
        for x in adds:
            w = v + x
            if w > vmax:
                break
            if up > f[w]:
                f[w] = up
                if not queued[w]:
                    queued[w] = 1
                    queue.append(w)
        down = k - 1
        if down >= floor:
            for cc in shifts:
                w = v + cc
                if 0 <= w <= vmax and down > f[w]:
                    f[w] = down
                    if not queued[w]:
                        queued[w] = 1
                        queue.append(w)
    return tuple(f)


def closure_membership(x_set: Iterable[int], c: IncentiveSpec | Iterable[int], n: int) -> bool:
    """Membership of n in the smallest closure, without computing generators.

    After _reduced, n (non-zero) must be a multiple of the scale, and
    n / scale belongs iff it is a sum of reduced seeds and adjustments
    with strictly more seeds than adjustments; the reachability table
    from _slack_profile answers that directly, and the fixpoint answers
    above _DP_CEILING, where a table of n entries costs more.  Reduced
    seeds holding 1 generate all of N, so they need neither.
    """
    _check_ints((n,), "membership targets")
    spec = _as_spec(c)
    return _membership(_admitted(x_set, spec), spec.shifts, n, spec.c_set)


def _membership(xs: tuple[int, ...], cs: tuple[int, ...], n: int, c_set: tuple[int, ...]) -> bool:
    """closure_membership past validation: n checked, cs zero-free, xs admitted under cs.

    c_set is the constraint set as the caller gave it, for messages.
    """
    if n <= 0 or not xs:
        return n == 0
    scale, rxs, cs = _reduced(xs, cs)
    if n % scale:
        return False
    if rxs[0] == 1:
        # a monoid holding 1 is all of N
        return True
    n //= scale
    if n > _DP_CEILING:
        return n in _fixpoint(rxs, cs, _GENERATED_CEILING, (xs, c_set))
    return _slack_profile(rxs, cs, _profile_cap(n))[n] >= 1
