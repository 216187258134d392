"""Tree enumeration of all numerical semigroups honouring a constraint set.

The numerical semigroups that honour a constraint set C form a rooted
tree.  The root is the largest member: N itself when every adjustment is
>= -2, and {0, theta, theta+1, ...} otherwise.  Each node's children are
obtained by removing one minimal generator x larger than the Frobenius
number, provided the result still honours C; the removed generator
becomes the child's Frobenius number, so Frobenius number and genus both
grow strictly along every edge and bounded enumeration is exact.

Child viability is decided without rebuilding the child: removing x is
safe iff for every adjustment c the value x - c is either outside the
parent, a minimal generator of the child, x itself, or 0.  When -m (m
the parent's smallest generator) is not an adjustment and x is not m,
the child's generators can be replaced by the parent's own in that test,
which skips computing them.  Two corrections to the obvious version of
that shortcut, both confirmed against exhaustive search: the value 0
must stay allowed (it covers c equal to x itself), and removing the
smallest generator always takes the slow path (that removal introduces
generators 2m and 2m+1, which the shortcut cannot see).

The minimal generators after removing x come from a closed form: for
{0, m, ->} minus m the result is {m+1, ..., 2m+1}; otherwise the only
candidate new generator is x + m, needed exactly when no other
non-multiplicity generator n_j has x + m - n_j inside the parent.
_child_bits evaluates that closed form on masks alone (the parent's
generator mask with bit x cleared, plus bit x + m when that is new), so
a viability test builds no generator tuple; _child_gens reads the tuple
off the parent's generators and that mask, only for children kept.

Nodes are NumericalSemigroup records on gap bitsets, and a child record
is derived from its parent, never rebuilt: its gap set is the parent's
with bit x set, its Frobenius number is x, and its generators and their
mask come from _child_gens and _child_bits.  Validation happens once,
at the public edge: enumerate_tree checks the constraint set and seeds
on entry, and child_viable, msg_after_removal and children check their
own arguments.  Below that the loop calls private helpers on trusted
data, and child records go through NumericalSemigroup._derived, which
skips the integer, sign and ordering checks (true by construction) but
keeps the three bit invariants.  With debug=True each child is also
built through the public constructors and rebuilt by
numerical_semigroup, and every fast-path viability verdict is compared
with the general one.  Semigroups, their generator sets and tree nodes
are slotted records.

Traversal is breadth-first in one thread, and the enumeration bound is
settled from the parent before a child is built: the child's Frobenius
number is x, its genus is the parent's plus one and its depth the
parent's plus one.  Along the ascending scan of x that verdict can only
turn from admitted to rejected, so the scan stops at the first viable x
the bound rejects (that child only marks the tree truncated), and once
the tree is known to be truncated it stops at the first rejected x
without testing viability.  A frontier node whose children all lie past
a genus or depth bound therefore costs nothing once truncation is known.
The root's Frobenius number and genus (theta - 1 for {0, theta, ->},
-1 and 0 for N) are known before the root is built, so a bound that
excludes the root returns an empty tree without allocating it.

brute_force_family is the independent oracle: it enumerates candidate
gap sets directly and keeps the complements that are addition-closed
and honour C.  Tests pin the tree enumeration against it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import Iterable

from .closure import IncentiveSpec, _admitted, _as_spec, is_incentive
from .errors import (
    BoundTooLarge,
    DomainError,
    InternalInvariant,
    InvalidRemoval,
    RootMissesX,
)
from .monoid import GenSet, NumericalSemigroup, numerical_semigroup

MAX_FROBENIUS = "max_frobenius"
MAX_GENUS = "max_genus"
MAX_DEPTH = "max_depth"
_BOUND_KINDS = (MAX_FROBENIUS, MAX_GENUS, MAX_DEPTH)

BRUTE_FORCE_CEILING = 18
# largest threshold whose root {0, theta, ->} is built.  At 2**16 the
# root takes about 3 ms (30 ms through the public constructors), and
# testing its theta removals on 2*theta-bit masks about 0.5 s, growing
# quadratically beyond (0.06 s at 2**14; Python 3.11, one core)
ROOT_THETA_CEILING = 2**16


@dataclass(frozen=True)
class EnumerationBound:
    """A truncation rule for tree enumeration.

    kind is one of max_frobenius, max_genus, max_depth; value None means
    unbounded (safe only when the family is finite).  Frobenius number
    and genus grow strictly along edges, so pruning below a violating
    child is exact; depth pruning simply stops expanding at the cutoff.
    """

    kind: str
    value: int | None

    def __post_init__(self) -> None:
        if self.kind not in _BOUND_KINDS:
            raise DomainError(f"unknown bound kind {self.kind!r}")
        v = self.value
        if v is not None and (not isinstance(v, int) or isinstance(v, bool) or v < 0):
            raise DomainError("bound value must be a non-negative plain integer or None")

    def allows(self, frobenius: int, genus: int, depth: int) -> bool:
        """Does the bound admit a node with this Frobenius number, genus and depth?"""
        if self.value is None:
            return True
        if self.kind == MAX_FROBENIUS:
            return frobenius <= self.value
        if self.kind == MAX_GENUS:
            return genus <= self.value
        return depth <= self.value

    def admits(self, sg: NumericalSemigroup, depth: int) -> bool:
        return self.allows(sg.frobenius, sg.genus, depth)

    def __str__(self) -> str:
        return f"{self.kind}={'none' if self.value is None else self.value}"


@dataclass(eq=False, slots=True)
class TreeNode:
    semigroup: NumericalSemigroup
    parent: "TreeNode | None"
    removed_generator: int | None
    depth: int
    node_id: int


@dataclass
class IncentiveTree:
    """Breadth-first enumeration result with deterministic node ids."""

    c_set: tuple[int, ...]
    x_set: tuple[int, ...] | None
    bound: EnumerationBound
    nodes: list[TreeNode] = field(default_factory=list)
    truncated: bool = False
    # parent -> children, built by children_of for the first len(nodes) nodes
    _kids: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _kids_size: int = field(default=-1, init=False, repr=False, compare=False)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def max_depth(self) -> int:
        return max((n.depth for n in self.nodes), default=-1)

    @property
    def root(self) -> TreeNode | None:
        return self.nodes[0] if self.nodes else None

    def children_of(self, node: TreeNode) -> list[TreeNode]:
        """The node's children in id order, from an index rebuilt when nodes grows."""
        if self._kids_size != len(self.nodes):
            kids: dict = {}
            for n in self.nodes:
                if n.parent is not None:
                    kids.setdefault(n.parent, []).append(n)
            self._kids, self._kids_size = kids, len(self.nodes)
        return list(self._kids.get(node, ()))

    @property
    def leaves(self) -> list[TreeNode]:
        parents = {id(n.parent) for n in self.nodes if n.parent is not None}
        return [n for n in self.nodes if id(n) not in parents]

    def node_by_msg(self, gens: Iterable[int]) -> TreeNode | None:
        key = tuple(sorted(gens))
        for n in self.nodes:
            if n.semigroup.msg.elements == key:
                return n
        return None

    def to_json_dict(self) -> dict:
        return {
            "metadata": {
                "c_set": list(self.c_set),
                "x_set": list(self.x_set) if self.x_set is not None else None,
                "bound": {"kind": self.bound.kind, "value": self.bound.value},
                "node_count": self.node_count,
                "truncated": self.truncated,
            },
            "nodes": [
                {
                    "id": n.node_id,
                    "msg": list(n.semigroup.msg.elements),
                    "frobenius": n.semigroup.frobenius,
                    "genus": n.semigroup.genus,
                    "parent_id": n.parent.node_id if n.parent else None,
                    "removed_generator": n.removed_generator,
                }
                for n in self.nodes
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    def to_dot(self) -> str:
        lines = ["digraph incentive_tree {"]
        for n in self.nodes:
            lines.append(f'  n{n.node_id} [label="{n.semigroup}"];')
        for n in self.nodes:
            if n.parent is not None:
                lines.append(
                    f'  n{n.parent.node_id} -> n{n.node_id} [label="{n.removed_generator}"];'
                )
        lines.append("}")
        return "\n".join(lines) + "\n"


def max_numerical_incentive(c: IncentiveSpec | Iterable[int]) -> NumericalSemigroup:
    """The largest numerical semigroup honouring the constraint set.

    N itself when every adjustment is >= -2; otherwise {0, theta, ->},
    whose minimal generators are theta, ..., 2*theta - 1.  Raises
    BoundTooLarge, before allocating, when theta exceeds
    ROOT_THETA_CEILING.
    """
    th = _as_spec(c).theta
    if th <= 2:
        return NumericalSemigroup._derived((1,), -1, 0, 2)
    if th > ROOT_THETA_CEILING:
        raise BoundTooLarge(
            f"the root {{0, {th}, ->}} needs {th} generators; "
            f"theta is capped at {ROOT_THETA_CEILING}"
        )
    return NumericalSemigroup._derived(
        tuple(range(th, 2 * th)), th - 1, (1 << th) - 2, ((1 << th) - 1) << th
    )


def _check_removal(sg: NumericalSemigroup, x: int) -> None:
    if not (isinstance(x, int) and x > 0 and sg.gen_bits >> x & 1):
        raise InvalidRemoval(f"{x} is not a minimal generator of {sg}")
    if x <= sg.frobenius:
        raise InvalidRemoval(
            f"removing {x} from {sg} leaves a non-monoid; need x > frobenius {sg.frobenius}"
        )


def _child_bits(sg: NumericalSemigroup, x: int) -> int:
    """Minimal-generator mask of sg minus x, a generator above the Frobenius number.

    Removing the smallest generator m is only possible from {0, m, ->}
    and yields {m+1, ..., 2m+1}.  Otherwise x leaves and the only
    candidate new generator is x + m; it is redundant exactly when
    x + m - n_j stays a member for some other non-multiplicity generator
    n_j.  Only int operations on the masks: no generator tuple is built.
    """
    elems = sg.msg.elements
    m = elems[0]
    if x == m:
        # x > frobenius forces the parent to be {0, m, ->} here
        return ((1 << (m + 1)) - 1) << (m + 1)
    bits = sg.gen_bits ^ 1 << x
    # every generator is at most frobenius + m < x + m, so x + m - n_j is
    # positive and x + m sorts last
    gaps = sg.gap_bits
    top = x + m
    for nj in islice(elems, 1, None):
        if nj != x and not gaps >> (top - nj) & 1:
            return bits
    return bits | 1 << top


def _child_gens(sg: NumericalSemigroup, x: int, bits: int) -> tuple[int, ...]:
    """Minimal generators of sg minus x, given their mask from _child_bits."""
    elems = sg.msg.elements
    m = elems[0]
    if x == m:
        return tuple(range(m + 1, 2 * m + 2))
    i = elems.index(x)
    rest = elems[:i] + elems[i + 1 :]
    return rest + (x + m,) if bits >> (x + m) & 1 else rest


def msg_after_removal(sg: NumericalSemigroup, x: int) -> GenSet:
    """Minimal generators of the semigroup minus one generator x > frobenius.

    The closed form is _child_bits's (see the module docstring).
    """
    _check_removal(sg, x)
    return GenSet(_child_gens(sg, x, _child_bits(sg, x)))


def child_viable(
    sg: NumericalSemigroup,
    x: int,
    c: IncentiveSpec | Iterable[int],
    debug: bool = False,
) -> bool:
    """Does the semigroup minus x still honour the constraint set?

    For every adjustment cc, the value x - cc must be outside the parent,
    a minimal generator of the child, x, or 0.  The fast path substitutes
    the parent's generators for the child's; it is valid unless -m is an
    adjustment or x is the smallest generator (see the module docstring).
    """
    spec = _as_spec(c)
    _check_removal(sg, x)
    return _viable(sg, x, spec.c_set, debug)[0]


def _viable(
    sg: NumericalSemigroup, x: int, c_set: tuple[int, ...], debug: bool
) -> tuple[bool, int | None]:
    """Viability of sg minus x, plus _child_bits(sg, x) when the general path computed it.

    With debug=True the fast path's verdict is checked against the
    general one.
    """
    m = sg.msg.elements[0]
    if x == m or -m in c_set:
        bits = _child_bits(sg, x)
        return _viability_scan(sg, x, c_set, bits), bits
    verdict = _viability_scan(sg, x, c_set, sg.gen_bits)
    if debug and _viability_scan(sg, x, c_set, _child_bits(sg, x)) != verdict:
        raise InternalInvariant(
            f"fast and general viability disagree for {sg} minus {x} under {c_set}"
        )
    return verdict, None


def _viability_scan(sg: NumericalSemigroup, x: int, c_set: tuple[int, ...], allowed: int) -> bool:
    """Is every positive x - cc a gap of the parent, a bit of allowed, or x itself?"""
    ok = sg.gap_bits | allowed | 1 << x
    for cc in c_set:
        v = x - cc
        if v > 0 and not ok >> v & 1:
            return False
    return True


def _child(sg: NumericalSemigroup, x: int, bits: int | None, debug: bool) -> NumericalSemigroup:
    """The record of sg minus x, derived from sg and its mask (computed here when bits is None).

    With debug=True the child is also built through the public
    constructors and rebuilt from its generators, and all must agree.
    """
    if bits is None:
        bits = _child_bits(sg, x)
    elems = _child_gens(sg, x, bits)
    child = NumericalSemigroup._derived(elems, x, sg.gap_bits | 1 << x, bits)
    if debug:
        public = NumericalSemigroup(GenSet(elems), x, child.gap_bits)
        rebuilt = numerical_semigroup(elems)
        for other in (public, rebuilt):
            if (
                other.msg.elements != elems
                or other.frobenius != x
                or other.gap_bits != child.gap_bits
                or other.gen_bits != bits
            ):
                raise InternalInvariant(
                    f"derived child {child} of {sg} minus {x} disagrees with {other}"
                )
    return child


def children(
    sg: NumericalSemigroup,
    c: IncentiveSpec | Iterable[int],
    x_set: Iterable[int] | None = None,
    debug: bool = False,
) -> list[tuple[int, NumericalSemigroup]]:
    """Viable (removed generator, child) pairs in ascending generator order.

    x_set, when given, lists elements that must stay inside every node;
    generators in it are never removed.
    """
    c_set = _as_spec(c).c_set
    required = set(x_set) if x_set is not None else set()
    out = []
    for x in sg.msg.elements:
        if x <= sg.frobenius or x in required:
            continue
        viable, bits = _viable(sg, x, c_set, debug)
        if viable:
            out.append((x, _child(sg, x, bits, debug)))
    return out


def enumerate_tree(
    c: IncentiveSpec | Iterable[int],
    x_set: Iterable[int] | None,
    bound: EnumerationBound,
    debug: bool = False,
) -> IncentiveTree:
    """Breadth-first tree of numerical semigroups honouring c, under a bound.

    With x_set given, only semigroups containing it are enumerated (its
    elements are never removed), after checking admissibility and that
    the root actually contains it.  Children are visited in ascending
    removed-generator order, so node ids are deterministic.  The
    constraint set and seeds are validated once, here; every child is
    derived from its parent (see the module docstring).  With debug=True
    every viable child is built anyway, its bound verdict must match the
    one settled from its parent, and _viable and _child cross-check the
    fast paths and derived records.
    """
    spec = _as_spec(c)
    xs = None if x_set is None else _admitted(x_set, spec)
    # the root's numbers are known without building it: N, or {0, theta, ->}
    th = spec.theta
    if th <= 2:
        root_frobenius, root_genus = -1, 0
    else:
        root_frobenius = root_genus = th - 1
        missing = [v for v in xs or () if v < th]
        if missing:
            raise RootMissesX(
                f"{missing} lie outside {{0, {th}, ->}}, "
                f"the largest numerical candidate for {spec}"
            )
    tree = IncentiveTree(spec.c_set, xs, bound)
    if not bound.allows(root_frobenius, root_genus, 0):
        tree.truncated = True
        return tree
    nodes = tree.nodes
    nodes.append(TreeNode(max_numerical_incentive(spec), None, None, 0, 0))
    c_set = spec.c_set
    required = set(xs or ())
    allows = bound.allows
    frontier = nodes[:]
    while frontier:
        next_frontier = []
        for node in frontier:
            sg = node.semigroup
            frobenius = sg.frobenius
            genus, depth = _child_numbers(node)
            for x in sg.msg.elements:
                if x <= frobenius or x in required:
                    continue
                # the child's Frobenius number is x, so fits can only turn
                # from True to False as x grows
                fits = allows(x, genus, depth)
                if not fits and tree.truncated and not debug:
                    break
                viable, bits = _viable(sg, x, c_set, debug)
                if not viable:
                    continue
                if not fits:
                    tree.truncated = True
                    if not debug:
                        break
                child_sg = _child(sg, x, bits, debug)
                if debug and bound.admits(child_sg, depth) != fits:
                    raise InternalInvariant(
                        f"bound {bound} settled {child_sg} (= {sg} minus {x}) as "
                        f"{'admitted' if fits else 'rejected'} from its parent"
                    )
                if fits:
                    child = TreeNode(child_sg, node, x, depth, len(nodes))
                    nodes.append(child)
                    next_frontier.append(child)
        frontier = next_frontier
    return tree


def _child_numbers(node: TreeNode) -> tuple[int, int]:
    """Genus and depth of every child of node (a child's Frobenius number is its x)."""
    return node.semigroup.genus + 1, node.depth + 1


def is_finite_family(c: IncentiveSpec | Iterable[int], x_set: Iterable[int]) -> bool:
    """Is the family of numerical semigroups honouring c and containing x_set finite?

    True iff gcd(c_set ∪ x_set) = 1: then the smallest closure is itself
    numerical and only finitely many semigroups sit between it and N.
    x_set must be non-empty (without it the family always contains every
    {0, k, ->} with k at or above the threshold, hence is infinite), and
    the criterion presumes the family is populated at all, i.e. the seeds
    sit inside the root.
    """
    spec = _as_spec(c)
    xs = _admitted(x_set, spec)
    if not xs:
        raise DomainError("is_finite_family needs a non-empty seed set")
    return math.gcd(*xs, *spec.c_set) == 1


@dataclass
class Decomposition:
    """Per-divisor trees describing every monoid honouring the constraints.

    The monoids honouring c with gcd d are exactly d times the numerical
    semigroups honouring c/d, so trees[d] enumerates the divisor-d slice
    (scaled down by d).  includes_trivial records that the trivial monoid
    {0} also qualifies (always, unless a non-empty seed set excludes it).
    """

    trees: dict[int, IncentiveTree]
    includes_trivial: bool


def decompose(
    c: IncentiveSpec | Iterable[int],
    x_set: Iterable[int] | None,
    bound: EnumerationBound,
    debug: bool = False,
) -> Decomposition:
    """Slice the family of monoids honouring c by the divisor of their gcd.

    For each divisor d of gcd(c_set ∪ x_set) (of gcd(c_set) when no seeds
    are given) the slice is enumerate_tree(c/d, x_set/d, bound).  A
    divisor whose root misses the scaled seeds contributes an empty tree:
    that slice of the family is empty.
    """
    spec = _as_spec(c)
    xs = None if x_set is None else _admitted(x_set, spec)
    g = math.gcd(*spec.c_set, *(xs or ()))
    if g == 0:
        raise DomainError(
            "every monoid honours this constraint set; give a seed set to pin down a gcd"
        )
    small = [d for d in range(1, math.isqrt(g) + 1) if g % d == 0]
    divisors = small + [g // d for d in reversed(small) if d * d != g]
    trees: dict[int, IncentiveTree] = {}
    for d in divisors:
        c_d = IncentiveSpec(tuple(v // d for v in spec.c_set))
        xs_d = tuple(v // d for v in xs) if xs else xs
        try:
            trees[d] = enumerate_tree(c_d, xs_d, bound, debug=debug)
        except RootMissesX:
            trees[d] = IncentiveTree(c_d.c_set, xs_d, bound)
    return Decomposition(trees, includes_trivial=not xs)


@lru_cache(maxsize=8)
def _all_numerical_semigroups(max_frobenius: int) -> tuple[NumericalSemigroup, ...]:
    """Every numerical semigroup with Frobenius number <= max_frobenius.

    Enumerates all subsets of {1, ..., max_frobenius} as candidate gap
    sets and keeps the complements closed under addition.  Minimal
    generators are read off the membership table (scanning up to
    2 * max_frobenius + 1, enough for any such semigroup).
    """
    mf = max_frobenius
    found = []
    for bits in range(1 << mf):
        table = bytearray([1]) + bytearray(
            0 if bits >> i & 1 else 1 for i in range(mf)
        )
        closed = True
        for a in range(1, mf + 1):
            if not table[a]:
                continue
            for b in range(a, mf - a + 1):
                if table[b] and not table[a + b]:
                    closed = False
                    break
            if not closed:
                break
        if not closed:
            continue

        def member(v: int) -> bool:
            return v > mf or bool(table[v])

        gens = []
        for v in range(1, 2 * mf + 2):
            if member(v) and not any(member(a) and member(v - a) for a in range(1, v // 2 + 1)):
                gens.append(v)
        gap_bits = bits << 1  # table[v] is 0 iff bit v - 1 of bits is set
        found.append(NumericalSemigroup(GenSet(tuple(gens)), gap_bits.bit_length() - 1, gap_bits))
    found.sort(key=lambda sg: (sg.genus, sg.msg.elements))
    return tuple(found)


def brute_force_family(
    c: IncentiveSpec | Iterable[int], max_frobenius: int
) -> dict[tuple[int, ...], NumericalSemigroup]:
    """Oracle: all numerical semigroups with F <= max_frobenius honouring c.

    Keyed by minimal generators.  Independent of the tree expansion: it
    filters an exhaustive gap-set enumeration through the pair test.
    """
    if max_frobenius > BRUTE_FORCE_CEILING:
        raise BoundTooLarge(
            f"brute force is capped at max_frobenius {BRUTE_FORCE_CEILING}, got {max_frobenius}"
        )
    spec = _as_spec(c)
    out: dict[tuple[int, ...], NumericalSemigroup] = {}
    for sg in _all_numerical_semigroups(max(max_frobenius, 0)):
        if is_incentive(sg.msg, spec):
            out[sg.msg.elements] = sg
    return out
