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
parent, a minimal generator of the child, x itself, or 0.  Only c = 0
gives x itself, so that adjustment is inert and the scan drops it.

The minimal generators after removing x come from a closed form: for
{0, m, ->} minus m the result is {m+1, ..., 2m+1}; otherwise the only
candidate new generator is x + m, needed exactly when no other
non-multiplicity generator n_j has x + m - n_j inside the parent.  The
closed form is evaluated on masks alone (the parent's generator mask
with bit x cleared, plus bit x + m when that is new), and the viability
scan reads that mask and the parent's gaps, so it builds no generator
tuple; the tuple is sliced out of the parent's generators at x's index
only for children kept.

Each tree level is expanded by one _expand call, which enumerate_tree
makes once per level and children makes on a single node; child_viable
and msg_after_removal read their answer off children, with every other
generator kept as a seed so that x is the one candidate.  Per parent it
reads m, the gap mask and the generators after m once; the candidates,
the generators above the Frobenius number, start at an index found by
bisection.  Per candidate x it costs one compare against the level's
limit, one closed-form mask and one viability scan (none when C holds
no adjustment but 0), and a kept child one tuple, one record and one
tree node.

Nodes are NumericalSemigroup records on gap bitsets, and a child record
is derived from its parent, never rebuilt: its gap set is the parent's
with bit x set, its Frobenius number is x, and its generators and their
mask come from the closed form.  Validation happens once, at the
public edge: enumerate_tree checks the constraint set and seeds on
entry, and child_viable, msg_after_removal and children check their own
arguments.  Below that _expand works on trusted data, and child records
go through NumericalSemigroup._derived, which skips the integer, sign
and ordering checks (true by construction) but keeps the three bit
invariants.  Semigroups, their generator sets and tree nodes are
slotted records.

Traversal is breadth-first in one thread, and the enumeration bound is
settled once per level, before any child is built: every node of level
d has genus root_genus + d and depth d, so
EnumerationBound.frobenius_limit turns the bound into the largest
Frobenius number it admits for the children of level d, and a child's
Frobenius number is its x.  Along the ascending scan of x the verdict
can only turn from admitted to rejected, so the scan stops at the first
viable x past the limit (that child only marks the tree truncated), and
once the tree is known to be truncated it stops at the first x past the
limit without testing viability.  A
frontier node whose children all lie past the limit is therefore not
expanded at all once truncation is known, and a level whose limit
admits no child is left at its first such node.  The root's Frobenius
number and genus (theta - 1 for {0, theta, ->}, -1 and 0 for N) are
known before the root is built, so a bound that excludes the root
returns an empty tree without allocating it.  Without a bound value
only a finite family (is_finite_family) is enumerated; an infinite one
raises BoundTooLarge before the root is built.

brute_force_family is the independent oracle: it enumerates candidate
gap sets directly and keeps the complements that are addition-closed
and honour C.  Tests pin the tree enumeration, its viability verdicts
and its derived records against it, against is_incentive and against
numerical_semigroup.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import Collection, Iterable

from .closure import IncentiveSpec, _admitted, _as_spec, is_incentive, strip_zero
from .errors import BoundTooLarge, DomainError, InvalidRemoval, RootMissesX
from .monoid import GenSet, NumericalSemigroup, _int_set

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
    unbounded, which enumerate_tree accepts only for a finite family.
    Frobenius number and genus grow strictly along edges, so pruning
    below a violating child is exact; depth pruning simply stops
    expanding at the cutoff.
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

    def frobenius_limit(self, genus: int, depth: int) -> int | None:
        """The largest Frobenius number allows admits at this genus and depth.

        None when it admits every Frobenius number, -2 (below every
        Frobenius number) when it admits none.  The children of one tree
        level share their genus and depth, so enumerate_tree settles this
        once per level and each candidate x costs one compare.
        """
        v = self.value
        if v is None:
            return None
        if self.kind == MAX_FROBENIUS:
            return v
        return None if (genus if self.kind == MAX_GENUS else depth) <= v else -2

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

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def max_depth(self) -> int:
        return max((n.depth for n in self.nodes), default=-1)

    @property
    def root(self) -> TreeNode | None:
        return self.nodes[0] if self.nodes else None

    def children_by_parent(self) -> dict[TreeNode, list[TreeNode]]:
        """Every node's children in id order, keyed by node; linear in the node count.

        The one child index of a tree: a whole-tree walk reads it once,
        and a single lookup is children_by_parent()[node].
        """
        kids: dict[TreeNode, list[TreeNode]] = {n: [] for n in self.nodes}
        for n in self.nodes:
            if n.parent in kids:
                kids[n.parent].append(n)
        return kids

    @property
    def leaves(self) -> list[TreeNode]:
        return [n for n, kids in self.children_by_parent().items() if not kids]

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
    if not (
        isinstance(x, int) and not isinstance(x, bool) and x > 0 and sg.gen_bits >> x & 1
    ):
        raise InvalidRemoval(f"{x} is not a minimal generator of {sg}")
    if x <= sg.frobenius:
        raise InvalidRemoval(
            f"removing {x} from {sg} leaves a non-monoid; need x > frobenius {sg.frobenius}"
        )


def msg_after_removal(sg: NumericalSemigroup, x: int) -> GenSet:
    """Minimal generators of the semigroup minus one generator x > frobenius.

    This is children with no adjustments, under which every removal is
    viable, and every other generator kept; the closed form is in the
    module docstring.
    """
    _check_removal(sg, x)
    return children(sg, IncentiveSpec(()), [g for g in sg.msg.elements if g != x])[0][1].msg


def child_viable(sg: NumericalSemigroup, x: int, c: IncentiveSpec | Iterable[int]) -> bool:
    """Does the semigroup minus x still honour the constraint set?

    For every adjustment cc, the value x - cc must be outside the parent,
    a minimal generator of the child, or 0.  This is children with every
    other generator kept, so x is the one candidate.
    """
    spec = strip_zero(c)
    _check_removal(sg, x)
    return bool(children(sg, spec, [g for g in sg.msg.elements if g != x]))


def _honours(x: int, cs: tuple[int, ...], ok: int) -> bool:
    """Is every positive x - cc, for cc in cs, a bit of ok?"""
    for cc in cs:
        v = x - cc
        if v > 0 and not ok >> v & 1:
            return False
    return True


def _expand(
    parents: Iterable[TreeNode],
    cs: tuple[int, ...],
    required: Collection[int],
    limit: int | None,
    nodes: list[TreeNode],
    truncated: bool,
) -> bool:
    """Expand one tree level, each parent in one pass; append kept children to nodes.

    A parent's candidates are its generators above the Frobenius number
    in ascending order, minus those in required.  cs is the constraint
    set without its inert 0.  limit is the largest child Frobenius
    number, x, the bound admits at this level (frobenius_limit; None: no
    bound), settled once by the caller for every parent.  A kept child
    is appended as a TreeNode with the next id.  Returns whether the
    tree is truncated: truncated, or a viable x lay past the limit.  A
    parent's scan stops at its first viable x past the limit, and, once
    the tree is truncated, at the first x past it; a parent whose every
    candidate lies past it is not scanned, and when the limit admits no
    child at all (-2) the rest of the level is left at once.

    Every candidate's generator mask comes from the closed form (module
    docstring) on masks alone, and the viability scan tests x against
    it and the parent's gaps.  A kept child's generator tuple is the
    parent's without index i, plus x + m when that is new.
    """
    derived = NumericalSemigroup._derived
    for node in parents:
        sg = node.semigroup
        elems = sg.msg.elements
        if limit is None:
            fit = elems[-1]  # no candidate lies past the largest generator
        elif truncated and limit <= sg.frobenius:
            if limit < 0:
                return True  # no parent of this level can have a child
            continue  # every candidate x > frobenius lies past the bound
        else:
            fit = limit
        depth = node.depth + 1
        m = elems[0]
        gaps = sg.gap_bits
        gen_bits = sg.gen_bits
        rest = elems[1:]
        for i in range(bisect_right(elems, sg.frobenius), len(elems)):
            x = elems[i]
            if x in required:
                continue
            # the child's Frobenius number is x, so fits can only turn
            # from True to False as x grows
            fits = x <= fit
            if not fits and truncated:
                break
            top = x + m
            if i:
                bits = gen_bits ^ 1 << x
                # every generator is at most frobenius + m < x + m, so
                # x + m - n_j is positive; x + m is new unless some other
                # non-multiplicity generator n_j leaves it a member
                for nj in rest:
                    if nj != x and not gaps >> (top - nj) & 1:
                        break
                else:
                    bits |= 1 << top
            else:
                # x = m > frobenius: sg is {0, m, ->}, and sg minus m has
                # generators m+1, ..., 2m+1
                bits = ((1 << (m + 1)) - 1) << (m + 1)
            if cs and not _honours(x, cs, gaps | bits):
                continue
            if not fits:
                truncated = True
                break
            if i:
                gens = elems[:i] + elems[i + 1 :]
                if bits >> top & 1:
                    gens += (top,)
            else:
                gens = tuple(range(m + 1, 2 * m + 2))
            child = derived(gens, x, gaps | 1 << x, bits)
            nodes.append(TreeNode(child, node, x, depth, len(nodes)))
    return truncated


def children(
    sg: NumericalSemigroup,
    c: IncentiveSpec | Iterable[int],
    x_set: Iterable[int] | None = None,
) -> list[tuple[int, NumericalSemigroup]]:
    """Viable (removed generator, child) pairs in ascending generator order.

    x_set, when given, lists elements that must stay inside every node;
    generators in it are never removed.  Its values must be plain
    integers, as seeds anywhere else.
    """
    cs = strip_zero(c).c_set
    required = () if x_set is None else frozenset(_int_set(x_set, "seed elements"))
    kids: list[TreeNode] = []
    _expand([TreeNode(sg, None, None, 0, 0)], cs, required, None, kids, False)
    return [(n.removed_generator, n.semigroup) for n in kids]


def enumerate_tree(
    c: IncentiveSpec | Iterable[int], x_set: Iterable[int] | None, bound: EnumerationBound
) -> IncentiveTree:
    """Breadth-first tree of numerical semigroups honouring c, under a bound.

    With x_set given, only semigroups containing it are enumerated (its
    elements are never removed), after checking admissibility and that
    the root actually contains it.  Children are visited in ascending
    removed-generator order, so node ids are deterministic.  The
    constraint set and seeds are validated once, here; each level of the
    tree is expanded by one _expand call (see the module docstring).
    Without a bound value the family must be finite (is_finite_family);
    an infinite one raises BoundTooLarge, since its enumeration never ends.
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
    if bound.value is None and not (xs and is_finite_family(spec, xs)):
        raise BoundTooLarge(
            f"the family for {spec} with seeds {list(xs or ())} is infinite; "
            "give the bound a value"
        )
    tree = IncentiveTree(spec.c_set, xs, bound)
    if not bound.allows(root_frobenius, root_genus, 0):
        tree.truncated = True
        return tree
    nodes = tree.nodes
    nodes.append(TreeNode(max_numerical_incentive(spec), None, None, 0, 0))
    cs = tuple(v for v in spec.c_set if v)
    required = frozenset(xs or ())
    # breadth-first by levels: each pass expands the nodes the last one
    # added, and every node of level d has genus root_genus + d and depth d
    done = depth = 0
    while done < len(nodes):
        level = islice(nodes, done, len(nodes))
        done = len(nodes)
        depth += 1  # the depth of the children this pass builds
        limit = bound.frobenius_limit(root_genus + depth, depth)
        tree.truncated = _expand(level, cs, required, limit, nodes, tree.truncated)
    return tree


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
    c: IncentiveSpec | Iterable[int], x_set: Iterable[int] | None, bound: EnumerationBound
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
            trees[d] = enumerate_tree(c_d, xs_d, bound)
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
