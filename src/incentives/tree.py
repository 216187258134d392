"""Tree enumeration of all numerical semigroups honouring a constraint set.

The numerical semigroups that honour a constraint set C form a rooted
tree.  The root is the largest member: N itself when every adjustment is
>= -2, and {0, theta, theta+1, ...} otherwise.  A node's children remove
one minimal generator x above its Frobenius number, when the result
still honours C; x becomes the child's Frobenius number, so Frobenius
number and genus grow along every edge and bounded enumeration is exact.

Removing x from a parent that honours C is viable iff for every
adjustment c the value x - c is at most 0, outside the parent, a minimal
generator of the child or x itself (only c = 0, which is inert and left
out of IncentiveSpec.shifts, the adjustments scanned).  The child's
generators come from a closed form: {0, m, ->} minus m has {m+1, ...,
2m+1}; otherwise the only candidate new generator is x + m, needed
exactly when no other non-multiplicity generator n_j has x + m - n_j
inside the parent.  The rule is one mask per parent, ok, whose bit x
says x passes every c but -m (the seeds technique of Bras-Amoros and
Fernandez-Gonzalez, Math. Comp. 87, 2018): for c > 0, x - c < x is a gap
or generator of the parent, or x <= c, so ok &= ~(~(gaps | gen_bits | 1)
<< c) (the inverted shift sets every bit below c, and bit 0 stands for
x = c), and a c at or above the largest generator passes every x and is
never shifted; for c < 0, x - c > x is a member, so it
must be a child generator, which for -c != m means a parent generator:
ok &= gen_bits >> -c; and c = -m passes exactly when x + m is new.  The
parent {0, m, ->} honours C only if theta <= m + 1, so its child {0,
m + 1, ->} always does, and ok keeps bit m.  The candidates are read off
the set bits of ok above the Frobenius number, lowest first, so one the
mask rejects costs no step; seeds, which must stay, are looked up in a
frozenset after the mask (a seed mask would need 2**31 bits for a seed
at 2**31).  A generator tuple is built only for a child kept.

These rules hold only for a parent in the family, which is every parent
enumerate_tree expands.  Any other parent can have only the root
max_numerical_incentive(C) as a child: the family is a Frobenius
pseudo-variety (Robles-Perez and Rosales, Ann. Mat. Pura Appl. 2015), so
a member other than the root is a child of a member, itself plus its
Frobenius number.  children therefore gives such a parent no candidate
but the multiplicity of {0, theta - 1, ->}, whose removal leaves the
root {0, theta, ->} (theta >= 3; N is no child at all).

A tree stores its nodes as int columns derived from the parent's, not as
records (IncentiveTree), and generator tuples live only for the level
being expanded and the one being built.  A level whose nodes the bound
leaves no room for children (the next depth's frobenius_limit is -2,
under max_genus or max_depth) is built as columns alone; the pass after
it, which only decides truncated, rebuilds a parent's tuple from
gen_bits when its scan reaches it.  TreeNode views build a
NumericalSemigroup (through _derived, which keeps the three bit
invariants) only when asked, so a tree holds no GC-tracked object per node.

_expand is the one expansion step: enumerate_tree calls it once per
level and children on a one-node tree; child_viable and
msg_after_removal call children with every other generator as a seed,
so x is the one candidate; arguments are validated at these public
edges only.  Nodes of level d have genus root_genus + d and depth d, so
frobenius_limit, the one form of the bound rule, settles the bound once
per level, and enumerate_tree carries each level's limit to the next
pass.  The verdict only turns from admitted to rejected as x grows,
so a parent's scan stops at its first viable x past the limit (which
marks the tree truncated) and, once the tree is truncated, at its first
x past the limit, skipping a parent with no candidate below it and a
level whose limit admits none.  A bound that excludes the root gives an
empty tree without building it; without a bound value only a finite
family (is_finite_family) is enumerated.
"""

from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from typing import Collection, Iterable

from .closure import IncentiveSpec, _admitted, _as_spec, is_incentive
from .errors import BoundTooLarge, DomainError, InvalidRemoval, RootMissesX
from .monoid import GenSet, NumericalSemigroup, _ascending, _int_set

MAX_FROBENIUS = "max_frobenius"
MAX_GENUS = "max_genus"
MAX_DEPTH = "max_depth"
_BOUND_KINDS = (MAX_FROBENIUS, MAX_GENUS, MAX_DEPTH)

BRUTE_FORCE_CEILING = 18
# largest threshold whose root {0, theta, ->} is built.  At 2**16 the root
# takes about 3 ms, and testing its theta removals on 2*theta-bit masks
# about 0.3 s, growing quadratically (0.03 s at 2**14; Python 3.11, one
# core of a shared 2-core VM)
ROOT_THETA_CEILING = 2**16


@dataclass(frozen=True)
class EnumerationBound:
    """A truncation rule for tree enumeration.

    kind is one of max_frobenius, max_genus, max_depth; value None means
    unbounded, which enumerate_tree accepts only for a finite family.
    Frobenius number, genus and depth grow strictly along edges, so
    pruning below a violating child is exact.
    """

    kind: str
    value: int | None

    def __post_init__(self) -> None:
        if self.kind not in _BOUND_KINDS:
            raise DomainError(f"unknown bound kind {self.kind!r}")
        v = self.value
        if v is not None and (not isinstance(v, int) or isinstance(v, bool) or v < 0):
            raise DomainError("bound value must be a non-negative plain integer or None")

    def frobenius_limit(self, genus: int, depth: int) -> int | None:
        """The largest Frobenius number the bound admits at this genus and depth.

        A node is admitted iff its measure (Frobenius number, genus or
        depth, by kind) is at most value.  None when every node is
        admitted, -2 (below every Frobenius number) when none is.  The
        nodes of one tree level share their genus and depth, so
        enumerate_tree settles this once per level.
        """
        v = self.value
        if v is None:
            return None
        if self.kind == MAX_FROBENIUS:
            return v
        return None if (genus if self.kind == MAX_GENUS else depth) <= v else -2

    def __str__(self) -> str:
        return f"{self.kind}={'none' if self.value is None else self.value}"


@dataclass(slots=True, unsafe_hash=True)
class TreeNode:
    """A view of node node_id of an IncentiveTree, built by the tree on access.

    Views of one node are equal, not identical; each semigroup is a new record.
    """

    tree: IncentiveTree = field(repr=False)
    node_id: int

    @property
    def semigroup(self) -> NumericalSemigroup:
        gaps, gens = self.tree.gap_bits[self.node_id], self.tree.gen_bits[self.node_id]
        return NumericalSemigroup._derived(
            tuple(_ascending(gens)), gaps.bit_length() - 1, gaps, gens
        )

    @property
    def parent(self) -> TreeNode | None:
        p = self.tree.parent_ids[self.node_id]
        return None if p < 0 else TreeNode(self.tree, p)

    @property
    def removed_generator(self) -> int | None:
        return self.tree.removed[self.node_id] or None  # 0 marks the root

    @property
    def depth(self) -> int:
        return bisect_right(self.tree.level_offsets, self.node_id) - 1


@dataclass(slots=True)
class _Nodes(Sequence):
    """A tree's nodes as a read-only sequence; item i is a new view of node i."""

    tree: IncentiveTree

    def __len__(self) -> int:
        return len(self.tree.gap_bits)

    def __getitem__(self, i):
        ids = range(len(self))[i]  # negative indices, slices and IndexError
        if isinstance(i, slice):
            return [TreeNode(self.tree, k) for k in ids]
        return TreeNode(self.tree, ids)

    def __iter__(self):
        return map(TreeNode, repeat(self.tree), range(len(self)))


@dataclass(eq=False)
class IncentiveTree:
    """Breadth-first enumeration result with deterministic node ids.

    Node i is gap_bits[i] and gen_bits[i] (its semigroup's gap and
    generator masks), parent_ids[i] (-1 at the root) and removed[i] (the
    generator removed from its parent, 0 at the root); depth d holds ids
    level_offsets[d] to level_offsets[d + 1] - 1.  The columns are
    read-only, and parent ids never decrease.
    """

    c_set: tuple[int, ...]
    x_set: tuple[int, ...] | None
    bound: EnumerationBound
    truncated: bool = False
    gap_bits: list[int] = field(default_factory=list, repr=False)
    gen_bits: list[int] = field(default_factory=list, repr=False)
    parent_ids: array = field(default_factory=lambda: array("q"), repr=False)
    removed: array = field(default_factory=lambda: array("q"), repr=False)
    level_offsets: list[int] = field(default_factory=lambda: [0], repr=False)

    def _plant(self, root: NumericalSemigroup) -> None:
        """Make root node 0 of this empty tree."""
        self.gap_bits, self.gen_bits = [root.gap_bits], [root.gen_bits]
        self.parent_ids, self.removed = array("q", [-1]), array("q", [0])
        self.level_offsets = [0, 1]

    @property
    def nodes(self) -> Sequence[TreeNode]:
        return _Nodes(self)

    @property
    def node_count(self) -> int:
        return len(self.gap_bits)

    @property
    def max_depth(self) -> int:
        return len(self.level_offsets) - 2

    @property
    def level_sizes(self) -> list[int]:
        """The number of nodes at each depth, root first."""
        return [b - a for a, b in zip(self.level_offsets, self.level_offsets[1:])]

    @property
    def root(self) -> TreeNode | None:
        return TreeNode(self, 0) if self.gap_bits else None

    def child_ids(self, node_id: int) -> range:
        """The ids of a node's children: where the parent column names it."""
        p = self.parent_ids
        return range(bisect_left(p, node_id), bisect_right(p, node_id))

    def children_by_parent(self) -> dict[TreeNode, list[TreeNode]]:
        """Every node's children in id order, keyed by node; the whole-tree child index."""
        nodes = list(self.nodes)
        ranges = map(self.child_ids, range(len(nodes)))
        return {n: nodes[r.start : r.stop] for n, r in zip(nodes, ranges)}

    @property
    def leaves(self) -> list[TreeNode]:
        parents = set(self.parent_ids)
        return [TreeNode(self, i) for i in range(self.node_count) if i not in parents]

    def to_json_dict(self) -> dict:
        rows = enumerate(zip(self.gap_bits, self.gen_bits, self.parent_ids, self.removed))
        return {
            "metadata": {
                "c_set": list(self.c_set),
                "x_set": list(self.x_set) if self.x_set is not None else None,
                "bound": {"kind": self.bound.kind, "value": self.bound.value},
                "node_count": self.node_count,
                "truncated": self.truncated,
            },
            "nodes": [
                {"id": i, "msg": _ascending(gens), "frobenius": gaps.bit_length() - 1,
                 "genus": gaps.bit_count(), "parent_id": None if p < 0 else p,
                 "removed_generator": x or None}
                for i, (gaps, gens, p, x) in rows
            ],
        }

    def to_json(self) -> str:
        doc = self.to_json_dict()
        rows = doc.pop("nodes")
        dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
        # 64 rows per encoder call: one call would hold a chunk per value of the tree
        batches = (dumps(rows[k : k + 64])[1:-1] for k in range(0, len(rows), 64))
        return dumps(doc)[:-1] + ',"nodes":[' + ",".join(batches) + "]}"

    def to_text(self) -> str:
        """One line per node, depth-first and indented by depth, then a summary line."""
        gaps, gens, removed = self.gap_bits, self.gen_bits, self.removed
        kids = self.children_by_parent()
        lines = []
        stack = [] if self.root is None else [(self.root, 0)]
        while stack:
            n, depth = stack.pop()
            i = n.node_id
            g = gaps[i]
            head = f"remove {removed[i]} -> " if i else ""
            lines.append(
                f"{'  ' * depth}{head}{_msg_text(gens[i])} "
                f"frobenius={g.bit_length() - 1} genus={g.bit_count()}"
            )
            stack.extend((k, depth + 1) for k in reversed(kids[n]))
        lines.append(f"nodes={self.node_count} truncated={'true' if self.truncated else 'false'}")
        return "\n".join(lines)

    def to_dot(self) -> str:
        lines = ["digraph incentive_tree {"]
        lines += [f'  n{i} [label="{_msg_text(b)}"];' for i, b in enumerate(self.gen_bits)]
        edges = enumerate(zip(self.parent_ids, self.removed))
        lines += [f'  n{p} -> n{i} [label="{x}"];' for i, (p, x) in edges if p >= 0]
        return "\n".join(lines) + "\n}\n"


def _msg_text(gen_bits: int) -> str:
    """str() of the generating set whose mask is gen_bits, without building it."""
    return "⟨" + ",".join([str(g) for g in _ascending(gen_bits)]) + "⟩"


def max_numerical_incentive(c: IncentiveSpec | Iterable[int]) -> NumericalSemigroup:
    """The largest numerical semigroup honouring the constraint set.

    N itself when every adjustment is >= -2; otherwise {0, theta, ->},
    generated by theta, ..., 2*theta - 1.  Raises BoundTooLarge, before
    allocating, when theta exceeds ROOT_THETA_CEILING.
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
    if not (isinstance(x, int) and not isinstance(x, bool) and x > 0 and sg.gen_bits >> x & 1):
        raise InvalidRemoval(f"{x} is not a minimal generator of {sg}")
    if x <= sg.frobenius:
        raise InvalidRemoval(
            f"removing {x} from {sg} leaves a non-monoid; need x > frobenius {sg.frobenius}"
        )


def msg_after_removal(sg: NumericalSemigroup, x: int) -> GenSet:
    """Minimal generators of the semigroup minus one generator x > frobenius.

    This is children under the inert constraint set {0}, under which
    every removal is viable, and every other generator kept.
    """
    _check_removal(sg, x)
    return children(sg, (0,), [g for g in sg.msg.elements if g != x])[0][1].msg


def child_viable(sg: NumericalSemigroup, x: int, c: IncentiveSpec | Iterable[int]) -> bool:
    """Does the semigroup minus x still honour the constraint set?

    This is children with every other generator kept, so x is the one
    candidate: the mask rules answer for a semigroup that honours c, and
    for any other only the root can be the child.
    """
    spec = _as_spec(c)
    _check_removal(sg, x)
    return bool(children(sg, spec, [g for g in sg.msg.elements if g != x]))


def _expand(
    tree: IncentiveTree, level: Iterable[Sequence[int]] | None, shifts: tuple[int, ...],
    required: Collection[int], limit: int | None, truncated: bool, build: bool,
) -> tuple[bool, list[tuple[int, ...]] | None]:
    """Expand the tree's last level; append kept children to the columns.

    level holds the generator tuples of the tree's last level, the
    parents, each of which honours the adjustments shifts; None has each
    parent's rebuilt from its gen_bits when the scan reaches it.  A
    parent's candidates are the set bits of its mask above its Frobenius
    number, lowest first, minus those in required.  limit is the level's
    frobenius_limit (None: no bound).  Returns whether the tree is
    truncated and, when build is set, the kept children's generator
    tuples, the next level: the generator index moves forward from the
    first generator past the Frobenius number to each kept x.  Without
    build the children are appended as columns alone and None is
    returned.  The scan, its stops, the mask and the closed form are in
    the module docstring.
    """
    gap_col, gen_col = tree.gap_bits, tree.gen_bits
    parent_col, removed_col = tree.parent_ids, tree.removed
    first = tree.level_offsets[-2]
    if level is None:
        level = map(_ascending, gen_col[first:])
    offsets = [-c for c in shifts if c < 0]  # |c| of each c < 0
    lifts = [c for c in shifts if c > 0]
    kept: list[tuple[int, ...]] = []
    for p, elems in enumerate(level, first):
        gaps = gap_col[p]
        frobenius = gaps.bit_length() - 1
        if limit is None:
            fit = elems[-1]  # no candidate lies past the largest generator
        elif truncated and limit <= frobenius:
            if limit < 0:
                break  # no parent of this level can have a child
            continue  # every candidate x > frobenius lies past the bound
        else:
            fit = limit
        m = elems[0]
        gen_bits = ok = gen_col[p]
        rest = elems[1:]
        # bit x of ok: generator x passes every adjustment but -m
        need_new = False  # is -m in C?
        for d in offsets:
            if d == m:
                need_new = True
            else:
                ok &= gen_bits >> d
        if lifts:
            outside = ~(gaps | gen_bits | 1)  # bit v > 0: v is a member but no generator
            for c in lifts:
                if c < elems[-1]:  # a larger c passes every candidate x <= c
                    ok &= ~(outside << c)
        if frobenius < m:
            ok |= 1 << m  # the parent is {0, m, ->}, and minus m it still honours C
        i = bisect_right(elems, frobenius)
        # the candidates: the set bits of ok above frobenius, lowest first
        todo, x = ok >> (frobenius + 1), frobenius
        while todo:
            step = (todo & -todo).bit_length()
            todo >>= step
            x += step
            if x in required:
                continue
            fits = x <= fit  # x is the child's Frobenius number
            if not fits and truncated:
                break
            top = x + m
            if x != m:
                # every generator is at most frobenius + m < x + m, so
                # x + m - n_j is positive; x + m is new unless some other
                # non-multiplicity generator n_j leaves it a member
                new = 1
                for nj in rest:
                    if nj != x and not gaps >> (top - nj) & 1:
                        new = 0
                        break
                if need_new and not new:
                    continue
                bits = gen_bits ^ 1 << x | new << top  # new: x + m is a generator
            else:
                # the parent is {0, m, ->}; minus m it has m+1, ..., 2m+1
                bits = ((1 << (m + 1)) - 1) << (m + 1)
            if not fits:
                truncated = True
                break
            if build:
                if x != m:
                    while elems[i] != x:
                        i += 1
                    gens = elems[:i] + elems[i + 1 :]
                    if new:
                        gens += (top,)
                else:
                    gens = tuple(range(m + 1, 2 * m + 2))
                kept.append(gens)
            gap_col.append(gaps | 1 << x)
            gen_col.append(bits)
            parent_col.append(p)
            removed_col.append(x)
    return truncated, kept if build else None


def children(
    sg: NumericalSemigroup, c: IncentiveSpec | Iterable[int], x_set: Iterable[int] | None = None
) -> list[tuple[int, NumericalSemigroup]]:
    """Viable (removed generator, child) pairs in ascending generator order.

    x_set, when given, lists elements that must stay inside every node, so
    generators in it are never removed; its values must be plain integers.
    The mask rules hold only for a parent that honours c, as every tree
    node does.  Any other parent can have only the root as a child, so
    its one possible candidate is the multiplicity of the root's parent
    {0, theta - 1, ->}, whose removal needs no mask.
    """
    spec = _as_spec(c)
    required = () if x_set is None else frozenset(_int_set(x_set, "seed elements"))
    shifts = spec.shifts
    if not is_incentive(sg.msg, spec):
        # only {0, theta - 1, ->} has a child, the root, by removing its multiplicity
        root_parent = sg.frobenius < sg.multiplicity == spec.theta - 1
        shifts, required = (), {*required, *sg.msg.elements[1 if root_parent else 0 :]}
    tree = IncentiveTree(spec.shifts, None, EnumerationBound(MAX_DEPTH, 1))
    tree._plant(sg)
    _expand(tree, [sg.msg.elements], shifts, required, None, False, build=False)
    return [(n.removed_generator, n.semigroup) for n in tree.nodes[1:]]


def enumerate_tree(
    c: IncentiveSpec | Iterable[int], x_set: Iterable[int] | None, bound: EnumerationBound
) -> IncentiveTree:
    """Breadth-first tree of numerical semigroups honouring c, under a bound.

    With x_set given, only semigroups containing it are enumerated (its
    elements are never removed), after checking admissibility and that
    the root contains it.  Children are visited in ascending
    removed-generator order, so node ids are deterministic.  Without a
    bound value the family must be finite (is_finite_family).
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
    limit = bound.frobenius_limit(root_genus, 0)
    if limit is not None and root_frobenius > limit:
        tree.truncated = True
        return tree
    root = max_numerical_incentive(spec)
    tree._plant(root)
    required = frozenset(xs or ())
    # breadth-first: each pass expands the level the last one built, under
    # the limit of its children, and reads the limit of their children to
    # leave a level that can have none as columns alone
    level: list[tuple[int, ...]] | None = [root.msg.elements]
    limit = bound.frobenius_limit(root_genus + 1, 1)
    while True:
        depth = tree.max_depth + 2  # the depth of the grandchildren
        next_limit = bound.frobenius_limit(root_genus + depth, depth)
        size = tree.node_count
        tree.truncated, level = _expand(
            tree, level, spec.shifts, required, limit, tree.truncated, build=next_limit != -2
        )
        if tree.node_count == size:
            return tree
        tree.level_offsets.append(tree.node_count)
        limit = next_limit


def is_finite_family(c: IncentiveSpec | Iterable[int], x_set: Iterable[int]) -> bool:
    """Is the family of numerical semigroups honouring c and containing x_set finite?

    True iff gcd(c_set ∪ x_set) = 1: then the smallest closure is itself
    numerical and only finitely many semigroups sit between it and N.
    x_set must be non-empty (without it every {0, k, ->} with k at or
    above the threshold is a member), and the seeds must sit in the root.
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
    (scaled down by d).  includes_trivial: {0} qualifies too (no seeds given).
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
    generators are read off the membership table up to 2 * max_frobenius + 1.
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
