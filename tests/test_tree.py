import gc
import hashlib
import json
import math
import signal
import time
import tracemalloc
from contextlib import contextmanager

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import incentives.closure as closure_mod
import incentives.monoid as monoid_mod
import incentives.sequences as sequences_mod
import incentives.tree as tree_mod
from incentives import (
    MAX_DEPTH,
    MAX_FROBENIUS,
    MAX_GENUS,
    BoundTooLarge,
    DomainError,
    EnumerationBound,
    InvalidGenerators,
    NotAdmissible,
    RootMissesX,
    InvalidRemoval,
    ValueOutOfRange,
    brute_force_family,
    child_viable,
    children,
    closure_msg,
    decompose,
    enumerate_tree,
    is_finite_family,
    is_incentive,
    max_numerical_incentive,
    msg_after_removal,
    numerical_semigroup,
)
from capped import run_capped
from oracles import kunz_counts


SIX_CONSTRAINT_SETS = [(-3, 2), (-1, 1), (-2,), (-4, 6), (-2, 3), (1,)]


def test_max_numerical_incentive():
    assert max_numerical_incentive({-3, 2}).msg.elements == (3, 4, 5)
    assert max_numerical_incentive({-4, 6}).msg.elements == (4, 5, 6, 7)
    assert max_numerical_incentive({-2}).msg.elements == (1,)
    assert max_numerical_incentive({-1}).msg.elements == (1,)
    assert max_numerical_incentive({1}).msg.elements == (1,)
    assert max_numerical_incentive({-9}).msg.elements == tuple(range(9, 18))
    # the root is built directly; it must equal the generic construction
    for th in range(3, 40):
        root = max_numerical_incentive({-th})
        rebuilt = numerical_semigroup(range(th, 2 * th))
        assert (root.msg.elements, root.frobenius, root.gap_bits) == (
            rebuilt.msg.elements,
            rebuilt.frobenius,
            rebuilt.gap_bits,
        )
        assert root.frobenius == root.genus == th - 1
    naturals = max_numerical_incentive({-2})
    assert (naturals.frobenius, naturals.genus, naturals.gap_bits) == (-1, 0, 0)


def test_root_bound_settled_before_building():
    # {0, 2**31, ->} has 2**31 generators; only the guards keep these fast
    start = time.perf_counter()
    empty = enumerate_tree((-2**31,), None, EnumerationBound(MAX_GENUS, 5))
    assert empty.node_count == 0 and empty.truncated
    assert enumerate_tree((-2**31,), None, EnumerationBound(MAX_FROBENIUS, 9)).truncated
    with pytest.raises(BoundTooLarge):
        max_numerical_incentive((-2**31,))
    with pytest.raises(BoundTooLarge):
        max_numerical_incentive((-tree_mod.ROOT_THETA_CEILING - 1,))
    with pytest.raises(BoundTooLarge):
        enumerate_tree((-2**31,), None, EnumerationBound(MAX_GENUS, None))
    with pytest.raises(RootMissesX):
        enumerate_tree((-2**31,), (2**30,), EnumerationBound(MAX_GENUS, None))
    # slices d = 2**k with root genus 2**(31-k) - 1 <= 5 are built, the rest are cut
    dec = decompose((-2**31,), None, EnumerationBound(MAX_GENUS, 5))
    assert len(dec.trees) == 32
    assert [d for d, t in dec.trees.items() if t.node_count] == [2**29, 2**30, 2**31]
    assert time.perf_counter() - start < 1.0


KNOWN_REMOVALS = {
    ((3, 4, 5), 3): (4, 5, 6, 7),
    ((3, 4, 5), 4): (3, 5, 7),
    ((3, 4, 5), 5): (3, 4,),
    ((3, 5, 7), 5): (3, 7, 8),
    ((5, 7, 8, 9, 11), 8): (5, 7, 9, 11, 13),
    ((1,), 1): (2, 3),
    ((2, 3), 2): (3, 4, 5),
    ((6, 7, 8, 9, 10, 11), 7): (6, 8, 9, 10, 11, 13),
    ((6, 7, 8, 9, 10, 11), 6): (7, 8, 9, 10, 11, 12, 13),
}


def test_msg_after_removal_known_values():
    for (gens, x), want in KNOWN_REMOVALS.items():
        sg = numerical_semigroup(gens)
        assert msg_after_removal(sg, x).elements == want, (gens, x)


def test_msg_after_removal_errors():
    sg = numerical_semigroup((5, 7, 9, 11, 13))
    with pytest.raises(InvalidRemoval):
        msg_after_removal(sg, 7)  # 7 <= frobenius 8
    with pytest.raises(InvalidRemoval):
        msg_after_removal(sg, 10)  # not a generator


def _brute_msg_after(sg, x):
    # every value past 2x + 1 is a sum of two members above the new
    # frobenius number x, so scanning to 2x + 2 finds every generator
    top = 2 * x + 2
    members = sorted(v for v in range(1, top + 1) if v in sg and v != x)
    mset = set(members)
    return tuple(
        v
        for v in members
        if not any(a in mset and v - a in mset for a in range(1, v // 2 + 1))
    )


def test_msg_after_removal_matches_brute_force():
    for sg in brute_force_family((0,), 8).values():
        for x in sg.msg.elements:
            if x <= sg.frobenius:
                continue
            got = msg_after_removal(sg, x).elements
            assert got == _brute_msg_after(sg, x), (sg.msg.elements, x)


def test_public_child_functions_keep_their_errors():
    sg = numerical_semigroup((5, 7, 9, 11, 13))
    with pytest.raises(InvalidRemoval, match=r"^removing 7 from ⟨5,7,9,11,13⟩ leaves a non-monoid; need x > frobenius 8$"):
        child_viable(sg, 7, {-3, 2})
    with pytest.raises(InvalidRemoval, match=r"^10 is not a minimal generator of ⟨5,7,9,11,13⟩$"):
        child_viable(sg, 10, {-3, 2})
    for bad in (True, 9.0):
        with pytest.raises(InvalidRemoval):
            child_viable(sg, bad, {-3, 2})
    # on N the bool True would pass for its generator 1
    naturals = numerical_semigroup((1,))
    assert child_viable(naturals, 1, {-2}) and msg_after_removal(naturals, 1).elements == (2, 3)
    with pytest.raises(InvalidRemoval, match=r"^True is not a minimal generator of ⟨1⟩$"):
        child_viable(naturals, True, {-2})
    with pytest.raises(InvalidRemoval, match=r"^True is not a minimal generator of ⟨1⟩$"):
        msg_after_removal(naturals, True)
    for call in (lambda c: child_viable(sg, 9, c), lambda c: children(sg, c)):
        with pytest.raises(InvalidGenerators, match="adjustments must be plain integers, got True"):
            call([-3, True])
        with pytest.raises(InvalidGenerators, match="at least one adjustment"):
            call([])


def test_large_root_expands_on_masks():
    # {0, theta, ->} at the ceiling: each of its theta removals is tested
    # on masks, without copying its theta generators
    th = tree_mod.ROOT_THETA_CEILING
    start = time.perf_counter()
    tree = enumerate_tree((-th,), None, EnumerationBound(MAX_GENUS, th))
    assert time.perf_counter() - start < 5.0
    assert [n.removed_generator for n in tree.nodes] == [None, th, th + 1]
    assert tree.nodes[1].semigroup.msg.elements == tuple(range(th + 1, 2 * th + 2))


def _msg_bits_from_gaps(gaps):
    """Generator mask of the semigroup with gap mask gaps, by a sum test alone.

    The non-zero members up to F + 2m + 1 that are no sum of two of them;
    every minimal generator is at most F + m.
    """
    m = 1
    while gaps >> m & 1:
        m += 1
    top = gaps.bit_length() + 2 * m  # F + 2m + 1
    members = ~gaps & ((1 << top + 1) - 2)
    sums = 0
    for a in range(m, top + 1):
        if members >> a & 1:
            sums |= members << a
    return members & ~sums


def test_long_reversed_masks_give_every_generator():
    # each child's x + m test reads its parent's reversed gap mask shifted
    # by x + m - F; a shift off by one gains or loses generators
    tree = enumerate_tree((-7, 3), None, EnumerationBound(MAX_GENUS, 24))
    assert tree.node_count == 16452
    assert tree.gen_bits == [_msg_bits_from_gaps(g) for g in tree.gap_bits]
    parent = max_numerical_incentive((-300,))
    sizes = []
    for cs in [(0,), (-300,), (-299, 7)]:
        kids = children(parent, cs)
        sizes.append(len(kids))
        for _, sg in kids:
            assert sg.gen_bits == _msg_bits_from_gaps(sg.gap_bits)
    assert sizes == [300, 2, 1]


@pytest.mark.parametrize(
    "call, result",
    [
        ("enumerate_tree((-3, 2**31), None, EnumerationBound('max_genus', 8)).level_sizes",
         "[1, 2, 2, 4, 6, 8, 14]"),  # the sizes of {-3}'s tree
        ("child_viable(numerical_semigroup((3, 4, 5)), 4, (2**31,))", "True"),
        ("enumerate_tree((-3, 2), (2**31,), EnumerationBound('max_genus', 8)).level_sizes",
         "[1, 2, 2, 3, 5, 6, 11]"),  # a seed is looked up, never put in a mask
    ],
)
def test_an_adjustment_past_every_generator_is_never_shifted(call, result):
    # c = 2**31 passes every candidate x <= c; shifting a mask by it would
    # build 256 MiB ints for a single parent, more than the 512 MiB cap
    # allows, and so would a mask of seeds holding 2**31
    got, seconds = run_capped(
        2**29,
        [
            "from incentives import EnumerationBound, child_viable, enumerate_tree, numerical_semigroup",
            "start = time.perf_counter()",
            f"print({call})",
            "print(time.perf_counter() - start)",
        ],
    )
    assert got == result
    assert float(seconds) < 1


def test_children_of_a_huge_parent_are_refused_before_any_record():
    # under {0} every generator of {0, 2**16, ->} is kept, and each child
    # holds about 2**16 generators: some 160 GB in all, refused after 32
    # children.  Under its own C the same parent has two children, and the
    # single removals have one candidate; all keep answering under the cap
    out = run_capped(
        2**29,
        [
            "from incentives import BoundTooLarge, child_viable, children, "
            "max_numerical_incentive, msg_after_removal",
            "th = 2**16",
            "root = max_numerical_incentive((-th,))",
            "start = time.perf_counter()",
            "try:",
            "    children(root, (0,))",
            "except BoundTooLarge as e:",
            "    print(e)",
            "print(time.perf_counter() - start)",
            "start = time.perf_counter()",
            "print([x for x, _ in children(root, (-th,))])",
            "print(child_viable(root, th + 1, (-th,)), child_viable(root, th + 2, (-th,)))",
            "print(len(msg_after_removal(root, th + 5)))",
            "print(time.perf_counter() - start)",
        ],
    )
    assert out[0] == (
        "the children of ⟨65536,...,131071⟩ (65536 generators, Frobenius number 65535) "
        "under {0} would hold more than 2097152 generators, the cap on one parent's children"
    )
    assert float(out[1]) < 0.5
    assert out[2:5] == ["[65536, 65537]", "True False", "65535"]
    assert float(out[5]) < 5


def test_children_ceiling_counts_kept_children_times_generators(monkeypatch):
    # {0, 1449, ->} keeps all 1449 children of 1449 generators under {0},
    # past 2**21, but only two under its own C
    big = max_numerical_incentive((-1449,))
    with pytest.raises(BoundTooLarge, match=r"^the children of ⟨1449,\.\.\.,2897⟩ "):
        children(big, (0,))
    assert [x for x, _ in children(big, (-1449,))] == [1449, 1450]
    # seeds are no children: under a ceiling of 12, {0, 4, ->} (4 x 4)
    # is refused, and answered with its multiplicity kept (3 x 4)
    monkeypatch.setattr(tree_mod, "_CHILDREN_CEILING", 12)
    small = max_numerical_incentive((-4,))
    with pytest.raises(BoundTooLarge, match=r"under \{0\} would hold more than 12 generators, the cap on one parent's children$"):
        children(small, (0,))
    assert [x for x, _ in children(small, (0,), (4,))] == [5, 6, 7]
    # one child is always kept, however many generators it holds
    monkeypatch.setattr(tree_mod, "_CHILDREN_CEILING", 2)
    assert msg_after_removal(small, 5).elements == (4, 6, 7, 9)
    assert child_viable(small, 5, (-4,))
    with pytest.raises(BoundTooLarge, match=r"more than 2 generators"):
        children(small, (0,), (4, 5))
    # enumerate_tree expands with the same rule: {0, 3, ->} has 3 children
    monkeypatch.setattr(tree_mod, "_CHILDREN_CEILING", 6)
    with pytest.raises(BoundTooLarge, match=r"^the children of ⟨3,\.\.\.,5⟩ .* under \{0\} would hold more than 6 "):
        enumerate_tree((0,), None, EnumerationBound(MAX_DEPTH, 3))


def test_single_removals_build_one_child(monkeypatch):
    # child_viable and msg_after_removal keep every other generator, so
    # a root with a thousand candidates yields at most one child record
    th = 2**10
    root = max_numerical_incentive((-th,))
    built = []
    derived = monoid_mod.NumericalSemigroup._derived

    def counting(*args):
        built.append(args[1])
        return derived(*args)

    monkeypatch.setattr(monoid_mod.NumericalSemigroup, "_derived", staticmethod(counting))
    assert th + 5 not in msg_after_removal(root, th + 5).elements
    assert child_viable(root, th + 1, (-th,))
    assert not child_viable(root, th + 2, (-th,))
    assert built == [th + 5, th + 1]


def test_child_viable_battery():
    s = numerical_semigroup((5, 7, 9, 11, 13))
    assert not child_viable(s, 9, {-3, 2})
    assert not child_viable(s, 11, {-3, 2})
    assert not child_viable(s, 13, {-3, 2})
    s2 = numerical_semigroup((5, 7, 8, 9, 11))
    assert child_viable(s2, 8, {-3, 2})
    assert not child_viable(s2, 7, {-3, 2})
    assert not child_viable(s2, 9, {-3, 2})
    assert not child_viable(s2, 11, {-3, 2})
    root = numerical_semigroup((3, 4, 5))
    assert child_viable(root, 3, {-3, 2})
    assert child_viable(root, 4, {-3, 2})
    assert not child_viable(root, 5, {-3, 2})


def test_child_viable_smallest_generator_cases():
    # removing the multiplicity adds generators 2m and 2m+1; testing x
    # against the parent's generators instead would reject these, but the
    # children really do qualify
    naturals = numerical_semigroup((1,))
    assert child_viable(naturals, 1, {-2})
    assert child_viable(naturals, 1, {-1})
    half_free = numerical_semigroup((2, 3))
    assert child_viable(half_free, 2, {-2})
    # {0, 3, ->} minus 3 is {0, 4, ->}, which honours C iff theta <= 4,
    # whether or not the parent does
    assert child_viable(numerical_semigroup((3, 4, 5)), 3, {-4})
    assert not child_viable(numerical_semigroup((3, 4, 5)), 3, {-5})


def test_child_viable_zero_difference_is_ignored():
    # x - c = 0 must never count against the child
    sg = numerical_semigroup((2, 3))
    assert child_viable(sg, 3, {3})


def test_child_viable_matches_is_incentive_of_the_child():
    # the viability scan answers against the pair test on the child
    cases = 0
    for cs in SIX_CONSTRAINT_SETS:
        for sg in brute_force_family(cs, 9).values():
            for x in sg.msg.elements:
                if x > sg.frobenius:
                    cases += 1
                    want = is_incentive(msg_after_removal(sg, x), cs)
                    assert child_viable(sg, x, cs) == want, (cs, sg, x)
    assert cases == 748


# every numerical semigroup with F <= 12 that has a generator above F,
# and the ordinary ones {0, m, ->}, whose x = m child gains 2m + 1
MASK_PARENTS = [
    sg for sg in brute_force_family((0,), 12).values() if sg.msg.elements[-1] > sg.frobenius
]
ORDINARY_PARENTS = sorted(
    (sg for sg in MASK_PARENTS if sg.frobenius < sg.msg.elements[0]), key=lambda sg: sg.frobenius
)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_mask_verdicts_match_the_pair_test_at_its_corners(data):
    # adjustments at the mask's edges: -m (decided by the new generator
    # x + m), -(m + 1) (where the x = m child differs from the parent),
    # c >= x (x - c <= 0 passes) and c >= the largest generator (never
    # shifted); the parent honours C, as every tree node does
    sg = data.draw(st.sampled_from(ORDINARY_PARENTS) | st.sampled_from(MASK_PARENTS))
    gens = sg.msg.elements
    m, top = gens[0], gens[-1]
    candidates = [x for x in gens if x > sg.frobenius]
    corner = (
        st.sampled_from([-m, -(m + 1)])
        | st.integers(candidates[0], top)
        | st.integers(top, top + 9)
        | st.integers(-13, 13)
    )
    cs = data.draw(st.lists(corner, min_size=1, max_size=3))
    assume(is_incentive(gens, cs))
    want = [x for x in candidates if is_incentive(_brute_msg_after(sg, x), cs)]
    assert [x for x, _ in children(sg, cs)] == want


def test_a_parent_outside_the_family_can_have_only_the_root_as_a_child():
    # <3,5,7> fails {-2} (3 + 3 - 2 = 4); its child <3,7,8> fails too,
    # and the x - c rule alone would pass it
    sg = numerical_semigroup((3, 5, 7))
    assert msg_after_removal(sg, 5).elements == (3, 7, 8)
    assert not child_viable(sg, 5, {-2})
    assert children(sg, {-2}) == []
    # {0, 3, ->} fails {-4}; minus 3 it is {0, 4, ->}, the root for {-4},
    # unless 3 must stay
    assert children(numerical_semigroup((3, 4, 5)), {-4}) == [
        (3, max_numerical_incentive({-4}))
    ]
    assert children(numerical_semigroup((3, 4, 5)), {-4}, x_set=(3,)) == []
    # no child of a large parent is built or tested: the {-4097} root
    # has 4,097 candidates, and under {1} only N, no child, qualifies
    root = max_numerical_incentive({-4097})
    wide = numerical_semigroup((3, 2**20 + 1, 2**20 + 2))
    with _time_budget(1.0):
        assert children(root, {-4098}) == [(4097, max_numerical_incentive({-4098}))]
        assert children(root, {-8192}) == []
        assert children(wide, {1}) == []


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_public_steps_match_the_pair_test_on_any_parent(data):
    # parents need not honour C; one that does not can only have the
    # root as a child, since adding its Frobenius number to a member
    # other than the root gives a member (the pseudo-variety axiom)
    sg = data.draw(st.sampled_from(MASK_PARENTS))
    cs = data.draw(st.lists(st.integers(-13, 13), min_size=1, max_size=3))
    candidates = [x for x in sg.msg.elements if x > sg.frobenius]
    x = data.draw(st.sampled_from(candidates))
    assert child_viable(sg, x, cs) == is_incentive(msg_after_removal(sg, x), cs)
    want = [(v, _brute_msg_after(sg, v)) for v in candidates]
    want = [(v, gens) for v, gens in want if is_incentive(gens, cs)]
    got = children(sg, cs)
    assert [(v, child.msg.elements) for v, child in got] == want
    if not is_incentive(sg.msg, cs):
        assert all(child == max_numerical_incentive(cs) for _, child in got)


def test_children_respect_seed_elements():
    root = numerical_semigroup((3, 4, 5))
    all_kids = children(root, (-3, 2))
    assert [x for x, _ in all_kids] == [3, 4]
    kept = children(root, (-3, 2), x_set=(3,))
    assert [x for x, _ in kept] == [4]


@pytest.mark.parametrize(
    "bad, error, text",
    [
        ([4.0], InvalidGenerators, "seed elements must be plain integers, got 4.0"),
        (["a"], InvalidGenerators, "seed elements must be plain integers, got 'a'"),
        ([True], InvalidGenerators, "seed elements must be plain integers, got True"),
        ([2**40], ValueOutOfRange, rf"seed elements are capped at 2\*\*31 in magnitude, got {2**40}"),
    ],
)
def test_children_validate_seed_elements_like_enumerate_tree(bad, error, text):
    root = numerical_semigroup((3, 4, 5))
    with pytest.raises(error, match=f"^{text}$"):
        children(root, (-3, 2), x_set=bad)
    with pytest.raises(error, match=f"^{text}$"):
        enumerate_tree((-3, 2), bad, EnumerationBound(MAX_GENUS, 3))


# (msg, parent msg, removed generator) rows of the full C={-3,2} tree
# to frobenius 8, hand-checked against child_viable and msg_after_removal
FULL_TREE_F8 = [
    ((3, 4, 5), None, None),
    ((4, 5, 6, 7), (3, 4, 5), 3),
    ((3, 5, 7), (3, 4, 5), 4),
    ((5, 6, 7, 8, 9), (4, 5, 6, 7), 4),
    ((3, 7, 8), (3, 5, 7), 5),
    ((6, 7, 8, 9, 10, 11), (5, 6, 7, 8, 9), 5),
    ((5, 7, 8, 9, 11), (5, 6, 7, 8, 9), 6),
    ((3, 8, 10), (3, 7, 8), 7),
    ((7, 8, 9, 10, 11, 12, 13), (6, 7, 8, 9, 10, 11), 6),
    ((6, 8, 9, 10, 11, 13), (6, 7, 8, 9, 10, 11), 7),
    ((6, 7, 9, 10, 11), (6, 7, 8, 9, 10, 11), 8),
    ((5, 7, 9, 11, 13), (5, 7, 8, 9, 11), 8),
    ((8, 9, 10, 11, 12, 13, 14, 15), (7, 8, 9, 10, 11, 12, 13), 7),
    ((7, 9, 10, 11, 12, 13, 15), (7, 8, 9, 10, 11, 12, 13), 8),
    ((6, 9, 10, 11, 13, 14), (6, 8, 9, 10, 11, 13), 8),
    ((9, 10, 11, 12, 13, 14, 15, 16, 17), (8, 9, 10, 11, 12, 13, 14, 15), 8),
]


def test_tree_golden_structure():
    tree = enumerate_tree({-3, 2}, None, EnumerationBound(MAX_FROBENIUS, 8))
    got = [
        (
            n.semigroup.msg.elements,
            n.parent.semigroup.msg.elements if n.parent else None,
            n.removed_generator,
        )
        for n in tree.nodes
    ]
    assert got == FULL_TREE_F8
    assert tree.truncated
    assert [n.node_id for n in tree.nodes] == list(range(16))
    for n in tree.nodes:
        if n.parent is not None:
            assert n.semigroup.frobenius == n.removed_generator
            assert n.semigroup.genus == n.parent.semigroup.genus + 1
            assert n.depth == n.parent.depth + 1


def test_restricted_tree_golden():
    tree = enumerate_tree({-3, 2}, {5}, EnumerationBound(MAX_DEPTH, 10))
    assert tree.node_count == 6
    assert not tree.truncated
    msgs = [n.semigroup.msg.elements for n in tree.nodes]
    assert msgs == [
        (3, 4, 5),
        (4, 5, 6, 7),
        (3, 5, 7),
        (5, 6, 7, 8, 9),
        (5, 7, 8, 9, 11),
        (5, 7, 9, 11, 13),
    ]
    for n in tree.nodes:
        assert 5 in n.semigroup
    leaves = {n.semigroup.msg.elements for n in tree.leaves}
    assert leaves == {(3, 5, 7), (5, 7, 9, 11, 13)}


@contextmanager
def _time_budget(seconds):
    """Fail with TimeoutError, instead of hanging, once seconds have passed."""

    def expired(signum, frame):
        raise TimeoutError(f"over the {seconds} s budget")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(lambda b: enumerate_tree((-3, 2), None, b), id="no-seeds"),
        pytest.param(lambda b: enumerate_tree((0,), None, b), id="root-N"),
        pytest.param(lambda b: enumerate_tree((-4, 6), (4, 8), b), id="seed-gcd-2"),
        pytest.param(lambda b: decompose((-2, 4), (4,), b), id="decompose-slice-1"),
    ],
)
def test_unbounded_enumeration_of_infinite_family_is_refused(run):
    with _time_budget(1.0), pytest.raises(BoundTooLarge, match="infinite"):
        run(EnumerationBound(MAX_GENUS, None))
    # a bound value makes the same family enumerable
    with _time_budget(1.0):
        run(EnumerationBound(MAX_GENUS, 4))


def test_unbounded_enumeration_of_finite_family():
    tree = enumerate_tree({-3, 2}, {5}, EnumerationBound(MAX_GENUS, None))
    assert tree.node_count == 6
    assert not tree.truncated
    deepest = max(tree.nodes, key=lambda n: n.depth)
    r = closure_msg({5}, {-3, 2})
    assert deepest.semigroup.msg.elements == r.msg.elements


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_closure_is_the_intersection_of_its_finite_family(data):
    # the C-incentives containing X with gcd(X ∪ C) = 1 form a finite
    # family closed under intersection, so the smallest closure is the
    # intersection of every node, and the only node of maximal genus
    cs = data.draw(st.sets(st.integers(-5, 5), min_size=1, max_size=3))
    th = max(-min(cs), 1)
    xs = data.draw(st.sets(st.integers(th, th + 12), min_size=1, max_size=3))
    assume(math.gcd(*xs, *cs) == 1)
    closure = closure_msg(xs, cs).semigroup
    assume(closure.genus <= 10)
    family = [n.semigroup for n in enumerate_tree(cs, xs, EnumerationBound(MAX_GENUS, None)).nodes]
    gaps = 0
    for sg in family:
        gaps |= sg.gap_bits
    assert gaps == closure.gap_bits
    top = max(sg.genus for sg in family)
    assert [sg for sg in family if sg.genus == top] == [closure]


def _assert_nodes_rebuild(tree):
    """Every derived node record equals the one numerical_semigroup builds."""
    for n in tree.nodes:
        sg = n.semigroup
        rebuilt = numerical_semigroup(sg.msg.elements)
        assert (sg.frobenius, sg.gap_bits, sg.gen_bits) == (
            rebuilt.frobenius,
            rebuilt.gap_bits,
            rebuilt.gen_bits,
        ), sg


def test_tree_matches_brute_force():
    for cs in SIX_CONSTRAINT_SETS:
        tree = enumerate_tree(cs, None, EnumerationBound(MAX_FROBENIUS, 10))
        assert {n.semigroup.msg.elements for n in tree.nodes} == set(
            brute_force_family(cs, 10)
        ), cs
        _assert_nodes_rebuild(tree)


def test_restricted_tree_matches_filtered_brute_force():
    for cs, xs in [((-3, 2), (5,)), ((-2,), (3,)), ((-1, 1), (2, 7))]:
        tree = enumerate_tree(cs, xs, EnumerationBound(MAX_FROBENIUS, 11))
        want = {
            m
            for m, sg in brute_force_family(cs, 11).items()
            if all(x in sg for x in xs)
        }
        assert {n.semigroup.msg.elements for n in tree.nodes} == want, (cs, xs)
        _assert_nodes_rebuild(tree)


# OEIS A007323: numerical semigroups of genus g, g = 0..18
A007323 = (
    1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693, 2857, 4806, 8045, 13467
)


def test_unconstrained_tree_genus_counts_match_a007323():
    # C = {0} constrains nothing, so the tree holds every numerical semigroup
    tree = enumerate_tree((0,), None, EnumerationBound(MAX_GENUS, 18))
    counts = [0] * 19
    for n in tree.nodes:
        counts[n.semigroup.genus] += 1
    assert tuple(counts) == A007323
    assert tree.node_count == 33282
    assert tree.truncated


# the five trees of the tree benchmark, each at its genus bound
BENCHMARK_TREES = [((0,), 18), ((-3, 2), 19), ((5,), 18), ((-7, 3), 20), ((-5, 1, 4), 20)]


# the six small sets run through the same mask and had no count pin past
# brute_force_family's Frobenius number 18
@pytest.mark.parametrize("cs, genus", BENCHMARK_TREES + [(cs, 16) for cs in SIX_CONSTRAINT_SETS])
def test_tree_level_sizes_match_the_kunz_count(cs, genus):
    # every node of depth d has the root's genus plus d, and the Kunz
    # oracle counts the family by genus without building a semigroup
    tree = enumerate_tree(cs, None, EnumerationBound(MAX_GENUS, genus))
    root_genus = tree.root.semigroup.genus
    counts = kunz_counts(cs, genus)
    assert counts[:root_genus] == [0] * root_genus
    assert counts[root_genus:] == tree.level_sizes


def test_tree_errors():
    bound = EnumerationBound(MAX_GENUS, 5)
    with pytest.raises(NotAdmissible):
        enumerate_tree({-4}, {3}, bound)
    with pytest.raises(RootMissesX):
        enumerate_tree({-4, 6}, {2}, bound)
    with pytest.raises(DomainError):
        EnumerationBound("max_weight", 3)
    with pytest.raises(DomainError):
        EnumerationBound(MAX_GENUS, -1)
    for flag in (True, False):
        with pytest.raises(DomainError):
            EnumerationBound(MAX_GENUS, flag)


def test_bound_truncation():
    empty = enumerate_tree({-9}, None, EnumerationBound(MAX_FROBENIUS, 5))
    assert empty.node_count == 0
    assert empty.truncated
    assert empty.max_depth == -1

    stump = enumerate_tree({-3, 2}, {5}, EnumerationBound(MAX_DEPTH, 0))
    assert stump.node_count == 1
    assert stump.truncated

    genus_cut = enumerate_tree({-3, 2}, None, EnumerationBound(MAX_GENUS, 4))
    assert genus_cut.node_count == 5
    assert genus_cut.truncated
    assert all(n.semigroup.genus <= 4 for n in genus_cut.nodes)


def test_json_round_trip():
    tree = enumerate_tree({-3, 2}, {5}, EnumerationBound(MAX_DEPTH, 10))
    doc = json.loads(tree.to_json())
    assert doc["metadata"]["node_count"] == 6
    assert doc["metadata"]["c_set"] == [-3, 2]
    assert doc["metadata"]["x_set"] == [5]
    assert doc["metadata"]["truncated"] is False
    by_id = {row["id"]: row for row in doc["nodes"]}
    assert len(by_id) == tree.node_count
    for n in tree.nodes:
        row = by_id[n.node_id]
        assert row["msg"] == list(n.semigroup.msg.elements)
        assert row["frobenius"] == n.semigroup.frobenius
        assert row["genus"] == n.semigroup.genus
        assert row["parent_id"] == (n.parent.node_id if n.parent else None)
        assert row["removed_generator"] == n.removed_generator


def test_to_json_is_the_json_of_to_json_dict():
    # to_json encodes its rows in batches; counts here cross the batch size
    trees = [enumerate_tree((0,), None, EnumerationBound(MAX_GENUS, g)) for g in range(9)]
    trees.append(enumerate_tree({-9}, None, EnumerationBound(MAX_FROBENIUS, 5)))
    assert [t.node_count for t in trees] == [1, 2, 4, 8, 15, 27, 50, 89, 156, 0]
    for tree in trees:
        want = json.dumps(tree.to_json_dict(), sort_keys=True, separators=(",", ":"))
        assert tree.to_json() == want


def test_dot_output():
    tree = enumerate_tree({-4, 6}, None, EnumerationBound(MAX_GENUS, 4))
    dot = tree.to_dot()
    assert dot.startswith("digraph")
    assert 'n0 [label="⟨4,5,6,7⟩"];' in dot
    assert 'n0 -> n1 [label="4"];' in dot
    assert dot.count("->") == tree.node_count - 1


# sha256 of to_json() for the five fixed trees of the tree benchmark
# (bench/workloads.py, Tree.FIXED): any change to the expansion must keep
# these bytes
TREE_JSON_SHA256 = {
    ((0,), 18): "344c226982d3cde79f92eb5a59c3eb01b6b16763e5bc653e359e166bbdb0433c",
    ((-3, 2), 19): "840918f85fc09d2821bafa6c3c7a98652823df63b2b062daf328a3c43642c11d",
    ((5,), 18): "2ca6cd8635e0adf224c09ceaf57eed6880ad36a122bb2431c35da74b25a3c4fd",
    ((-7, 3), 20): "f67bbfc404692eea91ada1e19e2df34e88e3de3e8cb3a2f0252472d8cfb93ce6",
    ((-5, 1, 4), 20): "cffca16c82ddd7fe117b587c4945b8682a4147f7006587c40071acbc1e321d94",
}


@pytest.mark.parametrize("cs, genus", list(TREE_JSON_SHA256))
def test_tree_json_bytes_are_pinned(cs, genus):
    tree = enumerate_tree(cs, None, EnumerationBound(MAX_GENUS, genus))
    digest = hashlib.sha256(tree.to_json().encode()).hexdigest()
    assert digest == TREE_JSON_SHA256[cs, genus]


def test_is_finite_family():
    assert is_finite_family({-3, 2}, {5})
    assert is_finite_family({-4, 6}, {4, 9})
    assert not is_finite_family({-4, 6}, {4, 8})
    with pytest.raises(DomainError):
        is_finite_family({-3, 2}, set())
    with pytest.raises(NotAdmissible):
        is_finite_family({-4}, {3})


def test_finite_family_is_actually_finite():
    # gcd 1 means the family bottoms out at the closure of the seeds
    tree = enumerate_tree({-4, 6}, {4, 9}, EnumerationBound(MAX_GENUS, None))
    assert not tree.truncated
    r = closure_msg({4, 9}, {-4, 6})
    deepest = max(tree.nodes, key=lambda n: n.depth)
    assert deepest.semigroup.msg.elements == r.msg.elements


def test_decompose_without_seeds():
    dec = decompose((-4, 6), None, EnumerationBound(MAX_GENUS, 4))
    assert dec.includes_trivial
    assert sorted(dec.trees) == [1, 2]
    d1 = dec.trees[1]
    assert d1.root.semigroup.msg.elements == (4, 5, 6, 7)
    d2 = dec.trees[2]
    assert d2.c_set == (-2, 3)
    assert d2.root.semigroup.msg.elements == (1,)
    # the divisor-2 slice must agree with brute force filtered by genus
    want = {
        m
        for m, sg in brute_force_family((-2, 3), 9).items()
        if sg.genus <= 4
    }
    assert {n.semigroup.msg.elements for n in d2.nodes} == want


def test_decompose_with_seeds():
    dec = decompose((-4, 6), {2}, EnumerationBound(MAX_GENUS, 6))
    assert not dec.includes_trivial
    assert sorted(dec.trees) == [1, 2]
    assert dec.trees[1].node_count == 0  # 2 lies outside <4,5,6,7>
    assert dec.trees[2].node_count == 1  # N itself, and 1 can never be removed
    assert dec.trees[2].root.semigroup.msg.elements == (1,)


def test_decompose_many_divisors():
    # 96996900 = 2^2 * 3 * 5^2 * 7 * 11 * 13 * 17 * 19 has 3*2*3*2**5 = 576 divisors
    g = 96996900
    dec = decompose((g,), None, EnumerationBound(MAX_GENUS, 0))
    divisors = list(dec.trees)
    assert len(divisors) == 576
    assert divisors == sorted(divisors)
    assert divisors[0] == 1 and divisors[-1] == g
    assert all(g % d == 0 for d in divisors)
    assert all(t.node_count == 1 and t.truncated for t in dec.trees.values())


def test_decompose_errors():
    with pytest.raises(DomainError):
        decompose((0,), None, EnumerationBound(MAX_GENUS, 3))
    with pytest.raises(NotAdmissible):
        decompose((-4,), {3}, EnumerationBound(MAX_GENUS, 3))


def test_brute_force_family_small_counts():
    # with no effective constraint this is every numerical semigroup F <= 3
    fam = brute_force_family((0,), 3)
    assert set(fam) == {(1,), (2, 3), (3, 4, 5), (2, 5), (4, 5, 6, 7)}
    for sg in fam.values():
        assert sg.frobenius <= 3


def test_brute_force_family_cap():
    with pytest.raises(BoundTooLarge):
        brute_force_family((-2,), 19)


def test_brute_force_members_are_incentives():
    from incentives import is_incentive

    fam = brute_force_family((-3, 2), 9)
    for m, sg in fam.items():
        assert sg.msg.elements == m
        assert is_incentive(m, (-3, 2))


def test_children_by_parent_matches_parent_links():
    tree = enumerate_tree((0,), None, EnumerationBound(MAX_GENUS, 15))
    assert tree.node_count >= 5000
    want = {n.node_id: [] for n in tree.nodes}
    for n in tree.nodes:
        if n.parent is not None:
            want[n.parent.node_id].append(n.node_id)
    kids = tree.children_by_parent()
    assert list(kids) == list(tree.nodes)
    assert {n.node_id: [k.node_id for k in ks] for n, ks in kids.items()} == want
    assert all(k.parent == n for n, ks in kids.items() for k in ks)
    # each node's children are the contiguous id range whose parent
    # column entries name that node
    by_parent = {}
    for i, p in enumerate(tree.parent_ids):
        by_parent.setdefault(p, []).append(i)
    for n, ks in kids.items():
        ids = [k.node_id for k in ks]
        assert ids == by_parent.get(n.node_id, [])
        assert not ids or ids == list(range(ids[0], ids[-1] + 1))
        assert list(tree.child_ids(n.node_id)) == ids
    assert [n.node_id for n in tree.leaves] == [n.node_id for n, ks in kids.items() if not ks]


def test_records_are_slotted():
    node = enumerate_tree((-3, 2), None, EnumerationBound(MAX_GENUS, 3)).nodes[-1]
    for record in (node, node.semigroup, node.semigroup.msg):
        assert not hasattr(record, "__dict__"), type(record).__name__


def test_nodes_are_a_read_only_sequence_of_views():
    tree = enumerate_tree((-3, 2), None, EnumerationBound(MAX_GENUS, 6))
    nodes = tree.nodes
    assert len(nodes) == tree.node_count
    # each access builds a new view; views of one node are equal, not identical
    assert nodes[3] == nodes[3] and nodes[3] is not nodes[3]
    assert nodes[3] != nodes[4] and hash(nodes[3]) == hash(nodes[3])
    assert nodes[-1].node_id == tree.node_count - 1
    assert [n.node_id for n in nodes[2:5]] == [2, 3, 4]
    assert tree.root == nodes[0] and tree.root.parent is None
    with pytest.raises(IndexError):
        nodes[tree.node_count]
    with pytest.raises(TypeError):
        nodes[0] = nodes[1]
    assert not hasattr(nodes, "append")
    # a view of another tree's node with the same id is a different node
    other = enumerate_tree((-3, 2), None, EnumerationBound(MAX_GENUS, 6))
    assert other.nodes[3] != nodes[3]
    assert other.nodes[3].semigroup == nodes[3].semigroup


def test_tree_store_is_flat():
    # node data sits in int columns, so enumeration leaves no GC-tracked
    # object per node behind (three per node as records)
    bound = EnumerationBound(MAX_GENUS, 16)
    gc.collect()
    before = len(gc.get_objects())
    tree = enumerate_tree((0,), None, bound)
    assert tree.node_count == 11770
    assert len(gc.get_objects()) - before < 100
    del tree
    gc.collect()
    tracemalloc.start()
    try:
        tree = enumerate_tree((0,), None, bound)
        # a full collection empties the interpreter's tuple free lists,
        # which still hold the dropped generator tuples of the last level
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained / tree.node_count <= 160


def test_level_sizes_count_the_nodes_at_each_depth():
    # C = {0}: the root is N, so depth is genus and the sizes are A007323
    tree = enumerate_tree((0,), None, EnumerationBound(MAX_GENUS, 18))
    assert tuple(tree.level_sizes) == A007323
    assert tree.max_depth == 18
    tree = enumerate_tree((-3, 2), None, EnumerationBound(MAX_GENUS, 12))
    depths = [n.depth for n in tree.nodes]
    assert tree.level_sizes == [depths.count(d) for d in range(max(depths) + 1)]
    assert tree.max_depth == max(depths) and sum(tree.level_sizes) == tree.node_count
    empty = enumerate_tree({-9}, None, EnumerationBound(MAX_FROBENIUS, 5))
    assert (empty.level_sizes, empty.max_depth) == ([], -1)


def _allows(bound, frobenius, genus, depth):
    """The bound rule, written out: the node's measure is at most the value."""
    measure = {MAX_FROBENIUS: frobenius, MAX_GENUS: genus, MAX_DEPTH: depth}[bound.kind]
    return bound.value is None or measure <= bound.value


def _reference_tree(cs, xs, bound):
    """Build every viable child with children() and keep those _allows admits."""
    root = max_numerical_incentive(cs)
    if not _allows(bound, root.frobenius, root.genus, 0):
        return [], True
    rows = [(root.msg.elements, None, None)]
    truncated = False
    frontier = [(root, 0, 0)]
    while frontier:
        nxt = []
        for sg, node_id, depth in frontier:
            for x, child in children(sg, cs, xs):
                if not _allows(bound, child.frobenius, child.genus, depth + 1):
                    truncated = True
                    continue
                rows.append((child.msg.elements, node_id, x))
                nxt.append((child, len(rows) - 1, depth + 1))
        frontier = nxt
    return rows, truncated


def _rows(tree):
    return [
        (
            n.semigroup.msg.elements,
            n.parent.node_id if n.parent else None,
            n.removed_generator,
        )
        for n in tree.nodes
    ]


BOUND_CASES = [
    EnumerationBound(kind, value)
    for kind, values in (
        (MAX_FROBENIUS, (0, 4, 12)),
        (MAX_GENUS, (0, 3, 10)),
        (MAX_DEPTH, (0, 2, 7)),
    )
    for value in values
]
TREE_CASES = [
    ((0,), None),
    ((-3, 2), None),
    ((5,), None),
    ((-7, 3), None),
    ((-5, 1, 4), None),
    ((-3, 2), (5,)),
    ((-4, 6), (4, 9)),
    ((-1, 1), (2, 7)),
    ((-2,), (3,)),
]


def test_bound_settled_from_parent_matches_reference():
    for bound in BOUND_CASES + [EnumerationBound(MAX_GENUS, None)]:
        for cs, xs in TREE_CASES:
            if bound.value is None and not xs:
                continue  # an infinite family
            tree = enumerate_tree(cs, xs, bound)
            rows, truncated = _reference_tree(cs, xs, bound)
            assert (_rows(tree), tree.truncated) == (rows, truncated), (bound, cs, xs)
            assert [n.node_id for n in tree.nodes] == list(range(len(rows)))
        for cs, xs in [((-4, 6), None), ((-6, 9), None), ((-4, 6), (2,)), ((-12, 18), (6,))]:
            if bound.value is None and not xs:
                continue
            for d, tree in decompose(cs, xs, bound).trees.items():
                cs_d = tuple(v // d for v in cs)
                xs_d = tuple(v // d for v in xs) if xs else xs
                if xs_d and any(v not in max_numerical_incentive(cs_d) for v in xs_d):
                    rows, truncated = [], False  # an empty slice
                else:
                    rows, truncated = _reference_tree(cs_d, xs_d, bound)
                assert (_rows(tree), tree.truncated) == (rows, truncated), (bound, cs, xs, d)
    # a finite family whose deepest genus is 9: under max_genus 9 its leaf
    # level is built without generator tuples and the pass after it finds
    # no child, so the tree is whole; one genus lower that pass finds one
    cs, xs = (-4, 6), (4, 9)
    assert enumerate_tree(cs, xs, EnumerationBound(MAX_GENUS, None)).nodes[-1].semigroup.genus == 9
    for value, truncated in ((9, False), (8, True)):
        bound = EnumerationBound(MAX_GENUS, value)
        tree = enumerate_tree(cs, xs, bound)
        assert tree.truncated is truncated
        assert tree.nodes[-1].semigroup.genus == value
        assert (_rows(tree), tree.truncated) == _reference_tree(cs, xs, bound)


@pytest.mark.parametrize(
    "bound, genus_shift, depth_shift",
    [
        # forgets that a child's genus is one more than its parent's
        pytest.param(EnumerationBound(MAX_GENUS, 6), -1, 0, id="genus-not-incremented"),
        # rejects children the bound admits
        pytest.param(EnumerationBound(MAX_GENUS, 6), 1, 0, id="genus-incremented-twice"),
        pytest.param(EnumerationBound(MAX_DEPTH, 4), 0, -1, id="depth-not-incremented"),
    ],
)
def test_reference_catches_a_mutated_bound_check(monkeypatch, bound, genus_shift, depth_shift):
    cs = (-3, 2)
    want = _reference_tree(cs, None, bound)
    tree = enumerate_tree(cs, None, bound)
    assert (_rows(tree), tree.truncated) == want
    original = EnumerationBound.frobenius_limit

    def mutated(self, genus, depth):
        return original(self, genus + genus_shift, depth + depth_shift)

    monkeypatch.setattr(EnumerationBound, "frobenius_limit", mutated)
    wrong = enumerate_tree(cs, None, bound)
    assert (_rows(wrong), wrong.truncated) != want


@pytest.mark.parametrize("kind", [MAX_FROBENIUS, MAX_GENUS, MAX_DEPTH])
@pytest.mark.parametrize("value", [None, 0, 1, 3, 7])
def test_frobenius_limit_agrees_with_allows(kind, value):
    bound = EnumerationBound(kind, value)
    for genus in range(10):
        for depth in range(10):
            limit = bound.frobenius_limit(genus, depth)
            for frobenius in range(-1, 20):
                want = _allows(bound, frobenius, genus, depth)
                assert (limit is None or frobenius <= limit) == want, (
                    bound, frobenius, genus, depth, limit
                )


@pytest.mark.parametrize(
    "bound",
    [
        EnumerationBound(MAX_GENUS, 12),
        EnumerationBound(MAX_FROBENIUS, 14),
        EnumerationBound(MAX_DEPTH, 8),
    ],
)
def test_bound_is_consulted_once_per_parent_not_per_candidate(monkeypatch, bound):
    calls = [0]
    original = EnumerationBound.frobenius_limit

    def counting(self, genus, depth):
        calls[0] += 1
        return original(self, genus, depth)

    monkeypatch.setattr(EnumerationBound, "frobenius_limit", counting)
    tree = enumerate_tree((-3, 2), None, bound)
    assert tree.truncated
    # candidates: the generators above the Frobenius number of every node
    candidates = sum(
        sum(1 for x in n.semigroup.msg.elements if x > n.semigroup.frobenius)
        for n in tree.nodes
    )
    assert candidates > 2 * (tree.node_count + 1)
    # one check of the root, then at most one per expanded parent
    assert calls[0] <= 1 + tree.node_count


@pytest.mark.parametrize("cs", [(0,), (-3, 2)])
def test_bound_is_settled_once_per_level(monkeypatch, cs):
    calls = []
    original = EnumerationBound.frobenius_limit

    def counting(self, genus, depth):
        calls.append((genus, depth))
        return original(self, genus, depth)

    monkeypatch.setattr(EnumerationBound, "frobenius_limit", counting)
    tree = enumerate_tree(cs, None, EnumerationBound(MAX_GENUS, 12))
    assert tree.truncated
    # one call for the root, then one per expanded level, for the genus
    # and depth of its children
    assert len(calls) <= tree.max_depth + 3
    root_genus = tree.root.semigroup.genus
    assert calls == [(root_genus + d, d) for d in range(len(calls))]


def test_viability_scans_are_pinned(monkeypatch):
    # parents scanned (for C != {0} one mask, then one room check against
    # the children ceiling, each) and candidates past the mask (each
    # looked up in the seed set)
    counts = {"parents": 0, "candidates": 0}

    class Ceiling(int):
        # m * m <= ceiling calls the subclass's reflected __ge__ first
        def __ge__(self, other):
            counts["parents"] += 1
            return int.__ge__(self, other)

    class Seeds(frozenset):
        def __contains__(self, x):
            counts["candidates"] += 1
            return frozenset.__contains__(self, x)

    monkeypatch.setattr(tree_mod, "_CHILDREN_CEILING", Ceiling(tree_mod._CHILDREN_CEILING))
    monkeypatch.setattr(tree_mod, "frozenset", Seeds, raising=False)
    # scanning the frontier parent by parent once the tree is truncated
    # would scan its 85 deepest nodes and test candidates the bound
    # already rejects
    tree = enumerate_tree((-3, 2), None, EnumerationBound(MAX_GENUS, 12))
    assert (tree.node_count, tree.level_sizes[-1]) == (215, 85)
    assert counts == {"parents": 131, "candidates": 217}
    # with no adjustment but the inert 0 every candidate passes the mask
    counts.update(dict.fromkeys(counts, 0))
    tree = enumerate_tree((0,), None, EnumerationBound(MAX_GENUS, 12))
    assert tree.node_count == 1413
    assert counts == {"parents": 822, "candidates": 1413}


# The numerical C-incentives form a Frobenius pseudo-variety: the root
# contains every member, an intersection of members is a member, and
# adding its Frobenius number to a non-root member gives a member.  Each
# check runs on the full tree and on brute_force_family at frobenius <= 11.
PSEUDO_VARIETY_SETS = [(-3, 2), (-4, 1, 3), (-5,), (0,)]
PSEUDO_VARIETY_F = 11


def _full_tree_and_family(cs):
    tree = enumerate_tree(cs, None, EnumerationBound(MAX_FROBENIUS, PSEUDO_VARIETY_F))
    family = brute_force_family(cs, PSEUDO_VARIETY_F)
    return tree, {sg.gap_bits: sg for sg in family.values()}


@pytest.mark.parametrize("cs", PSEUDO_VARIETY_SETS)
def test_full_tree_is_the_family(cs):
    tree, by_gaps = _full_tree_and_family(cs)
    got = {n.semigroup.gap_bits: n.semigroup.msg.elements for n in tree.nodes}
    assert got == {g: sg.msg.elements for g, sg in by_gaps.items()}


@pytest.mark.parametrize("cs", PSEUDO_VARIETY_SETS)
def test_pseudo_variety_root_contains_every_member(cs):
    tree, by_gaps = _full_tree_and_family(cs)
    root = max_numerical_incentive(cs)
    assert tree.root.semigroup == root
    for gaps in [n.semigroup.gap_bits for n in tree.nodes] + list(by_gaps):
        assert root.gap_bits & ~gaps == 0, (cs, gaps)


@pytest.mark.parametrize("cs", PSEUDO_VARIETY_SETS)
def test_pseudo_variety_closed_under_intersection(cs):
    tree, by_gaps = _full_tree_and_family(cs)
    members = [n.semigroup.gap_bits for n in tree.nodes]
    # an intersection's gaps are the union, and its Frobenius number stays <= 11
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            assert a | b in by_gaps, (cs, a, b)


@pytest.mark.parametrize("cs", PSEUDO_VARIETY_SETS)
def test_pseudo_variety_adding_the_frobenius_number(cs):
    tree, by_gaps = _full_tree_and_family(cs)
    root_gaps = tree.root.semigroup.gap_bits
    for sg in by_gaps.values():
        if sg.gap_bits != root_gaps:
            assert sg.gap_bits & ~(1 << sg.frobenius) in by_gaps, (cs, sg)


@pytest.mark.parametrize("cs", PSEUDO_VARIETY_SETS)
def test_edge_certificate_parent_is_child_plus_its_frobenius_number(cs):
    tree, _ = _full_tree_and_family(cs)
    for n in tree.nodes[1:]:
        child = n.semigroup
        assert n.parent.semigroup.gap_bits == child.gap_bits & ~(1 << child.frobenius), (cs, child)


@pytest.mark.parametrize("cs", PSEUDO_VARIETY_SETS)
def test_derived_generator_masks_match_their_generators(cs):
    tree, _ = _full_tree_and_family(cs)
    for n in tree.nodes:
        sg = n.semigroup
        assert sg.gen_bits == sum(1 << g for g in sg.msg.elements), (cs, sg)


def _count_validation(monkeypatch):
    """Count calls of the integer check, _bitmask and GenSet.__post_init__."""
    counts = dict.fromkeys(("_check_ints", "_bitmask", "GenSet.__post_init__"), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # patch every module that imported the function by name
    for name in ("_check_ints", "_bitmask"):
        original = getattr(monoid_mod, name)
        for mod in (monoid_mod, closure_mod, sequences_mod, tree_mod):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counting(name, original))
    monkeypatch.setattr(
        monoid_mod.GenSet,
        "__post_init__",
        counting("GenSet.__post_init__", monoid_mod.GenSet.__post_init__),
    )
    return counts


def test_enumeration_validates_once_not_per_child(monkeypatch):
    counts = _count_validation(monkeypatch)
    seen = {}
    for genus in (6, 12):
        for k in counts:
            counts[k] = 0
        tree = enumerate_tree((0,), None, EnumerationBound(MAX_GENUS, genus))
        seen[genus] = (tree.node_count, dict(counts))
    assert seen[6][0] == 50 and seen[12][0] == 1413
    assert seen[6][1] == seen[12][1]
    assert max(seen[12][1].values()) <= 2
    # the counters do see per-child work: with every record built through
    # the public constructors, the same tree costs one check per node
    rows = _rows(enumerate_tree((0,), None, EnumerationBound(MAX_GENUS, 6)))

    def public(elements, frobenius, gap_bits, gen_bits):
        return monoid_mod.NumericalSemigroup(monoid_mod.GenSet(elements), frobenius, gap_bits)

    monkeypatch.setattr(monoid_mod.NumericalSemigroup, "_derived", staticmethod(public))
    for k in counts:
        counts[k] = 0
    tree = enumerate_tree((0,), None, EnumerationBound(MAX_GENUS, 6))
    assert _rows(tree) == rows
    assert counts["_bitmask"] >= 50 and counts["GenSet.__post_init__"] >= 50
