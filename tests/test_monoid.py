import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incentives import (
    BoundTooLarge,
    GcdNotOne,
    GenSet,
    InternalInvariant,
    InvalidGenerators,
    NumericalSemigroup,
    ValueOutOfRange,
    gcd_of,
    membership,
    monoid_from_generators,
    msg,
    numerical_semigroup,
)
from incentives.monoid import _bitmask, _generated
from oracles import oracle_members, oracle_msg

ROOT = Path(__file__).resolve().parent.parent


def test_genset_validation():
    assert GenSet((3, 5)).elements == (3, 5)
    with pytest.raises(InvalidGenerators):
        GenSet(())
    with pytest.raises(InvalidGenerators):
        GenSet((5, 3))
    with pytest.raises(InvalidGenerators):
        GenSet((0, 3))
    with pytest.raises(InvalidGenerators):
        GenSet((3, 3))


def test_monoid_from_generators_normalizes():
    assert monoid_from_generators([7, 3, 3, 5]).elements == (3, 5, 7)
    # GenSet's own check refuses the empty set
    with pytest.raises(InvalidGenerators, match=r"^a generating set needs at least one element; "):
        monoid_from_generators([])
    with pytest.raises(InvalidGenerators):
        monoid_from_generators([0, 2])
    with pytest.raises(InvalidGenerators):
        monoid_from_generators([-2, 3])


def test_gcd_of():
    assert gcd_of((4, 6)) == 2
    assert gcd_of((5, 7)) == 1
    assert gcd_of((9,)) == 9


KNOWN_MSG = {
    (3, 4, 5): (3, 4, 5),
    (4, 5, 6, 7): (4, 5, 6, 7),
    (3, 5, 7): (3, 5, 7),
    (3, 5, 7, 8): (3, 5, 7),
    (5, 7, 9, 11, 13): (5, 7, 9, 11, 13),
    (2, 4, 7): (2, 7),
    (4, 6): (4, 6),
    (6, 9, 20): (6, 9, 20),
    (1, 5): (1,),
}


def test_msg_known_values():
    for gens, want in KNOWN_MSG.items():
        assert msg(gens).elements == want, gens


@given(st.sets(st.integers(min_value=1, max_value=40), min_size=1, max_size=6))
@settings(max_examples=150)
def test_msg_matches_oracle(gens):
    assert list(msg(tuple(gens)).elements) == oracle_msg(gens)


@given(
    st.sets(st.integers(min_value=1, max_value=30), min_size=1, max_size=5),
    st.integers(min_value=1, max_value=4),
    st.lists(st.integers(min_value=71, max_value=5000), max_size=5),
)
@settings(max_examples=100)
def test_membership_matches_oracle(gens, d, targets):
    gens = sorted(g * d for g in gens)
    members = oracle_members(gens, max(targets, default=70))
    for n in [*range(71), *targets]:
        assert membership(gens, n) == (n in members)


def test_membership_edges():
    assert membership((4, 6), 0)
    assert not membership((4, 6), -3)
    assert membership((4, 6), 10)
    assert not membership((4, 6), 11)
    assert membership((4, 6), 9999998)
    assert not membership((4, 6), 9999999)


KNOWN_SEMIGROUPS = {
    # gens -> (frobenius, genus, multiplicity, gaps)
    (3, 4, 5): (2, 2, 3, (1, 2)),
    (3, 5, 7): (4, 3, 3, (1, 2, 4)),
    (5, 7, 9, 11, 13): (8, 6, 5, (1, 2, 3, 4, 6, 8)),
    (2, 3): (1, 1, 2, (1,)),
    (7, 8, 9, 10, 11, 12, 13): (6, 6, 7, (1, 2, 3, 4, 5, 6)),
    (6, 9, 20): (43, 22, 6, None),
}


def test_numerical_semigroup_known_values():
    for gens, (frob, genus, mult, gaps) in KNOWN_SEMIGROUPS.items():
        sg = numerical_semigroup(gens)
        assert sg.frobenius == frob
        assert sg.genus == genus
        assert sg.multiplicity == mult
        if gaps is not None:
            assert sg.gaps == gaps


def test_numerical_semigroup_whole_naturals():
    sg = numerical_semigroup((1,))
    assert sg.frobenius == -1
    assert sg.genus == 0
    assert sg.gaps == ()
    assert 0 in sg and 1 in sg and 7 in sg
    assert -1 not in sg


def test_numerical_semigroup_rejects_common_divisor():
    with pytest.raises(GcdNotOne):
        numerical_semigroup((4, 6))


def test_contains_agrees_with_membership():
    sg = numerical_semigroup((5, 7, 9, 11, 13))
    for n in range(-3, 60):
        assert (n in sg) == membership((5, 7, 9, 11, 13), n)


def test_elements_upto():
    sg = numerical_semigroup((3, 5, 7))
    assert sg.elements_upto(10) == [0, 3, 5, 6, 7, 8, 9, 10]
    assert sg.elements_upto(0) == [0]


@given(st.sets(st.integers(min_value=1, max_value=25), min_size=1, max_size=4))
@settings(max_examples=100)
def test_semigroup_construction_consistent(gens):
    from math import gcd

    if gcd(*gens) != 1:
        with pytest.raises(GcdNotOne):
            numerical_semigroup(gens)
        return
    sg = numerical_semigroup(gens)
    members = oracle_members(sorted(gens), sg.frobenius + 2 + max(gens))
    assert sg.gaps == tuple(v for v in range(1, sg.frobenius + 1) if v not in members)
    assert sg.frobenius not in members
    assert list(sg.msg.elements) == oracle_msg(gens)
    for n in range(sg.frobenius + 2 + max(gens)):
        assert (n in sg) == (n in members)


@given(st.sets(st.integers(min_value=1, max_value=40), min_size=1, max_size=5))
@settings(max_examples=100)
def test_gap_bitset_views_match_oracle(gens):
    from math import gcd

    if gcd(*gens) != 1:
        return
    sg = numerical_semigroup(gens)
    f = sg.frobenius
    members = oracle_members(sorted(gens), f + 1)
    assert sg.gaps == tuple(v for v in range(f + 2) if v not in members)
    assert sg.member_table == bytes(v in members for v in range(f + 2))
    assert sg.genus == f + 2 - len(members)
    assert sg.gap_bits == sum(1 << v for v in sg.gaps)


def test_numerical_semigroup_invariant_checks():
    gens = GenSet((2, 3))
    assert NumericalSemigroup(gens, 1, 0b10).gaps == (1,)
    with pytest.raises(InternalInvariant):
        NumericalSemigroup(gens, 3, 0b1010)  # generator 3 is a gap
    with pytest.raises(InternalInvariant):
        NumericalSemigroup(gens, 2, 0b10)  # frobenius is 1, not 2
    with pytest.raises(InternalInvariant):
        NumericalSemigroup(gens, 1, 0b11)  # 0 is a gap


def test_derived_invariant_checks_match_the_constructor():
    # _derived screens the same three bit invariants in one expression and
    # raises the constructor's error for each
    derived = NumericalSemigroup._derived
    assert derived((2, 3), 1, 0b10, 0b1100).gaps == (1,)
    gens = GenSet((2, 3))
    for frobenius, gap_bits in (
        (3, 0b1010),  # generator 3 is a gap
        (2, 0b10),  # frobenius is 1, not 2
        (1, 0b11),  # 0 is a gap
    ):
        with pytest.raises(InternalInvariant) as public:
            NumericalSemigroup(gens, frobenius, gap_bits)
        with pytest.raises(InternalInvariant) as trusted:
            derived((2, 3), frobenius, gap_bits, 0b1100)
        assert str(trusted.value) == str(public.value)


def test_bitmask_is_linear():
    assert _bitmask(()) == 0
    for vals in ((0,), (1, 3, 5), (7, 8, 9, 64), range(200, 300)):
        assert _bitmask(vals) == sum(1 << v for v in vals)
    start = time.perf_counter()
    assert _bitmask(range(2**18, 2**19)) == ((1 << 2**18) - 1) << 2**18
    assert time.perf_counter() - start < 1.0


def test_generated_set_ceiling():
    assert _generated((2**24,), 2**24) == 1 | 1 << 2**24
    # doubling from 2 * 4101 overshoots 2**24, so the last try is the ceiling
    assert numerical_semigroup((2050, 4101)).frobenius == 2050 * 4101 - 2050 - 4101
    start = time.perf_counter()
    with pytest.raises(BoundTooLarge):
        _generated((3,), 2**24 + 1)
    assert time.perf_counter() - start < 0.1


def test_numerical_semigroup_refusal_names_the_semigroup():
    # (4097, 4099): F = 16,785,407, and no run of 4097 members appears by
    # the 2**24 ceiling; (2**23 + 1, 2**23 + 3): twice the largest
    # generator is past the ceiling, so the first window is the ceiling
    for gens in [(4097, 4099), (2**23 + 1, 2**23 + 3)]:
        text = "⟨" + ",".join(map(str, gens)) + "⟩"
        with pytest.raises(
            BoundTooLarge,
            match=rf"^{text} needs a generated set past 2\*\*24 values to find its "
            r"Frobenius number; generated sets are capped at 2\*\*24$",
        ):
            numerical_semigroup(gens)


@pytest.mark.parametrize(
    "call",
    [
        "monoid.msg((2**31 - 1, 2**31))",
        "monoid.numerical_semigroup((2**31 - 1, 2**31))",
        "closure.is_incentive((2**31,), (1,))",
    ],
)
def test_huge_generated_sets_are_refused_before_allocating(call):
    # the tables these calls would need (2-4 GiB) cannot fit under the
    # 1 GiB address-space cap, so only a refusal up front passes
    script = "\n".join(
        [
            "import resource, time",
            "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))",
            "from incentives import BoundTooLarge, closure, monoid",
            "start = time.perf_counter()",
            "try:",
            f"    {call}",
            "except BoundTooLarge:",
            "    print(time.perf_counter() - start)",
        ]
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 2


def test_genset_validation_messages():
    with pytest.raises(InvalidGenerators, match="plain integers, got True"):
        GenSet((1, True))
    with pytest.raises(InvalidGenerators, match="plain integers, got 2.0"):
        GenSet((1, 2.0))
    with pytest.raises(ValueOutOfRange, match="got 2147483649"):
        GenSet((3, 2**31 + 1))
    with pytest.raises(ValueOutOfRange, match="got -2147483649"):
        GenSet((-(2**31) - 1, 3))


@pytest.mark.parametrize("raw", [[1, True], [True, 1], [1, "a"]])
def test_raw_generators_reject_bools_and_non_ints(raw):
    # validated before deduplication, so True cannot merge into 1
    with pytest.raises(InvalidGenerators):
        monoid_from_generators(raw)


def test_membership_validates_its_target():
    for bad in (True, 2.5, "7"):
        with pytest.raises(InvalidGenerators):
            membership((2, 3), bad)
    for bad in (2**31 + 1, -(2**31) - 1):
        with pytest.raises(ValueOutOfRange):
            membership((2, 3), bad)
    assert membership((2, 3), 2**31)
    assert not membership((2, 3), -(2**31))


def test_str_renderings():
    assert str(GenSet((3, 5, 7))) == "⟨3,5,7⟩"
    assert str(numerical_semigroup((2, 3))) == "⟨2,3⟩"
