import os
import random
import subprocess
import sys
import time
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import incentives.closure as closure_mod
from incentives import (
    MULTIPLE,
    NUMERICAL,
    TRIVIAL,
    BoundTooLarge,
    IncentiveSpec,
    InvalidGenerators,
    NotAdmissible,
    SequenceModel,
    ValueOutOfRange,
    closure_membership,
    closure_msg,
    half_theta_is_incentive,
    is_admissible,
    is_incentive,
    m_ab_membership,
    membership,
    theta,
    verify_theorem5,
)
from oracles import honours, oracle_closure_member, oracle_is_incentive

ROOT = Path(__file__).resolve().parent.parent


def test_spec_and_theta():
    assert theta({-3, 2}) == 3
    assert theta({1, 2}) == 0
    assert theta({-4}) == 4
    assert theta({0}) == 0
    assert str(IncentiveSpec.of([2, -3])) == "{-3,2}"
    with pytest.raises(InvalidGenerators):
        IncentiveSpec.of([])


def test_spec_shifts_leave_out_the_inert_zero():
    spec = IncentiveSpec.of({-3, 0, 2})
    assert (spec.c_set, spec.shifts, spec.theta) == ((-3, 0, 2), (-3, 2), 3)
    assert IncentiveSpec.of({0}).shifts == ()
    zero_free = IncentiveSpec.of({-3, 2})
    assert zero_free.shifts == zero_free.c_set
    # shifts are derived, not compared: a spec equals and hashes by c_set alone
    assert spec == IncentiveSpec((-3, 0, 2)) and spec != zero_free
    assert "shifts" not in repr(spec)
    with pytest.raises(InvalidGenerators, match="at least one adjustment"):
        IncentiveSpec(())


KNOWN_INCENTIVE = {
    ((3, 7, 8), (-3, 2)): True,
    ((3,), (-4,)): False,
    ((1,), (-2,)): True,
    ((1,), (-3,)): False,
    ((2, 3), (-2,)): True,
    ((3, 5, 7), (-2,)): False,
    ((5, 7, 9, 11, 13), (-3, 2)): True,
    ((5, 7, 9, 11), (-3, 2)): False,
    ((4, 6), (-2, 2)): True,
    ((3,), (0,)): True,
    ((4, 5), (1,)): False,  # 5 + 5 + 1, the table's last entry, is the one failing sum
    ((3, 4, 5), (-3,)): True,  # every residue mod 3: the table stops at 5 - 3
    ((3, 4, 7), (-1,)): False,  # three elements, but no residue 2 mod 3; 3 + 3 - 1 = 5 fails
}


def test_is_incentive_known_values():
    for (gens, cs), want in KNOWN_INCENTIVE.items():
        assert is_incentive(gens, cs) == want, (gens, cs)


@given(
    st.sets(st.integers(min_value=1, max_value=18), min_size=1, max_size=4),
    st.sets(st.integers(min_value=-6, max_value=8), min_size=1, max_size=3),
)
@settings(max_examples=120)
def test_is_incentive_matches_oracle(gens, cs):
    assert is_incentive(gens, cs) == oracle_is_incentive(sorted(gens), sorted(cs))


@given(st.data())
@settings(max_examples=300)
def test_is_incentive_matches_the_apery_oracle(data):
    # gcd 1 and gcd d > 1 generator sets, some holding a run a, ..., 2a - 1;
    # adjustments near 0, multiples of d, and up to 2**31 in magnitude,
    # where the table stops at Schur's or Selmer's bound and pairs past
    # the last non-member are skipped
    d = data.draw(st.sampled_from([1, 1, 2, 3, 6]))
    gens = data.draw(st.lists(st.integers(1, 30).map(lambda g: g * d), min_size=1, max_size=5))
    if data.draw(st.booleans()):
        a = data.draw(st.integers(1, 12))
        gens += [g * d for g in range(a, 2 * a)]
    adjustment = (
        st.integers(-13, 13)
        | st.integers(-13, 13).map(lambda k: k * d)
        | st.integers(-(2**31), 2**31)
        | st.integers(0, 2**31 // d).map(lambda k: k * d)
    )
    cs = data.draw(st.lists(adjustment, min_size=1, max_size=3))
    assert is_incentive(gens, cs) == honours(gens, cs), (gens, cs)


@pytest.mark.parametrize(
    "call",
    ["is_incentive((3, 4, 5), (2**31,))", "is_incentive(range(2**16, 2**17), (-(2**16),))"],
)
def test_is_incentive_is_bounded_in_time_and_memory(call):
    # a table to 2 * 5 + 2**31 would need 2 GiB, and the pair scan of
    # {0, 2**16, ->} 2**31 steps; both answer True within 2 s under 512 MiB
    script = "\n".join(
        [
            "import resource, time",
            "resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))",
            "from incentives import is_incentive",
            "start = time.perf_counter()",
            f"print({call})",
            "print(time.perf_counter() - start)",
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
    got, seconds = proc.stdout.splitlines()
    assert got == "True"
    assert float(seconds) < 2


def test_closure_past_the_size_cap_names_its_inputs():
    # 3 + 3 + 2**31 would be a generator past 2**31, 5 + 5 + 2**30 one past
    # the 2**24 table cap, and 8 * 2**29 (seeds and adjustments at gcd
    # 2**29) a scaled generator past 2**31, and coprime seeds past 2**24
    # need a table past that cap before any round; each refusal names the
    # admitted seeds and the constraint set as given, not that value
    cap = " adjoins values past the closure's size cap"
    big = {2**24 + 1, 2**24 + 3}
    for call, text in [
        (lambda: closure_msg({3}, {2**31}), "closing {3} under {2147483648}"),
        (lambda: closure_msg({0, 4}, {0, 2**31}), "closing {4} under {0,2147483648}"),
        (lambda: closure_msg({6, 9}, {-3, 2**31 - 2}), "closing {6,9} under {-3,2147483646}"),
        (lambda: closure_msg({5}, {2**30}), "closing {5} under {1073741824}"),
        (lambda: closure_msg({3 * 2**29}, {2**30}), "closing {1610612736} under {1073741824}"),
        (lambda: closure_membership({3}, {0, 2**31}, 2 * 10**6), "closing {3} under {0,2147483648}"),
        (lambda: m_ab_membership(SequenceModel.of({3}, {0, 2**31}), 2 * 10**6),
         "closing {3} under {0,2147483648}"),
        (lambda: verify_theorem5(SequenceModel.of({3}, {0, 2**31}), 10),
         "closing {3} under {0,2147483648}"),
        (lambda: closure_msg(big, {0}), "closing {16777217,16777219} under {0}"),
        (lambda: closure_membership(big, {0}, 2 * 10**6), "closing {16777217,16777219} under {0}"),
    ]:
        with pytest.raises(BoundTooLarge) as exc:
            call()
        assert str(exc.value) == text + cap
    # the seeds' own gcd is divided out first: {1, 2**24} fits the table
    assert closure_msg({2, 2**25}, {1}).msg.elements == (2, 5)


def test_half_theta_known_values():
    assert half_theta_is_incentive({-4, 6})
    assert half_theta_is_incentive({-2})
    assert not half_theta_is_incentive({-4, 7})
    assert not half_theta_is_incentive({-3, 2})
    assert not half_theta_is_incentive({2})
    assert not half_theta_is_incentive({-6, 2})
    assert half_theta_is_incentive({-6, 3})


def test_admissibility_battery():
    assert not is_admissible({3}, {-4})
    assert is_admissible({2, 8}, {-4, 6})
    assert not is_admissible({3}, {-4, 6})
    assert not is_admissible({2}, {-4, 7})
    assert is_admissible(set(), {-4})
    assert is_admissible({0}, {-4})
    assert is_admissible({4}, {-4})
    assert is_admissible({9}, {-3, 2})


def test_closure_golden():
    r = closure_msg({5, 7, 9, 11}, {-3, 2})
    assert r.kind == NUMERICAL
    assert r.scale == 1
    assert r.msg.elements == (5, 7, 9, 11, 13)
    assert r.semigroup.frobenius == 8
    assert r.semigroup.genus == 6
    # same closure from the single seed 5
    assert closure_msg({5}, {-3, 2}).msg.elements == (5, 7, 9, 11, 13)


def test_closure_reduction_path():
    r = closure_msg({4, 6}, {-2, 2})
    assert r.kind == MULTIPLE
    assert r.scale == 2
    assert r.msg.elements == (4, 6)
    assert r.semigroup.msg.elements == (2, 3)

    r2 = closure_msg({6}, {-6, 3})
    assert r2.kind == MULTIPLE
    assert r2.scale == 3
    assert r2.msg.elements == (6, 15)
    assert r2.semigroup.msg.elements == (2, 5)


def test_reduction_at_gcd_one_returns_its_inputs():
    xs, cs = (5, 7), (-3, 2)
    scale, rxs, rcs = closure_mod._reduced(xs, cs)
    assert scale == 1 and rxs is xs and rcs is cs
    # a common factor is still divided out, and seeds below theta still
    # reduce to the multiples of theta/2
    assert closure_mod._reduced((4, 6), (-2, 2)) == (2, (2, 3), (-1, 1))
    assert closure_mod._reduced((2, 8), (-4, 6)) == (2, (1,), ())


def test_closure_below_threshold_branch():
    r = closure_msg({2, 8}, {-4, 6})
    assert r.kind == MULTIPLE
    assert r.scale == 2
    assert r.msg.elements == (2,)
    assert [n for n in range(12) if r.member(n)] == [0, 2, 4, 6, 8, 10]

    r2 = closure_msg({1}, {-2})
    assert r2.kind == NUMERICAL
    assert r2.msg.elements == (1,)


def test_closure_trivial_and_errors():
    r = closure_msg((), {-3, 2})
    assert r.kind == TRIVIAL
    assert r.msg is None
    assert r.member(0) and not r.member(3)
    with pytest.raises(NotAdmissible):
        closure_msg({3}, {-4})
    with pytest.raises(NotAdmissible):
        closure_membership({3}, {-4}, 6)


@pytest.mark.parametrize("raw", [[1, True], [True, 1], [1, "a"]])
def test_seeds_and_adjustments_reject_bools_and_non_ints(raw):
    # validated before deduplication, so True cannot merge into 1
    with pytest.raises(InvalidGenerators):
        IncentiveSpec.of(raw)
    with pytest.raises(InvalidGenerators):
        closure_msg(raw, {-1})
    with pytest.raises(InvalidGenerators):
        is_admissible(raw, {-1})


def test_seed_magnitude_message():
    with pytest.raises(ValueOutOfRange, match=r"seed elements are capped at 2\*\*31 in magnitude"):
        closure_msg({2**31 + 1}, {-1})


def test_closure_membership_validates_its_target():
    for bad in (True, 2.5, "7"):
        with pytest.raises(InvalidGenerators):
            closure_membership((5, 7), (-3, 2), bad)
    for bad in (2**31 + 1, -(2**31) - 1):
        with pytest.raises(ValueOutOfRange):
            closure_membership((5, 7), (-3, 2), bad)


def test_closure_membership_of_reduced_seeds_holding_one():
    # seeds that reduce to a set holding 1 close up to scale times N: no table
    for xs, cs, n in (({2}, {-4, 6}, 200_000), ((3, 6), (3,), 300_000)):
        for target in (n, n + 1):
            start = time.perf_counter()
            got = closure_membership(xs, cs, target)
            assert time.perf_counter() - start < 0.01
            assert got == closure_msg(xs, cs).member(target) == (target == n)


def test_large_seed_membership_matches_pair_sum_identity():
    # the closure of reduced seeds X with min X >= theta is {0} ∪ (X + <P>),
    # where P = X ∪ {x + c > 0}: each adjustment pairs with its own seed.
    # The fixpoint does not finish on these seeds; the slack table answers.
    xs, cs = (16385, 16387), (-7, 3)
    ps = sorted(set(xs) | {x + c for x in xs for c in cs if x + c > 0})
    answers = set()
    for n in (16385, 16386, 32763, 50000, 98304, 500000, 59 * 16378 + 16385, 999_485, 10**6):
        start = time.perf_counter()
        got = closure_membership(xs, cs, n)
        assert time.perf_counter() - start < 2, n
        assert got == (n == 0 or any(membership(ps, n - x) for x in xs if x <= n)), n
        answers.add(got)
    assert answers == {True, False}


def test_closure_zero_adjustment_is_plain_monoid():
    r = closure_msg({4, 7}, {0})
    assert r.kind == NUMERICAL
    assert r.msg.elements == (4, 7)


CURATED_PAIRS = [
    ((5, 7, 9, 11), (-3, 2)),
    ((5,), (-3, 2)),
    ((3, 7), (-3, 2)),
    ((4, 9), (-2,)),
    ((3, 4), (-1, 1)),
    ((7, 10), (-6, 2, 3)),
    ((6, 8), (-5, 1)),
    ((2, 3), (1,)),
    ((9, 12), (-4, 6)),
    ((5, 6), (0,)),
    # seeds below theta: the multiples of theta/2
    ((2,), (-4, 6)),
    ((1,), (-2,)),
    # gcd > 1: solved at scale 1/d
    ((6, 9), (-3, 6)),
    ((4, 10), (-2,)),
]


def test_closure_member_matches_counting_oracle():
    for xs, cs in CURATED_PAIRS:
        r = closure_msg(xs, cs)
        for n in range(37):
            want = oracle_closure_member(xs, cs, n)
            assert r.member(n) == want, (xs, cs, n)
            assert closure_membership(xs, cs, n) == want, (xs, cs, n)


def test_two_engines_agree_randomized():
    rng = random.Random(4251)
    done = 0
    while done < 30:
        th = rng.randint(1, 6)
        cs = {-th}
        for _ in range(rng.randint(0, 2)):
            cs.add(rng.randint(-th, 10))
        cs.discard(0)
        xs = {rng.randint(th, 24) for _ in range(rng.randint(1, 3))}
        if min(cs) != -th or not is_admissible(xs, cs):
            continue
        r = closure_msg(xs, cs)
        for n in range(121):
            assert closure_membership(xs, cs, n) == r.member(n), (xs, cs, n)
        done += 1


def test_scaling_property():
    rng = random.Random(88)
    done = 0
    while done < 15:
        th = rng.randint(1, 5)
        cs = {-th, rng.randint(1, 7)}
        cs.discard(0)
        xs = {rng.randint(th, 20) for _ in range(rng.randint(1, 3))}
        if not xs or gcd(*xs, *(abs(c) for c in cs)) != 1:
            continue
        if min(cs) != -th or not is_admissible(xs, cs):
            continue
        base = closure_msg(xs, cs)
        for d in (2, 3):
            scaled = closure_msg({d * x for x in xs}, {d * c for c in cs})
            assert scaled.kind == MULTIPLE
            assert scaled.scale == d
            assert scaled.msg.elements == tuple(d * g for g in base.msg.elements)
        done += 1


@given(
    st.sets(st.integers(min_value=1, max_value=20), min_size=1, max_size=3),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=60)
def test_closure_contains_seeds_and_is_incentive(xs, th):
    cs = (-th, th + 1)
    xs = {v for v in xs if v >= th}
    if not xs or not is_admissible(xs, cs):
        return
    r = closure_msg(xs, cs)
    assert r.kind in (NUMERICAL, MULTIPLE)
    for x in xs:
        assert r.member(x)
    assert is_incentive(r.msg, cs)


def test_closure_kind_tracks_gcd():
    for xs, cs in CURATED_PAIRS:
        r = closure_msg(xs, cs)
        d = gcd(*xs, *(abs(c) for c in cs))
        if d == 1:
            assert r.kind == NUMERICAL and r.scale == 1
        else:
            assert r.kind == MULTIPLE and r.scale > 1
