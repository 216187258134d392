import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incentives import (
    BoundTooLarge,
    InvalidGenerators,
    InvalidModel,
    InvalidSequence,
    SequenceModel,
    ValueOutOfRange,
    closure_msg,
    invoice,
    is_ab_sequence,
    m_ab_membership,
    m_ab_set,
    verify_theorem5,
)
from incentives import closure as closure_mod
from incentives import monoid as monoid_mod
from incentives import sequences as sequences_mod
from oracles import oracle_ab_totals

MODEL = SequenceModel.of({5, 7, 9, 11}, {-3, 0, 2})


def test_model_validation():
    with pytest.raises(InvalidModel):
        SequenceModel.of(set(), {0})
    with pytest.raises(InvalidModel):
        SequenceModel.of({0, 5}, {0})
    with pytest.raises(InvalidModel):
        SequenceModel.of({5}, {-3, 2})
    with pytest.raises(InvalidModel):
        SequenceModel.of({2}, {-3, 0})
    m = SequenceModel.of([7, 5, 5], [0, -3, 2])
    assert m.a_set == (5, 7)
    assert m.b_set == (-3, 0, 2)


@pytest.mark.parametrize("raw", [[1, True], [True, 1], [1, "a"]])
def test_model_sets_reject_bools_and_non_ints(raw):
    # validated before deduplication, so True cannot merge into 1
    with pytest.raises(InvalidModel):
        SequenceModel.of(raw, {0})
    with pytest.raises(InvalidModel):
        SequenceModel.of({5}, [0, *raw])


def test_model_magnitude_message():
    with pytest.raises(ValueOutOfRange, match=r"model entries are capped at 2\*\*31 in magnitude"):
        SequenceModel.of({2**31 + 1}, {0})


def test_is_ab_sequence():
    assert is_ab_sequence(MODEL, [5])
    assert is_ab_sequence(MODEL, [5, -3, 7])
    assert is_ab_sequence(MODEL, [11, 0, 11, 2, 5])
    assert not is_ab_sequence(MODEL, [])
    assert not is_ab_sequence(MODEL, [5, -3])
    assert not is_ab_sequence(MODEL, [-3])
    assert not is_ab_sequence(MODEL, [5, 1, 7])
    assert not is_ab_sequence(MODEL, [5, -3, 4])


def test_invoice():
    assert invoice(MODEL, [5]) == 5
    assert invoice(MODEL, [5, -3, 7]) == 9
    assert invoice(MODEL, [11, 0, 11, 2, 5]) == 29
    with pytest.raises(InvalidSequence, match="length"):
        invoice(MODEL, [5, -3])
    with pytest.raises(InvalidSequence, match="position 1"):
        invoice(MODEL, [4])
    with pytest.raises(InvalidSequence, match="position 2"):
        invoice(MODEL, [5, 4, 7])


@pytest.mark.parametrize(
    "a, b, seq",
    [
        ([3], [0], [3.0]),  # 3.0 == 3 is a price by value
        ([1, 4], [0], [True]),  # True == 1 likewise
        ([5, 7], [-3, 0, 2], [5, -3.0, 7]),
        ([5, 7], [0, 1], [5, True, 7]),
        ([5, 7], [-3, 0, 2], [5, 0, "7"]),
    ],
)
def test_sequence_entries_must_be_plain_integers(a, b, seq):
    model = SequenceModel.of(a, b)
    assert not is_ab_sequence(model, seq)
    with pytest.raises(InvalidSequence, match="sequence entries must be plain integers"):
        invoice(model, seq)
    # the same values as plain integers form a sequence
    ints = [int(v) for v in seq]
    assert is_ab_sequence(model, ints)
    assert type(invoice(model, ints)) is int


def test_membership_known_values():
    want_members = {0, 5, 7, 9, 10, 11, 12}
    for n in range(13):
        assert m_ab_membership(MODEL, n) == (n in want_members), n
    assert m_ab_membership(MODEL, 13)
    assert not m_ab_membership(MODEL, 8)
    assert not m_ab_membership(MODEL, -4)


def test_query_values_are_validated():
    for bad in (True, 2.5, "7"):
        with pytest.raises(InvalidGenerators):
            m_ab_membership(MODEL, bad)
        with pytest.raises(InvalidGenerators):
            m_ab_set(MODEL, bad)
    for bad in (2**31 + 1, -(2**31) - 1):
        with pytest.raises(ValueOutOfRange):
            m_ab_membership(MODEL, bad)
    # only the negative side: an unchecked 2**31 + 1 would build 2**31-bit sets
    with pytest.raises(ValueOutOfRange):
        m_ab_set(MODEL, -(2**31) - 1)


def test_cached_m_ab_membership_checks_only_its_target(monkeypatch):
    # the model's rules already admit its prices, so a hit on a cached
    # slack table checks n and builds no IncentiveSpec
    counts = dict.fromkeys(("_check_ints", "IncentiveSpec.__post_init__"), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    original = monoid_mod._check_ints
    for mod in (monoid_mod, closure_mod, sequences_mod):
        if getattr(mod, "_check_ints", None) is original:
            monkeypatch.setattr(mod, "_check_ints", counting("_check_ints", original))
    monkeypatch.setattr(
        closure_mod.IncentiveSpec,
        "__post_init__",
        counting("IncentiveSpec.__post_init__", closure_mod.IncentiveSpec.__post_init__),
    )
    m_ab_membership(MODEL, 700)
    for k in counts:
        counts[k] = 0
    for n in (3, 12, 500, 699):
        m_ab_membership(MODEL, n)
    assert counts == {"_check_ints": 4, "IncentiveSpec.__post_init__": 0}


def test_m_ab_membership_above_the_table_ceiling():
    # past 10**6 the closure fixpoint answers, not a table of n entries
    for model in (MODEL, SequenceModel.of({4, 6}, {-2, 0, 2})):
        closure = closure_msg(model.a_set, model.b_set)
        for n in (10**6 + 1, 2**31):
            start = time.perf_counter()
            got = m_ab_membership(model, n)
            assert time.perf_counter() - start < 2, (model, n)
            assert got == closure.member(n), (model, n)


def test_m_ab_set_golden():
    assert m_ab_set(MODEL, 14) == [0, 5, 7, 9, 10, 11, 12, 13, 14]
    assert m_ab_set(MODEL, 0) == [0]
    assert m_ab_set(MODEL, -1) == []


def test_m_ab_set_bound_ceiling():
    # above 2**20 the totals would take hundreds of MB; refused before building
    for bound in (2**20 + 1, 2**24, 2**31):
        start = time.perf_counter()
        with pytest.raises(BoundTooLarge):
            m_ab_set(MODEL, bound)
        assert time.perf_counter() - start < 0.1
    totals = m_ab_set(MODEL, 2**20)
    assert totals[:9] == [0, 5, 7, 9, 10, 11, 12, 13, 14]
    assert totals[-1] == 2**20


def test_totals_match_sequence_enumeration():
    # windows chosen so the stated max_len provably reaches every total
    cases = [
        (SequenceModel.of({3, 5}, {-1, 0}), 9, 9),
        (SequenceModel.of({2}, {0, 3}), 12, 13),
        (SequenceModel.of({5, 9}, {-4, 0}), 10, 13),
        (MODEL, 16, 11),
    ]
    for model, bound, max_len in cases:
        totals = oracle_ab_totals(model.a_set, model.b_set, max_len)
        want = sorted({0} | {t for t in totals if 0 <= t <= bound})
        assert m_ab_set(model, bound) == want, (model.a_set, model.b_set)


@st.composite
def _models(draw):
    a = draw(st.sets(st.integers(1, 30), min_size=1, max_size=4))
    b = draw(st.sets(st.integers(-min(a), 12), max_size=3))
    return SequenceModel.of(a, b | {0})


@given(_models(), st.integers(-1, 600))
@settings(max_examples=150, deadline=None)
def test_totals_agree_with_slack_membership(model, bound):
    # m_ab_set builds pair-sum bitsets; m_ab_membership searches the slack table
    want = [n for n in range(bound + 1) if m_ab_membership(model, n)]
    assert m_ab_set(model, bound) == want


def test_invoice_totals_are_members():
    m = SequenceModel.of({4, 7}, {-2, 0, 1})
    for seq in ([4], [7, -2, 4], [4, 1, 4, -2, 7], [7, 1, 7]):
        assert is_ab_sequence(m, seq)
        assert m_ab_membership(m, invoice(m, seq))


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=60)
def test_random_sequences_land_in_the_set(pairs, data):
    m = SequenceModel.of({3, 4, 9}, {-2, 0, 5})
    seq = []
    for i in range(pairs):
        seq.append(data.draw(st.sampled_from(m.a_set)))
        if i < pairs - 1:
            seq.append(data.draw(st.sampled_from(m.b_set)))
    total = invoice(m, seq)
    assert total > 0
    assert m_ab_membership(m, total)


def test_verify_theorem5_models():
    assert verify_theorem5(MODEL, 150)
    assert verify_theorem5(SequenceModel.of({3, 5}, {-1, 0}), 80)
    assert verify_theorem5(SequenceModel.of({2}, {0, 3}), 60)
    assert verify_theorem5(SequenceModel.of({5, 9}, {-4, 0}), 100)
    assert verify_theorem5(SequenceModel.of({4, 6}, {-2, 0, 2}), 60)


def test_totals_equal_closure_members_directly():
    m = SequenceModel.of({4, 6}, {-2, 0, 2})
    r = closure_msg(m.a_set, (-2, 2))
    assert m_ab_set(m, 40) == [n for n in range(41) if r.member(n)]
