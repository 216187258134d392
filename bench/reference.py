"""Independent reference answers on Python-int bitsets.

Bit v of a set is 1 iff v is a member.  None of this calls the library:
the benchmark checks library answers against these and, on a seeded
sample, against the brute-force oracles in ``tests/oracles.py``.

The closure reference uses the pair-sum identity.  When every seed is at
least theta = -min(C ∪ {0}), the smallest monoid that contains the seeds
X and honours C is {0} ∪ (X + ⟨X ∪ {x + c > 0 : x in X, c in C}⟩).  A sum
of a seeds and b < a adjustments pairs each adjustment with its own seed;
each pair x + c is at least x - theta >= 0, pairs equal to 0 drop out, and
one seed is left over.  The converse is immediate.
"""

from __future__ import annotations


def generated(gens, limit: int) -> int:
    """Members of the monoid generated by gens, on [0, limit]."""
    mask = (1 << (limit + 1)) - 1
    s = 1
    for g in gens:
        step = g
        while step <= limit:
            s = (s | (s << step)) & mask
            step <<= 1
    return s


def closure(xs, cs, limit: int) -> int:
    """Smallest C-honouring monoid containing xs, on [0, limit]; needs min xs >= theta."""
    pairs = {x + c for x in xs for c in cs if x + c > 0}
    base = generated(sorted(set(xs) | pairs), limit)
    out = 1
    for x in xs:
        out |= base << x
    return out & ((1 << (limit + 1)) - 1)


def from_table(table: bytes) -> int:
    """Bitset of a 0/1 byte table (entry v is 1 iff v is a member)."""
    if not table:
        return 0
    return int(table[::-1].translate(bytes.maketrans(b"\x00\x01", b"01")), 2)


def members(bits: int) -> list[int]:
    digits = bin(bits)[:1:-1]
    return [i for i, ch in enumerate(digits) if ch == "1"]


def minimal_generators(bits: int, top: int) -> list[int]:
    """Minimal generators up to top of the monoid whose members on [0, top] are bits.

    A non-zero member is a minimal generator iff it is not a sum of two
    non-zero members.
    """
    mask = (1 << (top + 1)) - 1
    nonzero = bits & mask & ~1
    sums = 0
    for t in members(nonzero):
        if 2 * t > top:
            break
        sums |= nonzero << t
    return members(nonzero & ~sums)


def contains(bits: int, v: int) -> bool:
    return v >= 0 and bool(bits >> v & 1)


def pair_test(gens, cs, bits: int) -> bool:
    """Does the monoid (members given on [0, 2*max(gens) + max(C)]) honour C?

    Checking every pair of generators suffices: s + t + c for general
    members s, t is such a pair value plus a member.
    """
    for i, a in enumerate(gens):
        for b in gens[i:]:
            for c in cs:
                if not contains(bits, a + b + c):
                    return False
    return True
