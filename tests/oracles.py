"""Independent brute-force oracles used to pin the production engines.

Each oracle favours the most literal possible computation over speed and
shares no code with the package internals.
"""

import itertools


def oracle_members(gens, limit):
    """Member set of the monoid generated by gens, on [0, limit]."""
    table = [False] * (limit + 1)
    table[0] = True
    for v in range(1, limit + 1):
        for g in gens:
            if g <= v and table[v - g]:
                table[v] = True
                break
    return {v for v in range(limit + 1) if table[v]}


def oracle_msg(gens):
    """Minimal generators of the monoid generated by gens.

    Minimal generators are always among gens; g is minimal iff it is not
    a sum of two non-zero members.
    """
    top = max(gens)
    members = sorted(oracle_members(gens, top) - {0})
    keep = []
    for g in sorted(set(gens)):
        if not any(a + b == g for a in members for b in members if a <= b):
            keep.append(g)
    return keep


def oracle_is_incentive(gens, cs, window=None):
    """Definition check on a window: s + t + c stays a member for all
    non-zero members s, t and adjustments c.

    A failing pair of members can always be found with s, t generators,
    so a window of twice the largest generator is exact.
    """
    if window is None:
        window = 2 * max(gens) + max((abs(c) for c in cs), default=0) + 1
    limit = 2 * window + max((c for c in cs if c > 0), default=0)
    members = oracle_members(gens, limit)
    small = [v for v in sorted(members) if 0 < v <= window]
    for s in small:
        for t in small:
            for c in cs:
                v = s + t + c
                if v < 0 or (v <= limit and v not in members):
                    return False
    return True


def oracle_closure_member(xs, cs, n):
    """Is n in the smallest monoid containing xs that honours cs?

    Literal counting form: n is a sum of a seed elements plus b
    adjustments with a > b >= 0.  Any witness can be thinned to one with
    b <= n: pair each adjustment with a distinct seed element, delete
    pairs summing to zero (sum and the a > b margin survive), and what
    remains has every pair contributing at least 1.  So capping b at n
    loses nothing.
    """
    if n == 0:
        return True
    if not xs:
        return False
    theta = max((-c for c in cs), default=0)
    theta = max(theta, 0)
    minx = min(xs)
    b_max = n
    a_max = b_max + (n + b_max * theta) // max(minx, 1) + 1
    hi = n + b_max * theta

    x_sums = [{0}]
    for _ in range(a_max):
        x_sums.append({s + x for s in x_sums[-1] for x in xs if s + x <= hi})
    c_sums = [{0}]
    for _ in range(b_max):
        nxt = {s + c for s in c_sums[-1] for c in cs}
        c_sums.append({s for s in nxt if n - s <= hi})

    for b in range(b_max + 1):
        for csum in c_sums[b]:
            t = n - csum
            if t < 0:
                continue
            for a in range(b + 1, a_max + 1):
                if t in x_sums[a]:
                    return True
    return False


def oracle_ab_totals(a_set, b_set, max_len):
    """All invoice totals of alternating sequences up to max_len entries.

    Plain product enumeration; exact only when max_len covers every
    total the caller asks about.
    """
    totals = set()
    for length in range(1, max_len + 1, 2):
        n_a = (length + 1) // 2
        n_b = length // 2
        for aa in itertools.product(sorted(a_set), repeat=n_a):
            for bb in itertools.product(sorted(b_set), repeat=n_b):
                totals.add(sum(aa) + sum(bb))
    return totals


def kunz_counts(cs, max_genus):
    """Numerical semigroups honouring cs, counted by genus 0..max_genus.

    A numerical semigroup of multiplicity m is its Apéry set
    w[i] = k_i * m + i (w[0] = 0) with Kunz coordinates k_i >= 1 and
    genus sum(k_i), subject to the Kunz inequalities
    k_a + k_b >= k_{a+b} (a + b < m) and k_a + k_b + 1 >= k_{a+b-m}
    (a + b > m).  A depth-first search assigns k_1, k_2, ... in order
    and keeps a leaf that passes the pair test on residues: with
    w'[0] = m (the least non-zero member of residue 0) and w'[i] = w[i]
    otherwise, every v = w'[i] + w'[j] + c must satisfy v >= 0 and
    v >= w[v mod m], since S* + S* is, residue by residue, an
    arithmetic progression with step m starting at w'[i] + w'[j].
    N (genus 0, multiplicity 1) qualifies iff min(cs) >= -2.
    """
    counts = [0] * (max_genus + 1)
    if min(cs) >= -2:
        counts[0] = 1
    for m in range(2, max_genus + 2):
        k = [0] * m

        def honours():
            w = [0] + [k[i] * m + i for i in range(1, m)]
            low = [m] + w[1:]
            for i in range(m):
                for j in range(i, m):
                    for c in cs:
                        v = low[i] + low[j] + c
                        if v < 0 or v < w[v % m]:
                            return False
            return True

        def assign(i, left):
            if i == m:
                if honours():
                    counts[max_genus - left] += 1
                return
            # every later coordinate is at least 1
            top = left - (m - 1 - i)
            for a in range(1, i):
                top = min(top, k[a] + k[i - a])
            for v in range(1, top + 1):
                k[i] = v
                if all(v + k[b] + 1 >= k[i + b - m] for b in range(m - i + 1, i + 1)):
                    assign(i + 1, left - v)

        assign(1, max_genus)
    return counts


def honours(gens, cs):
    """Does the monoid generated by gens honour every adjustment in cs?

    Apéry-set form, with m the least generator: w[r] is the least member
    congruent to r modulo m (None when no member is, as for residues
    outside the multiples of the gcd), found by relaxing w[r] + g until
    nothing improves, and v is a member iff v >= w[v mod m].  The
    non-zero members of residue r are low[r] + k * m (low[0] = m,
    low[r] = w[r] otherwise), so s + t + c over non-zero members s, t is
    low[i] + low[j] + c + k * m, and the monoid honours cs iff each
    low[i] + low[j] + c is a member.  No table grows with the adjustments.
    """
    m = min(gens)
    w = [None] * m
    w[0] = 0
    changed = True
    while changed:
        changed = False
        for r in range(m):
            if w[r] is None:
                continue
            for g in gens:
                v = w[r] + g
                if w[v % m] is None or v < w[v % m]:
                    w[v % m] = v
                    changed = True

    def member(v):
        return v >= 0 and w[v % m] is not None and v >= w[v % m]

    low = [m] + w[1:]
    reached = [r for r in range(m) if low[r] is not None]
    return all(member(low[i] + low[j] + c) for i in reached for j in reached for c in cs)
