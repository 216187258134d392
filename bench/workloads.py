"""The four benchmark workloads.

Each workload draws its operations from one ``random.Random(seed)`` in
blocks of fixed composition, so a run of any length sees the same mix
and the mean cost per block varies little from seed to seed.  A block is
the unit a run measures in whole.  For every operation:

* ``call(op)`` is the timed part: the public library calls and nothing
  else.  An expected ``DomainError`` is returned as the answer;
* ``check(op, out)`` runs after the timer has stopped and returns None or
  the reason the answer is wrong.  It compares against ``reference``
  bitsets, and on a seeded sample against ``tests/oracles.py`` and the
  library's second engine.

``counts`` collects the workload properties a later claim would cite.
"""

from __future__ import annotations

import io
import json
import math
import random
from collections import Counter, OrderedDict, deque

import reference as ref

# OEIS A007323: numerical semigroups of genus g, g = 0..18
A007323 = (1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693, 2857, 4806, 8045, 13467)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> int:
    return int(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _stratified(rng: random.Random, k: int, bits: int) -> list[int]:
    """k values in [1, 2**bits), log-uniform, one per equal slice of the log range."""
    return [max(1, int(2 ** ((i + rng.random()) / k * bits))) for i in range(k)]


def _distinct(rng: random.Random, k: int, lo: int, hi: int) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(lo, hi + 1), k)))


def _theta(cs) -> int:
    return max([0] + [-c for c in cs])


def _fmt(vals) -> str:
    return ",".join(str(v) for v in vals)


def _bool_text(v: bool) -> str:
    return "true" if v else "false"


class _Memo:
    """Results of make(key) for the most recent keys.

    The harness keeps no per-call state that grows with run length, so
    peak_rss_mb does not grow with the number of calls a run completes.
    """

    def __init__(self, size: int = 256) -> None:
        self.size = size
        self.items: OrderedDict = OrderedDict()

    def get(self, key, make):
        if key in self.items:
            self.items.move_to_end(key)
        else:
            self.items[key] = make()
            if len(self.items) > self.size:
                self.items.popitem(last=False)
        return self.items[key]


class Workload:
    name = ""
    # per-call budget: ample for every call here, far below the hour-long
    # cliffs the workloads leave out, so a regression into one fails a call
    budget_s = 5.0
    # blocks in the fixed prefix that the traced run replays
    trace_blocks = 1
    # blocks a timed run measures even when they take longer than --seconds
    min_blocks = 1

    def __init__(self, lib, seed: int) -> None:
        self.lib = lib
        self.rng = random.Random(f"{self.name}:{seed}")
        self.counts: Counter = Counter()

    def next_block(self) -> list:
        raise NotImplementedError

    def call(self, op):
        raise NotImplementedError

    def check(self, op, out) -> str | None:
        raise NotImplementedError

    def warmup_ops(self) -> list:
        return self.next_block()

    def properties(self) -> dict:
        return dict(self.counts)


class Closure(Workload):
    """Distinct (X, C) closure queries; X spread from theta to about 640."""

    name = "closure"
    trace_blocks = 40
    # one ordinary query per octave of the smallest seed; the smallest seed
    # sets the closure's multiplicity and so most of its cost
    MIN_SEED_OCTAVES = ((2, 4), (4, 8), (8, 16), (16, 32), (32, 64), (64, 128), (128, 256))
    MAX_SEED = 640
    ORACLE_EVERY = 8

    def __init__(self, lib, seed: int) -> None:
        super().__init__(lib, seed)
        self.seen: set = set()
        self.pos = self.rng.random()

    def _ordinary(self, lo: int, hi: int, pos: float):
        rng = self.rng
        cs = (0,)
        while cs == (0,):  # C = {0} constrains nothing; the "plain" queries cover it
            cs = _distinct(rng, rng.randint(1, 3), -9, 9)
        x0 = max(_theta(cs), lo + int(pos * (hi - lo)))
        xs, k = {x0}, rng.randint(2, 4)
        while len(xs) < k:
            xs.add(_log_uniform(rng, x0, self.MAX_SEED))
        return "ordinary", tuple(sorted(xs)), cs

    def _plain(self):
        # C = {0}: the closure is the monoid the seeds generate
        return "plain", _distinct(self.rng, self.rng.randint(2, 4), 8, 64), (0,)

    def _gcd(self):
        rng = self.rng
        d = rng.choice((2, 3))
        cs = tuple(sorted(d * k for k in rng.sample((-3, -2, -1, 1, 2, 3), rng.randint(1, 2))))
        k0 = max(1, -(-_theta(cs) // d))
        return "gcd", tuple(d * k for k in _distinct(rng, rng.randint(2, 3), k0, 32)), cs

    def _below(self):
        # seeds below theta: the closure is the multiples of theta/2
        rng = self.rng
        h = rng.randint(1, 4)
        cs = tuple(sorted({-2 * h} | {h * k for k in rng.sample((-1, 1, 2, 3), rng.randint(0, 2))}))
        xs = {h} | {h * k for k in rng.sample(range(2, 61), rng.randint(1, 3))}
        return "below", tuple(sorted(xs)), cs

    def _inadmissible(self):
        # odd theta and a seed below it: no monoid honouring C contains X
        rng = self.rng
        th = rng.choice((3, 5, 7, 9))
        cs = tuple(sorted({-th} | set(rng.sample(range(-th + 1, 10), rng.randint(0, 2)))))
        xs = {rng.randint(1, th - 1)} | set(rng.sample(range(th, 201), rng.randint(1, 2)))
        return "inadmissible", tuple(sorted(xs)), cs

    def _fresh(self, make, *args):
        # Hashes keep the set small, and a collision only redraws.  Every
        # class has far more keys than a run uses; the bound on redraws
        # only guarantees that generation ends.
        for _ in range(1000):
            cls, xs, cs = make(*args)
            if hash((xs, cs)) not in self.seen:
                break
        self.seen.add(hash((xs, cs)))
        return cls, xs, cs, self.rng.randrange(self.ORACLE_EVERY) == 0

    def next_block(self) -> list:
        # The smallest seed's place in its octave follows a golden-ratio
        # sequence from a seeded start, so every run covers each octave
        # evenly and the cost per block varies little between seeds.
        self.pos = (self.pos + 0.6180339887498949) % 1.0
        ops = [self._fresh(self._ordinary, lo, hi, self.pos) for lo, hi in self.MIN_SEED_OCTAVES]
        ops += [self._fresh(make) for make in (self._plain, self._gcd, self._below, self._inadmissible)]
        self.rng.shuffle(ops)
        return ops

    def call(self, op):
        _, xs, cs, _ = op
        closure = self.lib.closure
        try:
            r = closure.closure_msg(xs, cs)
        except self.lib.DomainError as exc:
            return exc
        return r, closure.is_incentive(r.msg, cs), all(r.member(x) for x in xs)

    def check(self, op, out) -> str | None:
        cls, xs, cs, oracle = op
        self.counts[f"class.{cls}"] += 1
        self.counts[f"min_seed_octave.{xs[0].bit_length()}"] += 1
        self.counts[f"max_seed_octave.{xs[-1].bit_length()}"] += 1
        if cls == "inadmissible":
            if isinstance(out, self.lib.NotAdmissible):
                return None
            return f"expected NotAdmissible, got {out!r}"
        if isinstance(out, Exception):
            return f"unexpected {out!r}"
        r, honours, has_seeds = out
        if not honours:
            return "is_incentive rejects the closure"
        if not has_seeds:
            return "the closure misses a seed"
        cn = tuple(c for c in cs if c)
        if cls == "below":
            h = _theta(cn) // 2
            if r.scale != h or r.msg.elements != (h,):
                return f"expected the multiples of {h}, got {r.msg} at scale {r.scale}"
            return None
        g = math.gcd(*xs, *cn)
        sg = r.semigroup
        if r.scale != g:
            return f"scale {r.scale}, expected gcd {g}"
        if tuple(g * v for v in sg.msg.elements) != r.msg.elements:
            return "msg is not the reduced msg scaled back"
        m, frob = sg.multiplicity, sg.frobenius
        top = frob + 1 + m
        want = ref.closure([x // g for x in xs], [c // g for c in cn], top)
        got = ref.from_table(sg.member_table) | (((1 << (top + 1)) - 1) >> (frob + 2) << (frob + 2))
        if want != got:
            return "members differ from the pair-sum identity"
        if ref.minimal_generators(want, top) != list(sg.msg.elements):
            return "msg is not the minimal generating set"
        if oracle:
            self.counts["oracle_checked"] += 1
            return self._oracle_check(xs, cs, cn, r)
        return None

    def _oracle_check(self, xs, cs, cn, r) -> str | None:
        oracles = self.lib.oracles
        gens = list(r.msg.elements)
        if gens[-1] <= 60:
            if oracles.oracle_msg(gens) != gens:
                return "oracle_msg disagrees"
            if not oracles.oracle_is_incentive(gens, list(cn)):
                return "oracle_is_incentive disagrees"
        for n in range(25):
            if oracles.oracle_closure_member(list(xs), list(cn), n) != r.member(n):
                return f"oracle_closure_member disagrees at {n}"
        for n in range(0, 201, 25):
            if self.lib.closure.closure_membership(xs, cs, n) != r.member(n):
                return f"closure_membership disagrees with closure_msg at {n}"
        return None


class Membership(Workload):
    """Point membership queries on small seeds, half of them on a key already seen."""

    name = "membership"
    trace_blocks = 100
    PER_BLOCK = 8  # closure_membership and m_ab_membership queries per block
    GENS_PER_BLOCK = 12
    RECENT = 24  # repeats draw from this many most recent keys
    N_BITS = 10  # slack-table queries: n < 1024
    CAP_BUCKETS = ((1, 257), (257, 1024))  # n ranges sharing one slack-table cap
    GENS_N_BITS = 12  # generator membership: n < 4096
    ORACLE_EVERY = 6

    def __init__(self, lib, seed: int) -> None:
        super().__init__(lib, seed)
        self.recent = {k: deque(maxlen=self.RECENT) for k in ("closure", "model")}
        self.seen: set = set()
        self.refs = _Memo()

    def _closure_key(self):
        rng = self.rng
        cs = tuple(c for c in _distinct(rng, rng.randint(1, 3), -6, 6) if c) or (1,)
        return _distinct(rng, rng.randint(2, 4), max(_theta(cs), 2), 24), cs

    def _model_key(self):
        rng = self.rng
        a = _distinct(rng, rng.randint(2, 3), 3, 24)
        b = tuple(sorted({0} | set(rng.sample([v for v in range(-a[0], 10) if v], rng.randint(1, 2)))))
        return a, b

    def _gens_key(self):
        return _distinct(self.rng, self.rng.randint(2, 4), 2, 40)

    def _keyed(self, kind: str, make) -> list:
        """(key, n) pairs: half on new keys at stratified n, half on recent keys.

        A repeat asks for an n under the same slack-table cap as the key's
        first query, as ``verify closure-agreement`` does with its run of n,
        so it can find the table cached.
        """
        rng, pool, out = self.rng, self.recent[kind], []
        for n in _stratified(rng, self.PER_BLOCK // 2, self.N_BITS):
            key = make()
            pool.append((key, self.CAP_BUCKETS[n >= self.CAP_BUCKETS[1][0]]))
            out.append((key, n))
            key, (lo, hi) = rng.choice(pool)
            out.append((key, _log_uniform(rng, lo, hi)))
        return out

    def next_block(self) -> list:
        rng = self.rng
        SequenceModel = self.lib.sequences.SequenceModel
        ops = [("closure_membership", key, n) for key, n in self._keyed("closure", self._closure_key)]
        ops += [("m_ab_membership", SequenceModel(*key), n) for key, n in self._keyed("model", self._model_key)]
        ops += [("membership", self._gens_key(), n) for n in _stratified(rng, self.GENS_PER_BLOCK, self.GENS_N_BITS)]
        (a, b), (lo, hi) = rng.choice(self.recent["model"])
        ops.append(("m_ab_set", SequenceModel(a, b), _log_uniform(rng, max(lo, 64), hi)))
        rng.shuffle(ops)
        return [op + (rng.randrange(self.ORACLE_EVERY) == 0,) for op in ops]

    def call(self, op):
        kind, key, n, _ = op
        if kind == "closure_membership":
            return self.lib.closure.closure_membership(key[0], key[1], n)
        if kind == "m_ab_membership":
            return self.lib.sequences.m_ab_membership(key, n)
        if kind == "membership":
            return self.lib.monoid.membership(key, n)
        return self.lib.sequences.m_ab_set(key, n)

    def _reference(self, kind: str, key, n: int) -> int:
        top = 2**self.N_BITS
        if kind == "membership":
            return ref.generated(key, n)
        if kind == "closure_membership":
            return self.refs.get(key, lambda: ref.closure(key[0], key[1], top))
        xs, cs = key.a_set, tuple(v for v in key.b_set if v)
        return self.refs.get((xs, cs, "model"), lambda: ref.closure(xs, cs, top))

    def check(self, op, out) -> str | None:
        kind, key, n, oracle = op
        self.counts[f"calls.{kind}"] += 1
        if kind != "membership":
            k = hash(key if kind == "closure_membership" else (key.a_set, key.b_set, "model"))
            self.counts["keyed"] += 1
            self.counts["key_repeats"] += k in self.seen
            self.seen.add(k)
        bits = self._reference(kind, key, n)
        if kind == "m_ab_set":
            want = ref.members(bits & ((1 << (n + 1)) - 1))
            return None if out == want else f"m_ab_set window [0, {n}] differs"
        if out != ref.contains(bits, n):
            return f"{kind} answered {out} for n={n}"
        if oracle:
            self.counts["oracle_checked"] += 1
            return self._oracle_check(kind, key, n, out)
        return None

    def _oracle_check(self, kind, key, n, out) -> str | None:
        oracles = self.lib.oracles
        if kind == "membership":
            if (n in oracles.oracle_members(list(key), n)) != out:
                return "oracle_members disagrees"
            return None
        if kind == "closure_membership":
            xs, cs = key
            if self.lib.closure.closure_msg(xs, cs).member(n) != out:
                return "closure_msg disagrees with closure_membership"
        else:
            xs, cs = key.a_set, tuple(v for v in key.b_set if v)
        if n <= 40 and oracles.oracle_closure_member(list(xs), list(cs), n) != out:
            return "oracle_closure_member disagrees"
        return None

    def properties(self) -> dict:
        props = dict(self.counts)
        props["key_repeat_share"] = self.counts["key_repeats"] / max(1, self.counts["keyed"])
        return props


class Tree(Workload):
    """enumerate_tree and decompose over a fixed list plus two seeded entries."""

    name = "tree"
    budget_s = 20.0
    # six passes give twelve calls on the two largest trees, so the eleven
    # slowest calls that set tail_ms always come from that group
    min_blocks = 6
    # (label, C, genus bound, node count).  The counts are what the library
    # produced when this benchmark was written; the {0} tree is also pinned
    # to A007323, and sampled nodes of every tree are rebuilt independently.
    FIXED = (
        ("{0}", (0,), 18, 33282),
        ("{-3,2}", (-3, 2), 19, 6711),
        ("{5}", (5,), 18, 24328),
        ("{-7,3}", (-7, 3), 20, 2333),
        ("{-5,1,4}", (-5, 1, 4), 20, 4900),
    )
    SEEDED_GENUS = 14
    DECOMPOSE_GENUS = 10
    SAMPLED_NODES = 3

    def __init__(self, lib, seed: int) -> None:
        super().__init__(lib, seed)
        rng = self.rng
        bound = lib.tree.EnumerationBound
        self.ops = [("tree", label, cs, None, bound("max_genus", g), n) for label, cs, g, n in self.FIXED]
        cs = tuple(c for c in _distinct(rng, rng.randint(1, 2), -6, 6) if c) or (2,)
        lo = max(_theta(cs), 3)
        xs = _distinct(rng, rng.randint(1, 2), lo, 3 * lo + 6)
        self.ops.append(("tree", f"x_set {_fmt(xs)} c {_fmt(cs)}", cs, xs, bound("max_genus", self.SEEDED_GENUS), None))
        d = rng.choice((2, 3))
        cs = (-d * rng.randint(1, 3), d * rng.randint(1, 3))
        self.ops.append(("decompose", f"decompose c {_fmt(cs)}", cs, None, bound("max_genus", self.DECOMPOSE_GENUS), None))
        self.fingerprints: dict = {}

    def next_block(self) -> list:
        return list(self.ops)

    def warmup_ops(self) -> list:
        # the two seeded entries only: the fixed list would triple set-up time
        return self.ops[len(self.FIXED):]

    def call(self, op):
        kind, _, cs, xs, bound, _ = op
        if kind == "tree":
            return self.lib.tree.enumerate_tree(cs, xs, bound)
        return self.lib.tree.decompose(cs, xs, bound)

    @staticmethod
    def _fingerprint(tree):
        hist = Counter(n.semigroup.genus for n in tree.nodes)
        return tree.node_count, tree.truncated, tuple(hist[g] for g in range(max(hist, default=-1) + 1))

    def check(self, op, out) -> str | None:
        kind, label, cs, xs, bound, pinned = op
        if kind == "tree":
            slices = {1: out}
        else:
            if not out.includes_trivial:
                return "decompose without seeds must include the trivial monoid"
            slices = out.trees
        fp = {d: self._fingerprint(t) for d, t in slices.items()}
        nodes = sum(f[0] for f in fp.values())
        self.counts["nodes"] += nodes
        first = label not in self.fingerprints
        if not first:
            return None if self.fingerprints[label] == fp else f"{label}: tree differs between passes"
        self.fingerprints[label] = fp
        self.counts[f"nodes.{label}"] = nodes
        if pinned is not None and nodes != pinned:
            return f"{label}: {nodes} nodes, expected {pinned}"
        if label == "{0}" and fp[1][2] != A007323:
            return f"{{0}} genus counts {fp[1][2]} differ from A007323"
        if kind == "decompose":
            g = math.gcd(*cs)
            if sorted(slices) != [d for d in range(1, g + 1) if g % d == 0]:
                return f"{label}: slices {sorted(slices)} are not the divisors of {g}"
        sample = random.Random(f"{label}:{self.rng.random()}")
        for d, tree in slices.items():
            cs_d = tuple(c // d for c in cs if c)
            xs_d = tuple(x // d for x in xs) if xs else ()
            removed = {}
            for node in tree.nodes:
                if node.parent is not None:
                    removed.setdefault(node.parent.node_id, []).append(node.removed_generator)
            for _ in range(min(self.SAMPLED_NODES, tree.node_count)):
                node = tree.nodes[sample.randrange(tree.node_count)]
                why = self._check_node(node.semigroup, removed.get(node.node_id, []), cs_d, xs_d, bound.value)
                if why:
                    return f"{label}: node {node.semigroup}: {why}"
        return None

    @staticmethod
    def _check_node(sg, kids, cs, xs, max_genus) -> str | None:
        """Recompute a node and its viable children from its generators alone."""
        gens = list(sg.msg.elements)
        frob, m = sg.frobenius, gens[0]
        cmax = max((c for c in cs if c > 0), default=0)
        # minimal generators are at most frobenius + multiplicity + 1
        top = 2 * (frob + 2 * m + 2) + cmax + 1
        bits = ref.generated(gens, top)
        gaps = [v for v in range(frob + 2) if not ref.contains(bits, v)]
        if (gaps[-1] if gaps else -1) != frob or len(gaps) != sg.genus:
            return "frobenius or genus differs from the generated monoid"
        if ref.minimal_generators(bits, frob + m + 1) != gens:
            return "generators are not minimal"
        if not ref.pair_test(gens, cs, bits):
            return "does not honour C"
        if any(x <= frob and not ref.contains(bits, x) for x in xs):
            return "misses a required seed"
        want = []
        if len(gaps) < max_genus:
            for x in gens:
                if x <= frob or x in xs:
                    continue
                child = bits & ~(1 << x)
                child_gens = ref.minimal_generators(child, x + m + 2)
                if ref.pair_test(child_gens, cs, child):
                    want.append(x)
        if sorted(kids) != want:
            return f"children remove {sorted(kids)}, expected {want}"
        return None


class Cli(Workload):
    """Command lines through incentives.cli.run, checked against the library."""

    name = "cli"
    trace_blocks = 40
    SMALL = (("theta", 3), ("admissible", 3), ("closure", 4), ("membership", 3), ("mab invoice", 3))
    LARGE = ("tree text", "tree json", "tree dot", "mab set", "decompose")
    TREES = (("-3,2", 12), ("5", 11), ("-5,1,4", 13), ("-7,3", 14))

    def __init__(self, lib, seed: int) -> None:
        super().__init__(lib, seed)
        self.blocks = 0
        self.expected = _Memo()

    def _small(self, kind: str) -> list[str]:
        rng = self.rng
        cs = _distinct(rng, rng.randint(1, 3), -9, 9)
        th = _theta(cs)
        xs = _distinct(rng, rng.randint(1, 3), max(th, 1), max(th, 1) + 30)
        if kind == "theta":
            return ["theta", f"--c={_fmt(cs)}"]
        if kind == "admissible":
            return ["admissible", f"--c={_fmt(cs)}", f"--x={_fmt(_distinct(rng, 2, 1, 20))}"]
        if kind == "closure":
            fmt = ["--format=json"] if rng.random() < 0.3 else []
            return ["closure", f"--c={_fmt(cs)}", f"--x={_fmt(xs)}"] + fmt
        if kind == "membership":
            n = f"--n={rng.randint(0, 200)}"
            if rng.random() < 0.5:
                return ["membership", f"--gens={_fmt(_distinct(rng, 2, 2, 30))}", n]
            return ["membership", f"--c={_fmt(cs)}", f"--x={_fmt(xs)}", n]
        a = _distinct(rng, 2, 3, 20)
        b = tuple(sorted({0} | set(rng.sample(range(-a[0], 10), 2))))
        seq = [rng.choice(a if i % 2 == 0 else b) for i in range(2 * rng.randint(0, 4) + 1)]
        return ["mab", "invoice", f"--a={_fmt(a)}", f"--b={_fmt(b)}", f"--seq={_fmt(seq)}"]

    def _large(self, kind: str) -> list[str]:
        rng = self.rng
        if kind.startswith("tree"):
            cs, g = rng.choice(self.TREES)
            return ["tree", f"--c={cs}", f"--max-genus={g}", f"--format={kind.split()[1]}"]
        if kind == "mab set":
            a = _distinct(rng, rng.randint(2, 3), 3, 24)
            b = tuple(sorted({0} | set(rng.sample(range(-a[0], 10), 2))))
            return ["mab", "set", f"--a={_fmt(a)}", f"--b={_fmt(b)}", f"--bound={_log_uniform(rng, 512, 1024)}"]
        d = rng.choice((2, 3))
        fmt = rng.choice(("text", "json"))
        return ["decompose", f"--c={-d * rng.randint(1, 3)},{d * rng.randint(1, 3)}", "--max-genus=8", f"--format={fmt}"]

    def next_block(self) -> list:
        ops = [(kind, self._small(kind)) for kind, k in self.SMALL for _ in range(k)]
        large = self.LARGE[self.blocks % len(self.LARGE)]
        self.blocks += 1
        ops.append((large, self._large(large)))
        self.rng.shuffle(ops)
        return ops

    def call(self, op):
        out, err = io.StringIO(), io.StringIO()
        code = self.lib.cli.run(op[1], stdout=out, stderr=err)
        return code, out.getvalue(), err.getvalue()

    def check(self, op, out) -> str | None:
        kind, argv = op
        code, stdout, stderr = out
        size = len(stdout.encode())
        self.counts[f"calls.{kind}"] += 1
        self.counts["output_bytes"] += size
        self.counts[f"output_bytes.{kind}"] += size
        if code != 0 or stderr:
            return f"{' '.join(argv)}: exit {code}, stderr {stderr!r}"
        if stdout != self.expected.get(tuple(argv), lambda: self._render(argv)):
            return f"{' '.join(argv)}: stdout differs from the rendered library result"
        return None

    # -- expected stdout, rendered from library results -------------------

    def _render(self, argv: list[str]) -> str:
        lib = self.lib
        opts = dict(a[2:].split("=", 1) for a in argv if a.startswith("--"))

        def ints(name):
            return tuple(int(v) for v in opts[name].split(","))

        def bound():
            return lib.tree.EnumerationBound("max_genus", int(opts["max-genus"]))

        cmd = argv[0] if argv[0] not in ("mab",) else f"mab {argv[1]}"
        if cmd == "theta":
            return f"{lib.closure.theta(ints('c'))}\n"
        if cmd == "admissible":
            return _bool_text(lib.closure.is_admissible(ints("x"), ints("c"))) + "\n"
        if cmd == "closure":
            r = lib.closure.closure_msg(ints("x"), ints("c"))
            if opts.get("format") == "json":
                return self._json(self._closure_json(r))
            return self._closure_text(r) + "\n"
        if cmd == "membership":
            n = int(opts["n"])
            if "gens" in opts:
                return _bool_text(lib.monoid.membership(ints("gens"), n)) + "\n"
            return _bool_text(lib.closure.closure_membership(ints("x"), ints("c"), n)) + "\n"
        if cmd == "mab invoice":
            model = lib.sequences.SequenceModel.of(ints("a"), ints("b"))
            return f"{lib.sequences.invoice(model, list(ints('seq')))}\n"
        if cmd == "mab set":
            vals = lib.sequences.m_ab_set(lib.sequences.SequenceModel.of(ints("a"), ints("b")), int(opts["bound"]))
            return _fmt(vals) + "\n"
        if cmd == "tree":
            tree = lib.tree.enumerate_tree(ints("c"), None, bound())
            if opts["format"] == "json":
                return tree.to_json() + "\n"
            if opts["format"] == "dot":
                return tree.to_dot()
            return self._tree_text(tree) + "\n"
        dec = lib.tree.decompose(ints("c"), None, bound())
        if opts["format"] == "json":
            return self._json({
                "includes_trivial": dec.includes_trivial,
                "slices": {str(d): t.to_json_dict() for d, t in dec.trees.items()},
            })
        lines = [f"includes trivial monoid: {_bool_text(dec.includes_trivial)}"]
        for d in sorted(dec.trees):
            lines.append(f"divisor {d}:")
            lines += ["  " + line for line in self._tree_text(dec.trees[d]).splitlines()]
        return "\n".join(lines) + "\n"

    @staticmethod
    def _json(obj) -> str:
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"

    @staticmethod
    def _closure_text(r) -> str:
        if r.kind == "trivial":
            return "trivial: {0}"
        sg = r.semigroup
        head = f"msg: {_fmt(r.msg.elements)}"
        if r.kind == "multiple":
            return (f"{head} | scale: {r.scale} | reduced msg: {_fmt(sg.msg.elements)}"
                    f" | reduced frobenius: {sg.frobenius} | reduced genus: {sg.genus}")
        return f"{head} | frobenius: {sg.frobenius} | genus: {sg.genus}"

    @staticmethod
    def _closure_json(r) -> dict:
        sg = r.semigroup
        reduced = None if sg is None else {
            "msg": list(sg.msg.elements), "frobenius": sg.frobenius, "genus": sg.genus,
        }
        return {"kind": r.kind, "scale": r.scale, "msg": list(r.msg.elements) if r.msg else None,
                "reduced": reduced}

    @staticmethod
    def _tree_text(tree) -> str:
        kids: dict[int, list] = {}
        for n in tree.nodes[1:]:
            kids.setdefault(n.parent.node_id, []).append(n)
        lines = []

        def visit(node, depth):
            sg = node.semigroup
            label = f"{sg} frobenius={sg.frobenius} genus={sg.genus}"
            if node.removed_generator is not None:
                label = f"remove {node.removed_generator} -> {label}"
            lines.append("  " * depth + label)
            for child in kids.get(node.node_id, []):
                visit(child, depth + 1)

        if tree.root is not None:
            visit(tree.root, 0)
        lines.append(f"nodes={tree.node_count} truncated={_bool_text(tree.truncated)}")
        return "\n".join(lines)


WORKLOADS = {w.name: w for w in (Closure, Membership, Tree, Cli)}
