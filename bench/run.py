"""Benchmark of the incentives library: one closed-loop client, one thread.

Run from the repository root:

    python3 bench/run.py --workload closure --seed 1 --seconds 10 --trace 0

Workloads: closure, membership, tree, cli (see bench/README.md).  With
``--trace 0`` the run measures the end-to-end metrics with nothing
patched; with ``--trace 1`` it replays a fixed prefix of the workload
untraced and then traced, and reports the per-layer metrics.  Human-readable
lines come first; the last line of standard output is one JSON object.
A record of the run (and, when traced, every span) is written under
bench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_PROBES = 7
COLD_START_SAMPLES = 5
WARMUP_SEED_OFFSET = 1_000_003
# Every loop stops starting calls this long after the process began, so
# that a run ends inside three minutes even when each call overruns its
# budget.  Set-up probes stop at the same point.
RUN_DEADLINE_S = 130.0
MAX_REPORTED_ERRORS = 10

from tracing import SpanStats, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Overrun(Exception):
    """A call ran past its workload's time budget."""


_in_call = False
_deadline = time.perf_counter() + RUN_DEADLINE_S


def _on_alarm(signum, frame):
    if _in_call:
        raise Overrun()


def load_library() -> SimpleNamespace:
    """Import the package from src/ and the oracles from tests/ of this checkout."""
    src, tests = ROOT / "src", ROOT / "tests"
    sys.path[:0] = [str(src), str(tests)]
    pkg = importlib.import_module("incentives")
    oracles = importlib.import_module("oracles")
    for mod, home in ((pkg, src / "incentives"), (oracles, tests)):
        if Path(mod.__file__).resolve().parent != home.resolve():
            raise ImportError(f"{mod.__name__} was imported from {mod.__file__}, not {home}")
    mods = {m: importlib.import_module(f"incentives.{m}") for m in ("monoid", "closure", "sequences", "tree", "cli")}
    return SimpleNamespace(
        oracles=oracles,
        DomainError=pkg.DomainError,
        NotAdmissible=pkg.NotAdmissible,
        **mods,
    )


def reset_caches(lib) -> None:
    """Empty every functools cache in the library."""
    for mod in (lib.monoid, lib.closure, lib.sequences, lib.tree, lib.cli):
        for value in vars(mod).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def slack_cache_info(lib) -> tuple[int, int]:
    info = getattr(getattr(lib.closure, "_slack_profile", None), "cache_info", None)
    if info is None:
        return 0, 0
    ci = info()
    return ci.hits, ci.misses


class Phase:
    """Latencies, failures and cache lookups of one pass over some blocks."""

    def __init__(self) -> None:
        self.latencies = array("d")
        self.busy_s = 0.0
        self.failed = 0
        self.errors: list[str] = []
        self.blocks = 0
        self.hits = 0
        self.misses = 0

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_REPORTED_ERRORS:
            self.errors.append(why)


def run_block(lib, wl, ops, phase: Phase, tracer: Tracer | None = None) -> None:
    global _in_call
    for op in ops:
        if phase.latencies and time.perf_counter() > _deadline:
            break
        if tracer is not None:
            tracer.call_id = len(phase.latencies)
            h0, m0 = slack_cache_info(lib)
            tracer.on = True
        out, why = None, None
        signal.setitimer(signal.ITIMER_REAL, wl.budget_s)
        t0 = time.perf_counter()
        try:
            _in_call = True
            out = wl.call(op)
            _in_call = False
        except Overrun:
            why = f"overran its {wl.budget_s} s budget"
        except Exception as exc:  # an unexpected exception is a failed call
            why = f"raised {exc!r}"
        t1 = time.perf_counter()
        _in_call = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.on = False
            h1, m1 = slack_cache_info(lib)
            phase.hits += h1 - h0
            phase.misses += m1 - m0
        phase.latencies.append(t1 - t0)
        phase.busy_s += t1 - t0
        if why is None:
            try:
                why = wl.check(op, out)
            except Exception as exc:  # a malformed answer can break the check
                why = f"check raised {exc!r} on {out!r:.200}"
        if why is not None:
            phase.fail(f"{wl.name} {op!r:.200}: {why}")
    phase.blocks += 1


def run_phase(lib, wl, blocks, seconds: float, tracer: Tracer | None = None, replay: bool = False) -> Phase:
    """Run whole blocks until the calls have taken ``seconds`` in total,
    and at least the workload's ``min_blocks``.

    With replay, run exactly the given blocks (stopping early only on the
    time limits) so that two passes see the same calls.
    """
    phase = Phase()
    i = 0
    while True:
        if replay and i == len(blocks):
            break
        block = blocks[i] if i < len(blocks) else wl.next_block()
        i += 1
        run_block(lib, wl, block, phase, tracer)
        if time.perf_counter() > _deadline:
            break
        if phase.busy_s >= seconds and (replay or phase.blocks >= wl.min_blocks):
            break
    return phase


def warm_up(lib, name: str, seed: int) -> list[str]:
    """Run one block of another seed's inputs; returns any failures."""
    wl = WORKLOADS[name](lib, seed + WARMUP_SEED_OFFSET)
    phase = Phase()
    run_block(lib, wl, wl.warmup_ops(), phase)
    return phase.errors


def setup(args):
    lib = load_library()
    wl = WORKLOADS[args.workload](lib, args.seed)
    blocks = [wl.next_block() for _ in range(wl.trace_blocks)]
    warm_errors = warm_up(lib, args.workload, args.seed)
    return lib, wl, blocks, warm_errors


def probe_setup(args) -> list[float]:
    """Wall time from process start to the first timed call, in fresh processes."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        if samples and time.perf_counter() > _deadline:
            break
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            try:
                _, err = proc.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {err.strip()[-500:]}")
        samples.append(t1 - t0)
    return samples


def cold_start_ms() -> list[float]:
    """Fresh-interpreter ``import incentives.cli`` times."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import incentives.cli"
    samples = []
    for _ in range(COLD_START_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60, capture_output=True)
        samples.append((time.perf_counter() - t0) * 1000)
    return samples


def tail(latencies) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least 10 samples beyond it.

    Returns (seconds, percentile, sample count); with fewer than 11
    samples that is the maximum at percentile 100.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(args, lib, wl, blocks, _warm_errors):
    counts0 = Counter(wl.counts)
    phase = run_phase(lib, wl, blocks, args.seconds)
    rss = peak_rss_mb()
    setup_samples = probe_setup(args)
    lat = phase.latencies
    tail_s, tail_pct, n = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (len(lat) / phase.busy_s, "1/s"),
        "p50_ms": (statistics.median(lat) * 1000, "ms"),
        "tail_ms": (tail_s * 1000, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    extra = {
        "error_rate": phase.failed / len(lat),
        "tail_percentile": tail_pct,
        "samples": n,
        "blocks": phase.blocks,
        "timed_s": phase.busy_s,
        "setup_samples_s": setup_samples,
    }
    nodes = wl.counts["nodes"] - counts0["nodes"]
    if nodes:
        extra["nodes_per_s"] = nodes / phase.busy_s
    return metrics, extra, phase


def per_layer(args, lib, wl, blocks, warm_errors):
    """Replay the fixed prefix untraced, then traced; warm-up failures go to warm_errors."""
    base = run_phase(lib, wl, blocks, args.seconds, replay=True)
    base_nodes = wl.counts["nodes"]
    properties = wl.properties()  # the replayed pass would count every key twice
    reset_caches(lib)
    warm_errors += warm_up(lib, args.workload, args.seed)
    counts0 = Counter(wl.counts)
    tracer = Tracer()
    tracer.patch()
    try:
        traced = run_phase(lib, wl, blocks[: base.blocks], args.seconds, tracer, replay=True)
    finally:
        tracer.unpatch()
    cold = cold_start_ms()
    st = SpanStats(tracer)
    delta = Counter(wl.counts)
    delta.subtract(counts0)
    lookups = traced.hits + traced.misses
    viable_calls = st.count("tree.child_viable")
    base_rate = len(base.latencies) / base.busy_s
    traced_rate = len(traced.latencies) / traced.busy_s
    metrics = {
        "monoid.msg.calls": (st.count("monoid.msg"), "count"),
        "monoid.msg.busy_s": (st.busy_s("monoid.msg"), "s"),
        "closure.rounds_per_call": (
            st.outer_count_inside("monoid.msg", "closure.closure_msg")
            / max(1, st.outer_count("closure.closure_msg")), "ratio"),
        "monoid.numerical_semigroup.calls": (st.count("monoid.numerical_semigroup"), "count"),
        "monoid.numerical_semigroup.busy_s": (st.busy_s("monoid.numerical_semigroup"), "s"),
        "monoid.table_bytes": (tracer.counters["monoid.table_bytes"], "bytes_computed"),
        "monoid.membership.calls": (st.count("monoid.membership"), "count"),
        "monoid.membership.busy_s": (st.busy_s("monoid.membership"), "s"),
        "closure.closure_membership.calls": (st.count("closure.closure_membership"), "count"),
        "closure.closure_membership.busy_s": (st.busy_s("closure.closure_membership"), "s"),
        "sequences.m_ab_membership.busy_s": (st.busy_s("sequences.m_ab_membership"), "s"),
        "sequences.m_ab_set.busy_s": (st.busy_s("sequences.m_ab_set"), "s"),
        "closure.slack_cache.hit_ratio": (traced.hits / lookups if lookups else 0.0, "ratio"),
        "closure.slack_cache.lookups": (lookups, "count"),
        "closure.closure_msg.busy_s": (st.busy_s("closure.closure_msg"), "s"),
        "closure.closure_msg.self_s": (st.self_s("closure.closure_msg"), "s"),
        "closure.is_incentive.busy_s": (st.busy_s("closure.is_incentive"), "s"),
        "tree.children.calls": (st.count("tree.children"), "count"),
        "tree.children.busy_s": (st.busy_s("tree.children"), "s"),
        "tree.child_viable.calls": (viable_calls, "count"),
        "tree.child_viable.busy_s": (st.busy_s("tree.child_viable"), "s"),
        "tree.child_viable.accept_ratio": (
            tracer.counters["tree.child_viable.accepted"] / viable_calls if viable_calls else 0.0, "ratio"),
        "tree.msg_after_removal.busy_s": (st.busy_s("tree.msg_after_removal"), "s"),
        "tree.nodes": (delta["nodes"], "count"),
        "tree.nodes_per_s": (base_nodes / base.busy_s, "1/s"),
        "cli.build_parser.busy_s": (st.busy_s("cli.build_parser"), "s"),
        "cli.self_s": (st.self_s("cli.run"), "s"),
        "cli.output_bytes": (delta["output_bytes"], "bytes"),
        "cli.cold_start_ms": (statistics.median(cold), "ms"),
        "trace.overhead": (base_rate / traced_rate, "ratio"),
        "trace.calls": (len(traced.latencies), "count"),
    }
    extra = {
        "untraced_ops_per_s": base_rate,
        "traced_ops_per_s": traced_rate,
        "replayed_blocks": traced.blocks,
        "spans": len(tracer),
        "cold_start_samples_ms": cold,
        "properties": properties,
    }
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.csv.gz"
    tracer.write(spans_path)
    extra["spans_file"] = str(spans_path.relative_to(ROOT))
    both = Phase()
    both.failed = base.failed + traced.failed
    both.errors = (base.errors + traced.errors)[:MAX_REPORTED_ERRORS]
    both.latencies = base.latencies + traced.latencies
    both.busy_s = base.busy_s + traced.busy_s
    return metrics, extra, both


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        lib, wl, blocks, warm_errors = setup(args)
    except ImportError as exc:
        print(f"error: cannot load the library from {ROOT}: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    measure = per_layer if args.trace else end_to_end
    metrics, extra, phase = measure(args, lib, wl, blocks, warm_errors)
    errors = warm_errors + phase.errors
    attempted = len(phase.latencies)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "attempted": attempted,
        "failed": phase.failed,
        "warmup_failures": len(warm_errors),
        "errors": errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "properties": extra.pop("properties", None) or wl.properties(),
        "details": extra,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"(one closed-loop client, one thread)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  error_rate = {phase.failed / attempted:.6g} ({phase.failed} failed of {attempted} attempted)")
    for key in ("nodes_per_s", "tail_percentile", "samples", "blocks"):
        if key in extra:
            print(f"  {key} = {extra[key]:.6g}")
    for why in errors:
        print(f"  failure: {why}", file=sys.stderr)
    result = {
        "correct": phase.failed == 0 and not warm_errors,
        "attempted": attempted,
        "failed": phase.failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
