"""Command-line front door.

Commands map one-to-one onto library operations; output is plain text by
default with --format=json (and =dot for trees) as machine forms.  Exit
status 0 means success, 1 a domain error (reported in one line on
standard error) or a failed verification, 2 a usage error.  All output
for a fixed command line is byte-deterministic.

A command line is parsed once, by the leaf parser of the command its
first one or two words name (``theta``, ``mab invoice``); ``build_parser``
records the leaves while it builds the root parser.  A line that names no
leaf, or that the leaf does not consume whole, goes to the root parser,
so every usage line, help text and error is the one a root parse prints.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from typing import IO

from .closure import (
    _DP_CEILING,
    MULTIPLE,
    TRIVIAL,
    ClosureResult,
    closure_membership,
    closure_msg,
    is_admissible,
    is_incentive,
    theta,
)
from .errors import BoundTooLarge, DomainError
from .monoid import MAX_INPUT, membership
from .sequences import SequenceModel, invoice, m_ab_membership, m_ab_set, verify_theorem5
from .tree import (
    MAX_DEPTH,
    MAX_FROBENIUS,
    MAX_GENUS,
    EnumerationBound,
    brute_force_family,
    decompose,
    enumerate_tree,
)


def _bounded_int(literal: str) -> int:
    """One integer token of magnitude at most 2**31; every integer argument parses through it."""
    try:
        v = int(literal)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {literal!r}")
    if abs(v) > MAX_INPUT:
        raise argparse.ArgumentTypeError(f"magnitude above 2**31: {v}")
    return v


def parse_seq(literal: str) -> tuple[int, ...]:
    """Comma-separated integers kept in order with repeats.

    Set flags parse through it too: every library entry point sorts and
    deduplicates its sets itself.
    """
    return tuple(_bounded_int(tok.strip()) for tok in literal.split(","))


def _nonneg_int(literal: str) -> int:
    v = _bounded_int(literal)
    if v < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {v}")
    return v


def _add_bound_flags(sp: argparse.ArgumentParser) -> None:
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--max-frobenius", type=_nonneg_int, default=None)
    group.add_argument("--max-genus", type=_nonneg_int, default=None)
    group.add_argument("--max-depth", type=_nonneg_int, default=None)


def _bound_from(ns: argparse.Namespace) -> EnumerationBound:
    if ns.max_frobenius is not None:
        return EnumerationBound(MAX_FROBENIUS, ns.max_frobenius)
    if ns.max_depth is not None:
        return EnumerationBound(MAX_DEPTH, ns.max_depth)
    return EnumerationBound(MAX_GENUS, ns.max_genus if ns.max_genus is not None else 20)


# the parser of each command with no sub-action, by its command path
# ("theta", or "mab", "invoice"); build_parser fills it
_LEAVES: dict[tuple[str, ...], argparse.ArgumentParser] = {}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command's root parser, built once per process and shared by every caller.

    Building it also records each leaf parser (a command with no
    sub-action: ``theta``, ..., ``mab invoice``, ``verify tree``) in
    ``_LEAVES`` by its command path, so ``run`` can hand a command line
    straight to the parser of the command it names.  Parsing leaves
    every parser unchanged. Do not modify the returned parser
    (``set_defaults``, ``add_argument``, ``prog``): the change would
    carry into every later ``run``.
    """

    def leaf(sub, *path: str, help: str) -> argparse.ArgumentParser:
        _LEAVES[path] = sp = sub.add_parser(path[-1], help=help)
        return sp

    p = argparse.ArgumentParser(
        prog="incentives",
        description="Monoids of invoice totals under adjustment constraints.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = leaf(sub, "theta", help="offset threshold of a constraint set")
    sp.add_argument("--c", type=parse_seq, required=True)

    sp = leaf(sub, "admissible", help="can any qualifying monoid contain the seeds?")
    sp.add_argument("--c", type=parse_seq, required=True)
    sp.add_argument("--x", type=parse_seq, required=True)

    sp = leaf(sub, "check-incentive", help="does the monoid of --gens honour --c?")
    sp.add_argument("--gens", type=parse_seq, required=True)
    sp.add_argument("--c", type=parse_seq, required=True)

    sp = leaf(sub, "closure", help="smallest qualifying monoid containing the seeds")
    sp.add_argument("--c", type=parse_seq, required=True)
    sp.add_argument("--x", type=parse_seq, required=True)
    sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = leaf(sub, "membership", help="membership of --n in a monoid or closure")
    sp.add_argument("--n", type=_bounded_int, required=True)
    sp.add_argument("--gens", type=parse_seq)
    sp.add_argument("--c", type=parse_seq)
    sp.add_argument("--x", type=parse_seq)
    sp.set_defaults(usage_error=sp.error)

    sp = leaf(sub, "tree", help="tree of numerical semigroups honouring --c")
    sp.add_argument("--c", type=parse_seq, required=True)
    sp.add_argument("--x", type=parse_seq)
    _add_bound_flags(sp)
    sp.add_argument("--format", choices=("text", "json", "dot"), default="text")

    sp = leaf(sub, "decompose", help="slice all qualifying monoids by gcd divisor")
    sp.add_argument("--c", type=parse_seq, required=True)
    sp.add_argument("--x", type=parse_seq)
    _add_bound_flags(sp)
    sp.add_argument("--format", choices=("text", "json"), default="text")

    mab = sub.add_parser("mab", help="purchase/adjustment sequence model")
    mabsub = mab.add_subparsers(dest="action", required=True)
    sp = leaf(mabsub, "mab", "invoice", help="total of one sequence")
    sp.add_argument("--a", type=parse_seq, required=True)
    sp.add_argument("--b", type=parse_seq, required=True)
    sp.add_argument("--seq", type=parse_seq, required=True)
    sp = leaf(mabsub, "mab", "member", help="is --n an achievable total?")
    sp.add_argument("--a", type=parse_seq, required=True)
    sp.add_argument("--b", type=parse_seq, required=True)
    sp.add_argument("--n", type=_bounded_int, required=True)
    sp = leaf(mabsub, "mab", "set", help="achievable totals up to --bound")
    sp.add_argument("--a", type=parse_seq, required=True)
    sp.add_argument("--b", type=parse_seq, required=True)
    sp.add_argument("--bound", type=_nonneg_int, required=True)
    sp.add_argument("--format", choices=("text", "json"), default="text")

    ver = sub.add_parser("verify", help="cross-checks between independent engines")
    versub = ver.add_subparsers(dest="action", required=True)
    sp = leaf(versub, "verify", "theorem5", help="sequence totals equal the closure")
    sp.add_argument("--a", type=parse_seq, required=True)
    sp.add_argument("--b", type=parse_seq, required=True)
    sp.add_argument("--bound", type=_nonneg_int, required=True)
    sp = leaf(versub, "verify", "tree", help="tree enumeration equals brute force")
    sp.add_argument("--c", type=parse_seq, required=True)
    sp.add_argument("--max-frobenius", type=_nonneg_int, required=True)
    sp = leaf(versub, "verify", "closure-agreement", help="both closure engines agree")
    sp.add_argument("--c", type=parse_seq, required=True)
    sp.add_argument("--x", type=parse_seq, required=True)
    sp.add_argument("--bound", type=_nonneg_int, required=True)

    return p


def _fmt_vals(vals) -> str:
    return ",".join(str(v) for v in vals)


def _bool_text(v: bool) -> str:
    return "true" if v else "false"


def _closure_text(r: ClosureResult) -> str:
    if r.kind == TRIVIAL:
        return "trivial: {0}"
    sg = r.semigroup
    head = f"msg: {_fmt_vals(r.msg.elements)}"
    if r.kind == MULTIPLE:
        return (
            f"{head} | scale: {r.scale} | reduced msg: {_fmt_vals(sg.msg.elements)}"
            f" | reduced frobenius: {sg.frobenius} | reduced genus: {sg.genus}"
        )
    return f"{head} | frobenius: {sg.frobenius} | genus: {sg.genus}"


def _closure_json(r: ClosureResult) -> dict:
    sg = r.semigroup
    return {
        "kind": r.kind,
        "scale": r.scale,
        "msg": list(r.msg.elements) if r.msg else None,
        "reduced": None
        if sg is None
        else {
            "msg": list(sg.msg.elements),
            "frobenius": sg.frobenius,
            "genus": sg.genus,
        },
    }


def _print_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _dispatch(ns: argparse.Namespace) -> int:
    cmd = ns.command

    if cmd == "theta":
        print(theta(ns.c))
        return 0

    if cmd == "admissible":
        print(_bool_text(is_admissible(ns.x, ns.c)))
        return 0

    if cmd == "check-incentive":
        print(_bool_text(is_incentive(ns.gens, ns.c)))
        return 0

    if cmd == "closure":
        r = closure_msg(ns.x, ns.c)
        if ns.format == "json":
            _print_json(_closure_json(r))
        else:
            print(_closure_text(r))
        return 0

    if cmd == "membership":
        if ns.gens is not None:
            if ns.c is not None or ns.x is not None:
                ns.usage_error("membership takes either --gens or --c with --x, not both")
            print(_bool_text(membership(ns.gens, ns.n)))
        else:
            if ns.c is None or ns.x is None:
                ns.usage_error("membership needs --gens, or --c together with --x")
            print(_bool_text(closure_membership(ns.x, ns.c, ns.n)))
        return 0

    if cmd == "tree":
        tree = enumerate_tree(ns.c, ns.x, _bound_from(ns))
        if ns.format == "json":
            print(tree.to_json())
        elif ns.format == "dot":
            print(tree.to_dot(), end="")
        else:
            print(tree.to_text())
        return 0

    if cmd == "decompose":
        dec = decompose(ns.c, ns.x, _bound_from(ns))
        if ns.format == "json":
            _print_json(
                {
                    "includes_trivial": dec.includes_trivial,
                    "slices": {str(d): t.to_json_dict() for d, t in dec.trees.items()},
                }
            )
        else:
            lines = [f"includes trivial monoid: {_bool_text(dec.includes_trivial)}"]
            for d in sorted(dec.trees):
                lines.append(f"divisor {d}:")
                lines.append("  " + dec.trees[d].to_text().replace("\n", "\n  "))
            print("\n".join(lines))
        return 0

    if cmd == "mab":
        model = SequenceModel.of(ns.a, ns.b)
        if ns.action == "invoice":
            print(invoice(model, list(ns.seq)))
        elif ns.action == "member":
            print(_bool_text(m_ab_membership(model, ns.n)))
        else:
            vals = m_ab_set(model, ns.bound)
            if ns.format == "json":
                _print_json(vals)
            else:
                print(_fmt_vals(vals))
        return 0

    # the last of the required command choices: verify
    if ns.action == "theorem5":
        ok = verify_theorem5(SequenceModel.of(ns.a, ns.b), ns.bound)
    elif ns.action == "tree":
        tree = enumerate_tree(
            ns.c, None, EnumerationBound(MAX_FROBENIUS, ns.max_frobenius)
        )
        ok = {n.semigroup.msg.elements for n in tree.nodes} == set(
            brute_force_family(ns.c, ns.max_frobenius)
        )
    else:
        if ns.bound > _DP_CEILING:
            # past it each closure_membership call runs a whole fixpoint
            raise BoundTooLarge(f"closure-agreement bounds are capped at 10**6, got {ns.bound}")
        closure = closure_msg(ns.x, ns.c)
        ok = all(
            closure_membership(ns.x, ns.c, n) == closure.member(n)
            for n in range(ns.bound + 1)
        )
    print(f"verified: {_bool_text(ok)}")
    return 0 if ok else 1


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse argv with the leaf parser its first one or two words name.

    A leaf sets the ``command`` and ``action`` values the root would
    have set, so one parser reads the line.  Every other line goes to
    the root parser, which prints its usage, help and errors as always:
    no argv, an unknown word, a root ``-h``, ``mab`` alone, or arguments
    the leaf left over.
    """
    root = build_parser()
    words = tuple(argv[:2]) if argv else ()
    for depth in (1, 2):
        path = words[:depth]
        leaf = _LEAVES.get(path)
        if leaf is not None:
            ns, rest = leaf.parse_known_args(
                argv[depth:], argparse.Namespace(**dict(zip(("command", "action"), path)))
            )
            if not rest:
                return ns
    return root.parse_args(argv)


def run(argv: list[str], stdout: IO[str] | None = None, stderr: IO[str] | None = None) -> int:
    """Parse and execute one command line; returns the exit status."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return _dispatch(_parse(argv))
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        except DomainError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
