import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from incentives import (
    MAX_DEPTH,
    MAX_GENUS,
    DomainError,
    EnumerationBound,
    NotAdmissible,
    closure_membership,
    closure_msg,
    decompose,
    enumerate_tree,
)
from incentives.cli import _dispatch, build_parser, parse_seq, run

ROOT = Path(__file__).resolve().parent.parent


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_parse_seq_rejects_bad_tokens():
    with pytest.raises(Exception):
        parse_seq("a,b")
    with pytest.raises(Exception):
        parse_seq("")
    with pytest.raises(Exception):
        parse_seq(str(2**31 + 1))


def test_parse_seq_keeps_order_and_repeats():
    assert parse_seq("5,-3,5") == (5, -3, 5)


def test_theta_command():
    code, out, err = cli("theta", "--c=-3,2")
    assert (code, out, err) == (0, "3\n", "")


def test_admissible_command():
    assert cli("admissible", "--c=-4", "--x=3") == (0, "false\n", "")
    assert cli("admissible", "--c=-4,6", "--x=2,8") == (0, "true\n", "")


def test_check_incentive_command():
    assert cli("check-incentive", "--gens=3,7,8", "--c=-3,2")[1] == "true\n"
    assert cli("check-incentive", "--gens=3", "--c=-4")[1] == "false\n"
    # an adjustment at the 2**31 cap is answered, not refused
    assert cli("check-incentive", "--gens=3,4,5", "--c=2147483648") == (0, "true\n", "")


def test_closure_text_golden():
    code, out, _ = cli("closure", "--c=-3,2", "--x=5,7,9,11")
    assert code == 0
    assert out == "msg: 5,7,9,11,13 | frobenius: 8 | genus: 6\n"


def test_closure_scaled_text():
    _, out, _ = cli("closure", "--c=-2,2", "--x=4,6")
    assert out == (
        "msg: 4,6 | scale: 2 | reduced msg: 2,3"
        " | reduced frobenius: 1 | reduced genus: 1\n"
    )


def test_closure_json():
    code, out, _ = cli("closure", "--c=-3,2", "--x=5", "--format=json")
    doc = json.loads(out)
    assert doc == {
        "kind": "numerical",
        "scale": 1,
        "msg": [5, 7, 9, 11, 13],
        "reduced": {"msg": [5, 7, 9, 11, 13], "frobenius": 8, "genus": 6},
    }


def test_closure_domain_error_exit_1():
    code, out, err = cli("closure", "--c=-4", "--x=3")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_closure_past_the_size_cap_is_refused_by_name():
    # 3 + 3 + 2**31 would be a generator past the cap; the message names
    # the seeds and adjustments, not that sum
    assert cli("closure", "--c=0,2147483648", "--x=3") == (
        1, "", "error: closing {3} under {0,2147483648} adjoins values past the closure's size cap\n"
    )


def test_not_admissible_names_the_constraint_set_as_given():
    # the inert 0 is kept in the message by every entry point
    message = "no monoid honouring {-3,0,2} contains {1}"
    bound = EnumerationBound(MAX_GENUS, 3)
    for call in (
        lambda: closure_msg({1}, {-3, 0, 2}),
        lambda: closure_membership({1}, {-3, 0, 2}, 5),
        lambda: enumerate_tree({-3, 0, 2}, {1}, bound),
        lambda: decompose({-3, 0, 2}, {1}, bound),
    ):
        with pytest.raises(NotAdmissible) as exc:
            call()
        assert str(exc.value) == message
    for argv in (
        ("closure", "--c=-3,0,2", "--x=1"),
        ("membership", "--c=-3,0,2", "--x=1", "--n=5"),
        ("tree", "--c=-3,0,2", "--x=1", "--max-genus=3"),
        ("decompose", "--c=-3,0,2", "--x=1", "--max-genus=3"),
    ):
        assert cli(*argv) == (1, "", f"error: {message}\n"), argv


def test_usage_errors_exit_2():
    assert cli("closure", "--c=abc", "--x=3")[0] == 2
    assert cli("closure", "--x=3")[0] == 2
    assert cli("membership", "--n=4")[0] == 2
    assert cli("membership", "--n=4", "--gens=2,3", "--c=-1")[0] == 2
    assert cli("tree", "--c=-2", "--max-genus=3", "--max-depth=1")[0] == 2
    assert cli("nonsense")[0] == 2
    assert cli()[0] == 2


def test_membership_usage_error_names_the_subcommand():
    for argv in (
        ("membership", "--n=4"),
        ("membership", "--n=4", "--gens=2,3", "--c=-1"),
        ("membership", "--n=4", "--gens=2,3", "--x=5"),
    ):
        code, out, err = cli(*argv)
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert lines[0].startswith("usage: incentives membership ")
        assert lines[-1].startswith("incentives membership: error: membership ")


def test_membership_command():
    assert cli("membership", "--gens=5,7,9", "--n=13")[1] == "false\n"
    assert cli("membership", "--gens=5,7,9", "--n=14")[1] == "true\n"
    assert cli("membership", "--c=-3,2", "--x=5", "--n=8")[1] == "false\n"
    assert cli("membership", "--c=-3,2", "--x=5", "--n=9")[1] == "true\n"


def test_tree_text():
    code, out, _ = cli("tree", "--c=-3,2", "--x=5", "--max-depth=10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "⟨3,4,5⟩ frobenius=2 genus=2"
    assert lines[-1] == "nodes=6 truncated=false"
    assert "remove 8 -> ⟨5,7,9,11,13⟩ frobenius=8 genus=6" in out


def test_tree_json_matches_library():
    code, out, _ = cli("tree", "--c=-3,2", "--x=5", "--max-depth=10", "--format=json")
    doc = json.loads(out)
    tree = enumerate_tree((-3, 2), (5,), EnumerationBound(MAX_DEPTH, 10))
    assert doc == json.loads(tree.to_json())
    assert doc["metadata"]["node_count"] == 6
    edges = {
        (row["parent_id"], row["id"], row["removed_generator"])
        for row in doc["nodes"]
        if row["parent_id"] is not None
    }
    assert (0, 1, 3) in edges and (0, 2, 4) in edges


def test_tree_dot():
    code, out, _ = cli("tree", "--c=-4,6", "--max-genus=4", "--format=dot")
    assert code == 0
    assert out.startswith("digraph")
    assert out.endswith("}\n")
    assert 'label="⟨4,5,6,7⟩"' in out


# sha256 of stdout for the tree command lines of the CLI benchmark
# (bench/workloads.py, Cli.TREES), in each output format, and for the
# fixed trees of the tree benchmark (Tree.FIXED) as JSON
TREE_OUTPUT_SHA256 = {
    ("-3,2", 12, "text"): "44ff58f78234aab93fd4f5dc7daa642931d1879f9e623cfdf0bbfd3c89e34723",
    ("-3,2", 12, "json"): "3275209a29365b3f8d2317c34470c11fe8683635dabf73051a6c5ae221d96761",
    ("-3,2", 12, "dot"): "bbcc4e3a2b507ec1b17c5be7c97d558599b83282017624cf79189ac8377966b1",
    ("5", 11, "text"): "7654f1b589739abec45df9c1183cbc49269440b7fa3d9e5a0f19b2c9b3b8d6e0",
    ("5", 11, "json"): "e30766fef2fbcbc636e29a5eb704e4ab7a70b7433dc7287eb646218a6760acbb",
    ("5", 11, "dot"): "98df9d09a86f9588dd81217c2e5d411aa7e6b8dea98f721e04447444016bef30",
    ("-5,1,4", 13, "text"): "f9d813bf279f7412cc2ff0f10270e4b702b4015e8cc70703f2290a2c15ba841b",
    ("-5,1,4", 13, "json"): "81f1193ea44b0afe0881d6c0c59a0c8ab74391d49d5735d7386f03bc1e246656",
    ("-5,1,4", 13, "dot"): "9fc5717e186979bf8ff07b4595aec3a18109becd1e0ec4eb9afa18ca35cae760",
    ("-7,3", 14, "text"): "c5eb0969f2d4f57ec7916c0c302e4fd21998f3ecbcca52860e4a6f3982e0f1bf",
    ("-7,3", 14, "json"): "4bca5e75e83590f610d3273c3cb49d5e5010c3022634accf1ad82d0a17a5cf91",
    ("-7,3", 14, "dot"): "f952248c741efe30de595b63fba0bf260db41cfa3b209cf47f29161e5952f569",
    ("0", 18, "json"): "e973d3c1fb1f96b0aaac2ebb82e46cf27b028b8196032065e6ad43e4493194e8",
    ("-3,2", 19, "json"): "00aacf04126594a66b25e64c3b490b560b793dadf046c7ac863912571a129008",
    ("5", 18, "json"): "03e9d9ada50fd5a44eeda9ddd51de3a2e5eb965b23ef0cbb3d1358ea5d0d7cb5",
    ("-7,3", 20, "json"): "884dab5f9225a04800a48419abad3c42976676fea5267502c4c6d579c804d791",
    ("-5,1,4", 20, "json"): "4b2ada2a74e42d7d40e9ed5656063dd70cff632827f0ae4961c98f0d0341c712",
}


@pytest.mark.parametrize("cs, genus, fmt", list(TREE_OUTPUT_SHA256))
def test_tree_output_bytes_are_pinned(cs, genus, fmt):
    code, out, err = cli("tree", f"--c={cs}", f"--max-genus={genus}", f"--format={fmt}")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == TREE_OUTPUT_SHA256[cs, genus, fmt]


def test_tree_default_bound_is_genus_20():
    code, out, _ = cli("tree", "--c=-3,2", "--x=5")
    assert code == 0
    assert out.splitlines()[-1] == "nodes=6 truncated=false"


# sha256 of decompose stdout for the command lines of the CLI benchmark
# (bench/workloads.py, Cli._large) with d = 2 and 3, in each output format
DECOMPOSE_OUTPUT_SHA256 = {
    ("-4,6", 8, "text"): "909d83fc68ef62732e3e1c24123b0c966a2d88682ba1faf9445f02ae24477878",
    ("-4,6", 8, "json"): "41425f900a563b05f4d87f71f88e0534e1f662ee083bb945aa959136d1089f0d",
    ("-6,3", 8, "text"): "97fcbac1a47a000fbe31eef2e557587b2ecae27c3f9ed8e5dec3edc8032f1b5c",
    ("-6,3", 8, "json"): "89e4e23f6711257035928558d1a0bad9b978f86a737e63ba83f4e4f923ec8668",
}


@pytest.mark.parametrize("cs, genus, fmt", list(DECOMPOSE_OUTPUT_SHA256))
def test_decompose_output_bytes_are_pinned(cs, genus, fmt):
    code, out, err = cli("decompose", f"--c={cs}", f"--max-genus={genus}", f"--format={fmt}")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == DECOMPOSE_OUTPUT_SHA256[cs, genus, fmt]


def test_decompose_text():
    code, out, _ = cli("decompose", "--c=-4,6", "--max-genus=4")
    assert code == 0
    assert out.splitlines()[0] == "includes trivial monoid: true"
    assert "divisor 1:" in out and "divisor 2:" in out


def test_decompose_json():
    code, out, _ = cli("decompose", "--c=-4,6", "--max-genus=4", "--format=json")
    doc = json.loads(out)
    assert doc["includes_trivial"] is True
    assert sorted(doc["slices"]) == ["1", "2"]
    assert doc["slices"]["1"]["nodes"][0]["msg"] == [4, 5, 6, 7]


def test_mab_commands():
    assert cli("mab", "invoice", "--a=5,7,9,11", "--b=-3,0,2", "--seq=5,-3,7")[1] == "9\n"
    assert cli("mab", "member", "--a=5,7,9,11", "--b=-3,0,2", "--n=8")[1] == "false\n"
    assert cli("mab", "member", "--a=5,7,9,11", "--b=-3,0,2", "--n=9")[1] == "true\n"
    code, out, _ = cli("mab", "set", "--a=5,7,9,11", "--b=-3,0,2", "--bound=14")
    assert out == "0,5,7,9,10,11,12,13,14\n"
    code, out, _ = cli(
        "mab", "set", "--a=5,7,9,11", "--b=-3,0,2", "--bound=12", "--format=json"
    )
    assert json.loads(out) == [0, 5, 7, 9, 10, 11, 12]


def test_mab_invoice_rejects_bad_sequence():
    code, out, err = cli("mab", "invoice", "--a=5,7", "--b=-3,0", "--seq=5,4,7")
    assert code == 1
    assert "position 2" in err


def test_mab_set_bound_above_ceiling_is_a_domain_error():
    code, out, err = cli("mab", "set", "--a=5,7,9,11", "--b=-3,0,2", f"--bound={2**20 + 1}")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_commands_exit_0_on_success():
    assert cli("verify", "theorem5", "--a=5,7,9,11", "--b=-3,0,2", "--bound=120") == (
        0,
        "verified: true\n",
        "",
    )
    assert cli("verify", "tree", "--c=-3,2", "--max-frobenius=9")[0] == 0
    assert cli("verify", "closure-agreement", "--c=-3,2", "--x=5", "--bound=80")[0] == 0


def test_output_is_deterministic():
    for argv in (
        ("tree", "--c=-3,2", "--x=5", "--max-depth=10", "--format=json"),
        ("tree", "--c=-1,1", "--max-frobenius=7", "--format=dot"),
        ("decompose", "--c=-4,6", "--max-genus=5", "--format=json"),
        ("closure", "--c=-3,2", "--x=5,7,9,11"),
    ):
        assert cli(*argv) == cli(*argv)


def test_verify_closure_agreement_bound_above_ceiling_is_refused_first(monkeypatch):
    import incentives.cli as cli_mod

    def no_closure(*args, **kwargs):
        raise AssertionError("a closure was computed")

    monkeypatch.setattr(cli_mod, "closure_msg", no_closure)
    monkeypatch.setattr(cli_mod, "closure_membership", no_closure)
    assert cli("verify", "closure-agreement", "--c=-3,2", "--x=5", f"--bound={10**6 + 1}") == (
        1,
        "",
        "error: closure-agreement bounds are capped at 10**6, got 1000001\n",
    )


def test_verify_closure_agreement_builds_closure_once(monkeypatch):
    import incentives.cli as cli_mod

    calls = []
    real = cli_mod.closure_msg

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "closure_msg", counting)
    assert cli("verify", "closure-agreement", "--c=-3,2", "--x=5", "--bound=200") == (
        0,
        "verified: true\n",
        "",
    )
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["tree", "decompose"])
def test_debug_checks_flag_is_a_usage_error(command):
    code, out, err = cli(command, "--c=-3,2", "--max-frobenius=9", "--debug-checks")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --debug-checks" in err


def test_build_parser_smoke():
    parser = build_parser()
    ns = parser.parse_args(["closure", "--c=-3,2", "--x=5"])
    assert ns.command == "closure"
    assert ns.c == (-3, 2)
    assert ns.x == (5,)


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_reused_parser_answers_like_its_first_call():
    commands = [
        ("closure", "--c=abc", "--x=3"),
        ("membership", "--n=4"),
        ("tree", "--c=-2", "--max-genus=3", "--max-depth=1"),
        ("nonsense",),
        (),
        ("closure", "--c=-4", "--x=3"),
        ("mab", "invoice", "--a=5,7", "--b=-3,0", "--seq=5,4,7"),
        ("theta", "--c=-3,2"),
        ("closure", "--c=-3,2", "--x=5,7,9,11"),
        ("closure", "--c=-3,2", "--x=5", "--format=json"),
        ("membership", "--gens=5,7,9", "--n=14"),
        ("membership", "--c=-3,2", "--x=5", "--n=8"),
        ("tree", "--c=-3,2", "--x=5", "--max-depth=10"),
        ("tree", "--c=-4,6", "--max-genus=4", "--format=dot"),
        ("decompose", "--c=-4,6", "--max-genus=4"),
        ("mab", "set", "--a=5,7,9,11", "--b=-3,0,2", "--bound=14"),
    ]
    first = {argv: cli(*argv) for argv in commands}
    assert {first[argv][0] for argv in commands} == {0, 1, 2}
    order = commands * 3
    random.Random(4).shuffle(order)
    for argv in order:
        assert cli(*argv) == first[argv], argv


def test_defaults_do_not_leak_between_calls():
    assert cli("tree", "--c=-3,2", "--x=5", "--format=json")[1].startswith("{")
    code, out, _ = cli("tree", "--c=-3,2", "--x=5")
    assert code == 0
    assert out.splitlines()[0] == "⟨3,4,5⟩ frobenius=2 genus=2"
    # 8 is in <2,3> but not in the closure of {5} under {-3,2}
    assert cli("membership", "--gens=2,3", "--n=8")[1] == "true\n"
    assert cli("membership", "--c=-3,2", "--x=5", "--n=8") == (0, "false\n", "")
    assert cli("closure", "--c=-3,2", "--x=5", "--format=json")[1].startswith("{")
    assert cli("closure", "--c=-3,2", "--x=5,7,9,11")[1].startswith("msg: ")
    # a bound flag of one call is not the bound of the next
    assert cli("tree", "--c=-3,2", "--max-depth=1")[1].endswith("nodes=3 truncated=true\n")
    assert cli("tree", "--c=-3,2", "--max-genus=2")[1].endswith("nodes=1 truncated=true\n")


# one valid command line per leaf command
VALID_LINES = [
    ("theta", "--c=-3,2"),
    ("admissible", "--c=-4,6", "--x=2,8"),
    ("check-incentive", "--gens=3,7,8", "--c=-3,2"),
    ("closure", "--c=-3,2", "--x=5", "--format=json"),
    ("membership", "--gens=5,7,9", "--n=14"),
    ("tree", "--c=-3,2", "--x=5", "--max-depth=10"),
    ("decompose", "--c=-4,6", "--max-genus=4", "--format=json"),
    ("mab", "invoice", "--a=3,5", "--b=0,-2,4", "--seq=3,0,5"),
    ("mab", "member", "--a=5,7,9,11", "--b=-3,0,2", "--n=9"),
    ("mab", "set", "--a=5,7,9,11", "--b=-3,0,2", "--bound=14"),
    ("verify", "theorem5", "--a=5,7,9,11", "--b=-3,0,2", "--bound=60"),
    ("verify", "tree", "--c=-3,2", "--max-frobenius=7"),
    ("verify", "closure-agreement", "--c=-3,2", "--x=5", "--bound=80"),
]


def _path(line):
    """The command path of a line: its first word, or two under mab and verify."""
    return line[: 2 if line[0] in ("mab", "verify") else 1]


# command lines whose parsing a leaf parser and the root parser must
# answer alike: help, usage errors at both levels, '--', abbreviations
PARSE_CORPUS = [
    *VALID_LINES,
    *[_path(line) + ("-h",) for line in VALID_LINES],
    (),
    ("-h",),
    ("--bogus",),
    ("-h", "theta"),
    ("nonsense",),
    ("theta",),
    ("theta", "--c=abc"),
    ("theta", "--c=-3,2", "--bogus"),
    ("theta", "--c=-3,2", "extra"),
    ("theta", "--", "--c=1"),
    ("theta", "--he"),
    ("closure", "--c=-3,2", "--x=5", "--form=json"),
    ("closure", "--c=-3,2", "--x=5", "--format=xml"),
    ("closure", "--c=-4", "--x=3"),
    ("membership", "--n=4"),
    ("membership", "--n=4", "--gens=2,3", "--c=-1"),
    ("membership", "--n=-1", "--gens=2,3"),
    ("tree", "--c=-2", "--max-genus=3", "--max-depth=1"),
    ("tree", "--c=-3,2", "--max-genus=-1"),
    ("tree", "--c=-3,2", "--max-genus=3", "--max-genus=4"),
    ("mab",),
    ("mab", "-h"),
    ("mab", "bogus"),
    ("mab", "--a=3", "invoice"),
    ("mab", "invoice", "--a=3,5", "--b=0"),
    ("mab", "invoice", "--a=3,5", "--bogus"),
    ("mab", "invoice", "--a=3,5", "--b=0", "--seq=3", "--bogus"),
    ("mab", "set", "--a=5,7", "--b=-3,0", f"--bound={2**31 + 1}"),
    ("verify",),
    ("verify", "tree", "--c=-3,2"),
    ("verify", "closure-agreement", "--c=-3,2", "--x=5", f"--bound={10**6 + 1}"),
]


def _root_parsed(argv):
    """The reference: the root parser reads the whole line, then dispatch."""
    try:
        return _dispatch(build_parser().parse_args(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _redirected(call, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = call(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=" ".join)
def test_run_answers_like_the_root_parser(argv):
    assert _redirected(run, argv) == _redirected(_root_parsed, argv)


def test_parse_corpus_reaches_every_exit_status():
    codes = {_redirected(run, argv)[0] for argv in PARSE_CORPUS}
    assert codes == {0, 1, 2}
    code, out, err = _redirected(run, ("theta", "--c=-3,2", "--bogus"))
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "incentives: error: unrecognized arguments: --bogus"


@pytest.mark.parametrize("argv", VALID_LINES, ids=" ".join)
def test_a_valid_line_is_parsed_once(argv, monkeypatch):
    calls = []
    real = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        calls.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    assert cli(*argv)[0] == 0
    assert calls == ["incentives " + " ".join(_path(argv))]


def _module_run(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-m", "incentives.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
        cwd=ROOT,
    )


def test_module_entry_point_uses_real_streams():
    proc = _module_run("theta", "--c=-3,2")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "3\n", "")
    proc = _module_run("closure", "--c=-4", "--x=3")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    proc = _module_run("theta", "--c=-3,2", "--bogus")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "unrecognized arguments: --bogus" in proc.stderr
