"""Run a script in a fresh interpreter under an address-space cap."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_capped(address_space: int, lines: list[str]) -> list[str]:
    """The stdout lines of lines, run under RLIMIT_AS = address_space bytes.

    The script starts with `import resource, time` and the cap, and
    imports incentives from this checkout's src.  A non-zero exit fails
    the calling test with the script's stderr.
    """
    script = "\n".join(
        [
            "import resource, time",
            f"resource.setrlimit(resource.RLIMIT_AS, ({address_space}, {address_space}))",
            *lines,
        ]
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()
