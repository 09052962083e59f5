"""Smoke test of scripts/output_digests.py: every command of its fixed set
exits 0 and every output gets a digest line."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "output_digests.py"


def test_output_digests_runs_every_command_and_digests_every_output():
    spec = importlib.util.spec_from_file_location("output_digests", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    done = subprocess.run([sys.executable, str(SCRIPT), "--src", str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    files = {line.split("  ")[1] for line in lines}
    for name, command in script.COMMANDS:
        assert f"{name}.stdout" in files
        if "--out" in command:
            out = command[command.index("--out") + 1]
            assert out in files or any(f.startswith(out + "/") for f in files)
