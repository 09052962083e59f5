"""scripts/output_digests.py against its committed listing: every command of
its fixed set exits 0, every output gets a digest line, the outputs that
must agree do, and every digest equals the one in
scripts/output_digests.sha256, in the environment that listing names."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "output_digests.py"
LISTING = ROOT / "scripts" / "output_digests.sha256"


def split_listing(text: str) -> tuple[list[str], dict[str, str]]:
    """The `#` header lines of a listing, and its digests by file."""
    lines = text.splitlines()
    header = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in body)
    return header, {line.split("  ")[1]: line.split("  ")[0] for line in body}


def load_script():
    spec = importlib.util.spec_from_file_location("output_digests", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_the_commands_whose_files_others_read_run_first():
    script = load_script()
    first, rest = script.waves(script.COMMANDS)
    # they write constants-7.csv; times.csv and trees.nwk; times-relative.csv
    assert [name for name, _ in first] == ["calibrate-7", "simulate", "simulate-relative"]
    assert sorted(first + rest) == sorted(script.COMMANDS)


def test_output_digests_runs_every_command_and_digests_every_output():
    script = load_script()
    done = subprocess.run([sys.executable, str(SCRIPT), "--src", str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    header, digests = split_listing(done.stdout)
    files = set(digests)
    for name, command in script.COMMANDS:
        assert f"{name}.stdout" in files
        if "--out" in command:
            out = command[command.index("--out") + 1]
            assert out in files or any(f.startswith(out + "/") for f in files)
    # calibrating on the fly is the draw `calibrate` tabulates
    assert digests["coverage-fly.csv"] == digests["coverage-fly-table.csv"]

    want_header, want = split_listing(LISTING.read_text(encoding="utf-8"))
    assert header == want_header, (
        "the listing was made in another environment; regenerate it there or here:\n"
        + "\n".join(["listing:", *want_header, "this run:", *header]))
    moved = sorted(f for f in files | set(want) if digests.get(f) != want.get(f))
    assert not moved, f"{len(moved)} outputs moved from {LISTING.name}: {', '.join(moved)}"
