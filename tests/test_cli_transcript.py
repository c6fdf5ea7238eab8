"""The CLI byte for byte: every invocation in ``golden/cli_transcript.json``
gives the recorded exit code, stdout and stderr.

Each entry is replayed in-process through ``cli.main``; a small subset
also runs as ``python -m nonion.cli`` for its exit code and the absence
of a traceback.  Outputs over 4 KB are stored as their UTF-8 length and
sha256, the interpreter version in a report's meta is masked, and the
temporary directory holding the fixture faults and ``--out`` targets is
stored as ``{tmp}``.  argparse's own text (usage errors and ``--help``)
depends on the Python minor version, so it is compared only on the
version the transcript records; exit codes are always compared.  A change
that moves a CLI byte rewrites the affected entries and lists them.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from nonion.cli import main

TRANSCRIPT = json.loads(
    (Path(__file__).parent / "golden" / "cli_transcript.json").read_text(encoding="utf-8")
)
TMP = "{tmp}"
LARGE = 4096
PYTHON = "{}.{}".format(*sys.version_info[:2])

# `diff-table --fixture` faults, written to the temporary directory;
# `{tmp}/missing.json` is never written.
FAULTY_FIXTURES = {
    "invalid.json": b"{oops",
    "no-rows.json": b'{"rows": []}',
    "bom.json": b'\xef\xbb\xbf{"rows": []}',
    "not-utf8.json": b'{"rows": "\xff"}',
}


def _stored(text: str, tmp: str):
    text = re.sub(r'"python": "[^"\n]*"', '"python": "*"', text.replace(tmp, TMP))
    data = text.encode("utf-8")
    if len(data) > LARGE:
        return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    return text


def replay(argv: list[str], tmp: str) -> dict:
    """Run one invocation in-process and return it in its stored form."""
    out, err = io.StringIO(), io.StringIO()
    by_argparse = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([arg.replace(TMP, tmp) for arg in argv])
        except SystemExit as exc:  # usage errors and --help
            code, by_argparse = exc.code, True
    return {
        "argv": argv,
        "exit": code,
        "argparse": by_argparse,
        "stdout": _stored(out.getvalue(), tmp),
        "stderr": _stored(err.getvalue(), tmp),
    }


@pytest.fixture(scope="module")
def tmp_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    for name, data in FAULTY_FIXTURES.items():
        (path / name).write_bytes(data)
    return str(path)


def _name(argv: list[str]) -> str:
    return " ".join(["nonion", *argv])


@pytest.mark.parametrize("entry", TRANSCRIPT["invocations"], ids=lambda e: _name(e["argv"]))
def test_cli_invocation_matches_transcript(entry, tmp_dir, monkeypatch):
    monkeypatch.setenv("COLUMNS", str(TRANSCRIPT["columns"]))
    got = replay(entry["argv"], tmp_dir)
    assert (got["exit"], got["argparse"]) == (entry["exit"], entry["argparse"])
    if not entry["argparse"] or PYTHON == TRANSCRIPT["python"]:
        assert (got["stdout"], got["stderr"]) == (entry["stdout"], entry["stderr"])


SUBPROCESS_ARGV = [
    [],
    ["verify", "roots"],
    ["diff-table", "--basis", "nonion"],
    ["bracket", "0", "1", "9"],
    ["diff-table", "--fixture", "{tmp}/not-utf8.json"],
]


@pytest.mark.parametrize("argv", SUBPROCESS_ARGV, ids=_name)
def test_module_entry_point_exit_code(argv, tmp_dir):
    (entry,) = [e for e in TRANSCRIPT["invocations"] if e["argv"] == argv]
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run(
        [sys.executable, "-m", "nonion.cli", *(arg.replace(TMP, tmp_dir) for arg in argv)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, check=False,
    )
    assert run.returncode == entry["exit"]
    assert b"Traceback" not in run.stderr
