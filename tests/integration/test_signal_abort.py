"""Graceful SIGTERM/SIGINT for ``repro run`` (ISSUE 7 satellite).

Operators stop runs with signals, not REPRO_* test hooks. A signalled
``repro run --journal`` must append an ``aborted`` record (a clean
resume boundary) and exit with the conventional ``128 + signum``
status — mirroring the wall-deadline watchdog's 124 — and a later
``--resume`` must finish the stream bit-exactly.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
BENCH = "mosaic"
# Deep enough that the stream cannot finish between the first durable
# item and the signal: every item after the first repeats its inputs,
# and a launch that repeats them runs in a few milliseconds.
STEPS = 2000
ARGS = ["--target", "gtx580", "--scale", "0.4", "--steps", str(STEPS),
        "--max-sim-items", "64"]


def start_run(journal, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "run", BENCH, *ARGS,
         "--journal", os.fspath(journal), *extra],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def wait_for_journal_items(journal, timeout_s=120):
    """Block until the WAL holds at least one durable *item* record
    (not just the meta header or an in-flight payload)."""
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        try:
            if "item" in journal_record_types(journal):
                return
        except FileNotFoundError:
            pass
        time.sleep(0.05)
    raise AssertionError("journal never accumulated items")


def journal_record_types(journal):
    import struct

    wal = os.path.join(os.fspath(journal), "journal.wal")
    data = open(wal, "rb").read()
    types, off = [], 0
    while off + 8 <= len(data):
        length, _crc = struct.unpack_from("<II", data, off)
        if off + 8 + length > len(data):
            break
        types.append(
            json.loads(data[off + 8:off + 8 + length]).get("type")
        )
        off += 8 + length
    return types


@pytest.mark.parametrize(
    "signum,expected_rc",
    [(signal.SIGTERM, 143), (signal.SIGINT, 130)],
    ids=["sigterm", "sigint"],
)
def test_signal_aborts_are_journaled_with_conventional_exit(
    tmp_path, signum, expected_rc
):
    journal = tmp_path / "journal"
    proc = start_run(journal)
    try:
        wait_for_journal_items(journal)
        proc.send_signal(signum)
        rc = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert rc == expected_rc, proc.stderr.read()
    types = journal_record_types(journal)
    assert types[-1] == "aborted"
    # Real progress happened before the signal, which landed mid-stream.
    assert 1 <= types.count("item") < STEPS
    if signum == signal.SIGINT:
        return  # the resume round-trip below is covered once, by sigterm

    # The signalled run resumes to the same checksum as an
    # uninterrupted one.
    out = tmp_path / "resumed.json"
    resumed = start_run(journal, "--resume", "--json", os.fspath(out))
    assert resumed.wait(timeout=300) == 0, resumed.stderr.read()
    clean_out = tmp_path / "clean.json"
    clean = start_run(tmp_path / "clean-journal", "--json",
                      os.fspath(clean_out))
    assert clean.wait(timeout=300) == 0, clean.stderr.read()
    got = json.loads(out.read_text())
    want = json.loads(clean_out.read_text())
    assert got["checksum"] == want["checksum"]
    assert got["journal"]["resumed"] is True
    assert got["journal"]["items_skipped"] >= 1
