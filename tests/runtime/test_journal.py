"""Unit tests for the crash-consistent run journal.

Frame codec, torn-tail detection and truncation (with a deliberate
corrupted-CRC fixture), run-key verification, digest-mismatch
recompute, the watchdog ``aborted`` record, and bit-exact in-process
warm restarts — plain, fleet, and resilience-wrapped.
"""

import json
import os
import struct
import zlib

import pytest

from repro.apps.registry import ALL_BENCHMARKS, BENCHMARKS
from repro.backend.glue import MAX_SIM_ITEMS_ENV
from repro.evaluation.harness import run_configuration
from repro.opencl import kernel_cache as kc
from repro.opencl.executor import EXEC_TIER_ENV
from repro.runtime.journal import (
    JOURNAL_FILENAME,
    JOURNAL_VERSION,
    JournalError,
    RunJournal,
    encode_frame,
    run_key_for,
    scan_frames,
)
from repro.runtime.resilience import ResiliencePolicy

SCALE = 0.2
STEPS = 4
MAX_ITEMS = 128


def run(journal=None, resume=False, devices=None, resilience=None,
        bench="jg-series-single", steps=STEPS):
    return run_configuration(
        BENCHMARKS[bench],
        "gtx580",
        scale=SCALE,
        steps=steps,
        max_sim_items=MAX_ITEMS,
        devices=devices,
        resilience=resilience,
        journal=os.fspath(journal) if journal is not None else None,
        resume=resume,
    )


@pytest.fixture(autouse=True)
def fresh_kernel_cache():
    yield
    kc.configure_disk_store(None)
    kc.reset_global_cache()


# -- frame codec -------------------------------------------------------------


class TestFrameCodec:
    def test_round_trip(self):
        records = [
            {"type": "meta", "run_key": "a" * 64},
            {"type": "item", "key": "t#0", "seq": 0},
            {"type": "complete", "checksum": 1.5},
        ]
        blob = b"".join(encode_frame(r) for r in records)
        decoded, valid, torn = scan_frames(blob)
        assert decoded == records
        assert valid == len(blob)
        assert not torn

    def test_empty(self):
        assert scan_frames(b"") == ([], 0, False)

    def test_partial_header_is_torn(self):
        frame = encode_frame({"a": 1})
        decoded, valid, torn = scan_frames(frame + b"\x07")
        assert decoded == [{"a": 1}]
        assert valid == len(frame)
        assert torn

    def test_truncated_payload_is_torn(self):
        good = encode_frame({"a": 1})
        cut = encode_frame({"b": 2})[:-3]
        decoded, valid, torn = scan_frames(good + cut)
        assert decoded == [{"a": 1}]
        assert valid == len(good)
        assert torn

    def test_corrupted_crc_is_torn(self):
        # The deliberate corrupted-CRC fixture: flip one payload byte in
        # the second frame, leaving its header (and length) intact.
        good = encode_frame({"a": 1})
        bad = bytearray(encode_frame({"b": 2}))
        bad[-1] ^= 0xFF
        decoded, valid, torn = scan_frames(good + bytes(bad))
        assert decoded == [{"a": 1}]
        assert valid == len(good)
        assert torn

    def test_crc_matching_garbage_json_is_torn(self):
        payload = b"not json"
        frame = struct.pack(
            "<II", len(payload), zlib.crc32(payload) & 0xFFFFFFFF
        ) + payload
        decoded, valid, torn = scan_frames(frame)
        assert decoded == []
        assert valid == 0
        assert torn

    def test_run_key_is_order_insensitive(self):
        assert run_key_for({"a": 1, "b": 2}) == run_key_for({"b": 2, "a": 1})
        assert run_key_for({"a": 1}) != run_key_for({"a": 2})


# -- journal lifecycle -------------------------------------------------------


class TestRunJournal:
    def test_fresh_open_writes_meta(self, tmp_path):
        j = RunJournal.open(tmp_path, {"bench": "x"})
        j.close()
        with open(tmp_path / JOURNAL_FILENAME, "rb") as fh:
            records, _, torn = scan_frames(fh.read())
        assert not torn
        assert records[0]["type"] == "meta"
        assert records[0]["run_key"] == run_key_for({"bench": "x"})
        assert records[0]["descriptor"] == {"bench": "x"}

    def test_resume_recovers_items(self, tmp_path):
        j = RunJournal.open(tmp_path, {"bench": "x"})
        j.record_item({"key": "t#0", "seq": 0, "input_sha": "s"})
        j.close()
        j2 = RunJournal.open(tmp_path, {"bench": "x"}, resume=True)
        assert j2.resumed
        assert j2.completed("t#0", 0)["input_sha"] == "s"
        assert j2.completed("t#0", 1) is None
        j2.close()

    def test_resume_refuses_different_run_key(self, tmp_path):
        j = RunJournal.open(tmp_path, {"bench": "x"})
        j.close()
        with pytest.raises(JournalError, match="different run"):
            RunJournal.open(tmp_path, {"bench": "y"}, resume=True)

    def test_resume_refuses_other_record_format_version(self, tmp_path):
        # A version-1 WAL kept ledger and profile counts outside the
        # metrics delta; resuming it would drop them, so the version is
        # checked before the run key.
        j = RunJournal.open(tmp_path, {"bench": "x"})
        j.record_item({"key": "t#0", "seq": 0, "input_sha": "s"})
        j.close()
        path = tmp_path / JOURNAL_FILENAME
        records, _, _ = scan_frames(path.read_bytes())
        assert records[0]["version"] == JOURNAL_VERSION
        records[0]["version"] = 1
        path.write_bytes(b"".join(encode_frame(r) for r in records))
        with pytest.raises(JournalError, match="format version 1"):
            RunJournal.open(tmp_path, {"bench": "x"}, resume=True)

    def test_resume_without_resume_flag_truncates(self, tmp_path):
        j = RunJournal.open(tmp_path, {"bench": "x"})
        j.record_item({"key": "t#0", "seq": 0, "input_sha": "s"})
        j.close()
        j2 = RunJournal.open(tmp_path, {"bench": "x"})  # no resume
        assert not j2.resumed
        assert j2.completed("t#0", 0) is None
        j2.close()

    def test_torn_tail_is_truncated_atomically(self, tmp_path):
        j = RunJournal.open(tmp_path, {"bench": "x"})
        j.record_item({"key": "t#0", "seq": 0, "input_sha": "s"})
        j.close()
        path = tmp_path / JOURNAL_FILENAME
        intact = path.read_bytes()
        with open(path, "ab") as fh:
            fh.write(b"\xde\xad\xbe\xef torn tail")
        j2 = RunJournal.open(tmp_path, {"bench": "x"}, resume=True)
        assert j2.torn_tail_truncated == 1
        assert j2.completed("t#0", 0) is not None
        j2.close()
        # The file was rewritten back to exactly the valid prefix.
        assert path.read_bytes() == intact

    def test_aborted_record_round_trips(self, tmp_path):
        # The wall-deadline watchdog path, deterministically: the abort
        # record must be durable and must survive a resume (the items
        # stay skippable; the abort is counted, not fatal).
        j = RunJournal.open(tmp_path, {"bench": "x"})
        j.record_item({"key": "t#0", "seq": 0, "input_sha": "s"})
        j.record_aborted("wall-deadline 50ms exceeded")
        j.close()
        with open(tmp_path / JOURNAL_FILENAME, "rb") as fh:
            records, _, torn = scan_frames(fh.read())
        assert not torn
        assert records[-1] == {
            "type": "aborted",
            "reason": "wall-deadline 50ms exceeded",
        }
        j2 = RunJournal.open(tmp_path, {"bench": "x"}, resume=True)
        assert j2.prior_aborts == 1
        assert j2.completed("t#0", 0) is not None
        j2.close()

    def test_stats_keys_are_json_stable(self, tmp_path):
        j = RunJournal.open(tmp_path, {"bench": "x"})
        stats = j.stats()
        j.close()
        assert json.dumps(stats, sort_keys=True)
        assert stats["resumed"] is False
        assert stats["items_recovered"] == 0


# -- end-to-end warm restart -------------------------------------------------


def assert_bit_exact(cold, warm):
    assert warm.checksum == cold.checksum
    assert warm.total_ns == cold.total_ns
    assert warm.stages == cold.stages
    assert warm.offloaded == cold.offloaded


class TestWarmRestart:
    def test_plain_resume_is_bit_exact_and_skips_everything(self, tmp_path):
        kc.configure_disk_store(os.fspath(tmp_path / "kernels"))
        cold = run(journal=tmp_path)
        kc.reset_global_cache()  # a process restart loses the LRU
        warm = run(journal=tmp_path, resume=True)

        assert_bit_exact(cold, warm)
        assert warm.journal["resumed"] is True
        assert warm.journal["items_skipped"] == cold.journal["items_journaled"]
        assert warm.journal["items_skipped"] > 0
        assert warm.journal["items_journaled"] == 0
        # Zero recompiles: every kernel came back from the disk store.
        assert warm.metrics["cache.disk_hits"] > 0
        assert "cache.misses" not in warm.metrics
        assert warm.metrics["journal.items_skipped"] == \
            warm.journal["items_skipped"]

    def test_fleet_compiles_and_stores_each_kernel_ir_once(self, tmp_path):
        # pipeline3's three kernels lower to the same IR on every device
        # of a four-device fleet: three compiles, three stored
        # artifacts, and a resume that loads each of them once.
        bench = ALL_BENCHMARKS["pipeline3"]
        small = dict(scale=0.05, steps=2, max_sim_items=MAX_ITEMS)
        fleet = dict(small, devices=["gtx580", "hd5970", "gtx8800", "core-i7"])
        store = tmp_path / "kernels"
        journal = os.fspath(tmp_path / "journal")
        kc.reset_global_cache()
        kc.configure_disk_store(os.fspath(store))
        cold = run_configuration(bench, journal=journal, **fleet)
        assert cold.metrics["cache.misses"] == 3
        assert len(list(store.glob("*.kpkl"))) == 3

        kc.reset_global_cache()  # a process restart loses the LRU
        warm = run_configuration(bench, journal=journal, resume=True, **fleet)
        assert warm.metrics["cache.disk_hits"] == 3
        assert "cache.misses" not in warm.metrics

        kc.configure_disk_store(None)
        solo = run_configuration(bench, "gtx580", **small)
        assert cold.checksum == warm.checksum == solo.checksum

    def test_mosaic_resume_is_bit_exact(self, tmp_path):
        cold = run(journal=tmp_path, bench="mosaic")
        warm = run(journal=tmp_path, resume=True, bench="mosaic")
        assert_bit_exact(cold, warm)
        assert warm.journal["items_skipped"] > 0

    def test_fleet_resume_restores_health_state(self, tmp_path):
        policy = ResiliencePolicy.from_flags(kill_devices={"gtx580": 0})
        cold = run(
            journal=tmp_path,
            devices=["gtx580", "hd5970"],
            resilience=policy,
        )
        policy = ResiliencePolicy.from_flags(kill_devices={"gtx580": 0})
        warm = run(
            journal=tmp_path,
            resume=True,
            devices=["gtx580", "hd5970"],
            resilience=policy,
        )
        assert_bit_exact(cold, warm)
        assert warm.faults == cold.faults
        assert warm.fleet == cold.fleet
        assert warm.fleet["gtx580"]["state"] == "demoted"

    def test_resume_after_partial_run_completes_the_rest(self, tmp_path):
        cold = run(journal=tmp_path)
        path = tmp_path / JOURNAL_FILENAME
        with open(path, "rb") as fh:
            records, _, _ = scan_frames(fh.read())
        # Keep the meta frame and the first two item records — exactly
        # what a crash after the second fsync would have left behind.
        kept, items = [], 0
        for rec in records:
            if rec.get("type") == "item":
                items += 1
                if items > 2:
                    continue
            elif rec.get("type") != "meta":
                continue
            kept.append(rec)
        assert items > 2, "need more than two journaled items to truncate"
        with open(path, "wb") as fh:
            for rec in kept:
                fh.write(encode_frame(rec))
        resumed = run(journal=tmp_path, resume=True)

        assert resumed.checksum == cold.checksum
        assert resumed.total_ns == cold.total_ns
        assert resumed.journal["items_skipped"] == 2
        # The remaining items were computed and journaled this run.
        assert resumed.journal["items_journaled"] == items - 2

    def test_digest_mismatch_forces_recompute(self, tmp_path):
        cold = run(journal=tmp_path)
        path = tmp_path / JOURNAL_FILENAME
        with open(path, "rb") as fh:
            records, _, _ = scan_frames(fh.read())
        # Tamper with the first item's recorded input digest, keeping
        # the frame CRC-valid: the record must be distrusted on resume.
        for rec in records:
            if rec.get("type") == "item":
                rec["input_sha"] = "0" * 64
                break
        with open(path, "wb") as fh:
            for rec in records:
                fh.write(encode_frame(rec))
        warm = run(journal=tmp_path, resume=True)
        assert warm.checksum == cold.checksum
        assert warm.journal["digest_mismatches"] == 1
        assert warm.metrics["journal.digest_mismatches"] == 1
        # The distrusted item was recomputed (journaled afresh), the
        # rest were skipped.
        assert warm.journal["items_journaled"] >= 1
        assert warm.journal["items_skipped"] == \
            cold.journal["items_journaled"] - 1

    def test_torn_tail_end_to_end(self, tmp_path):
        cold = run(journal=tmp_path)
        with open(tmp_path / JOURNAL_FILENAME, "ab") as fh:
            fh.write(b"\x00garbage from a crash mid-write")
        warm = run(journal=tmp_path, resume=True)
        assert_bit_exact(cold, warm)
        assert warm.journal["torn_tail_truncated"] == 1
        assert warm.metrics["journal.torn_tail_truncated"] == 1

    @pytest.mark.parametrize(
        "env,value",
        [(MAX_SIM_ITEMS_ENV, "128"), (EXEC_TIER_ENV, "per-item")],
    )
    def test_resume_refuses_another_environment_setting(
        self, tmp_path, monkeypatch, env, value
    ):
        # The work-item cap and the tier may come from the environment;
        # the run key hashes the values the run used, so a resume
        # without the variable is a different run.
        bench = BENCHMARKS["parboil-cp"]
        journal = os.fspath(tmp_path)
        monkeypatch.setenv(env, value)
        run_configuration(bench, "gtx580", scale=0.3, steps=2, journal=journal)
        monkeypatch.delenv(env)
        with pytest.raises(JournalError, match="different run"):
            run_configuration(
                bench, "gtx580", scale=0.3, steps=2, journal=journal, resume=True
            )

    def test_completed_journal_resume_skips_all_items(self, tmp_path):
        cold = run(journal=tmp_path)
        warm = run(journal=tmp_path, resume=True)
        assert_bit_exact(cold, warm)
        assert warm.journal["items_journaled"] == 0

    def test_resume_restores_host_interpreter_time(self, tmp_path):
        # Under these faults the breaker demotes Series.coefficients to
        # the host interpreter on the first item; a resume that skips
        # every item must still charge that interpreter time.
        def faulted(resume):
            return run_configuration(
                BENCHMARKS["jg-series-single"],
                "gtx580",
                scale=SCALE,
                steps=STEPS,
                resilience=ResiliencePolicy.from_flags(fault_rate=0.2, seed=1),
                journal=os.fspath(tmp_path),
                resume=resume,
            )

        cold = faulted(resume=False)
        warm = faulted(resume=True)
        assert cold.faults["demoted_tasks"]
        assert warm.journal["items_skipped"] == cold.journal["items_journaled"]
        assert warm.host_compute_ns == cold.host_compute_ns
        assert warm.total_ns == cold.total_ns
        assert warm.checksum == cold.checksum
