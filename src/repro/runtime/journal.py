"""Crash-consistent execution journal: write-ahead logging of
per-stream-item progress, and bit-exact warm restart.

The runtime survives injected *device* faults (retry, breakers, fleet
failover, OOM partitioning) but, without this module, not a crash of
its own process: every completed item and every compiled kernel would
be lost. ``repro run --journal DIR`` write-ahead-logs each offloaded
stream item as it completes; ``--resume`` replays the journal so
already-completed items are *skipped* — their outputs come back from
the journal in marshalled wire form, their simulated-time and ledger
contributions are re-applied as recorded deltas — and the run
continues from the first unfinished item with bit-exact results.

File format
-----------
One append-only file, ``journal.wal``, of CRC-framed records::

    [u32 payload_len][u32 crc32(payload)][payload: UTF-8 JSON]

little-endian, one ``fsync`` per append. The first record is a ``meta``
frame carrying the record-format ``version`` and a ``run_key``
(SHA-256 over the run configuration); a resume against another format
or a different configuration is refused rather than trusted. A torn
tail — a partial frame or a CRC mismatch from a crash mid-write — is
detected on open, truncated back to the last valid frame via an atomic
rewrite (:func:`repro.ioutil.atomic_write`), and the affected items are
simply recomputed. Corruption is never silently trusted.

Record types: ``meta`` (run identity), ``inflight`` (an item has
started; carries its marshalled input so a crash mid-item can replay
it), ``item`` (an item completed; input digest, output wire bytes +
checksum, device placement, sim-time stage deltas, the metrics delta —
which restores every count, the failure ledger and executor counters
included, since those are views of the metrics — host-interpreter cost
deltas, fleet placement events, per-queue attempt timestamps so a
resumed fleet run replays every command-queue cursor bit-exactly,
worker state), ``aborted`` (clean watchdog abort), ``complete`` (run
finished, with the final checksum).

Concurrency guard
-----------------
A journal directory has exactly one writer. :meth:`RunJournal.open`
takes an exclusive ``journal.lock`` file (``O_CREAT|O_EXCL``) holding
the owner's pid; a second process — or a second journal in the same
process — trying to open the same directory gets a typed
:class:`JournalLockedError` instead of interleaving frames into the
WAL. A lock whose pid is no longer alive (the owner crashed or was
SIGKILLed) is *stale*: it is removed and re-taken, so crash-recovery
resumes are never blocked by the corpse of the run they are
recovering. The lock is released on :meth:`RunJournal.close`.

Observability: ``journal.*`` counters (``items_journaled``,
``items_skipped``, ``items_recovered``, ``inflight_replayed``,
``torn_tail_truncated``, ``digest_mismatches``) land on the run's
:class:`~repro.runtime.tracing.MetricsRegistry`, and every skipped
item advances the simulated clock through a ``journal_replay``
recovery span of exactly the restored stage time, so a traced resumed
run keeps 100% coverage.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import signal
import struct
import threading
import zlib

from repro.errors import ReproError
from repro.ioutil import atomic_write

JOURNAL_VERSION = 2
JOURNAL_FILENAME = "journal.wal"
LOCK_FILENAME = "journal.lock"

# Test hook: SIGKILL the process after N fsynced "item" records — the
# chaos harness uses this to crash a real subprocess at a deterministic
# point *after* the record is durable.
CRASH_AFTER_ITEMS_ENV = "REPRO_JOURNAL_CRASH_AFTER_ITEMS"

_FRAME = struct.Struct("<II")


class JournalError(ReproError):
    """The journal cannot be used: wrong run configuration, or an
    unreadable head (a torn *tail* is handled, not raised)."""


class JournalLockedError(JournalError):
    """Another live process (or another journal in this process) holds
    the exclusive lock on this journal directory. Two concurrent
    writers would interleave WAL frames; the lock turns that silent
    corruption into this typed refusal."""


def _pid_alive(pid):
    """Best-effort liveness probe for the pid in a lockfile. A pid we
    cannot signal but that exists (EPERM) counts as alive; a recycled
    pid is indistinguishable from the original owner — the guard is
    about crashed-owner staleness, not cryptographic ownership."""
    if pid is None or pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


def run_key_for(descriptor):
    """SHA-256 hex digest of a JSON-able run-configuration descriptor.

    Byte-stable: keys are sorted, so dict insertion order cannot leak
    into the identity of a run.
    """
    blob = json.dumps(descriptor, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def encode_frame(record):
    """One CRC-framed journal record as bytes."""
    payload = json.dumps(record, sort_keys=True).encode("utf-8")
    return _FRAME.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF) + payload


def scan_frames(data):
    """Decode a WAL byte string.

    Returns ``(records, valid_bytes, torn)``: every record up to the
    first damaged frame, the byte offset of the valid prefix, and
    whether a torn/corrupt tail was found after it.
    """
    records = []
    offset = 0
    n = len(data)
    torn = False
    while offset < n:
        if offset + _FRAME.size > n:
            torn = True
            break
        length, crc = _FRAME.unpack_from(data, offset)
        end = offset + _FRAME.size + length
        if end > n:
            torn = True
            break
        payload = data[offset + _FRAME.size:end]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            torn = True
            break
        try:
            records.append(json.loads(payload.decode("utf-8")))
        except ValueError:
            torn = True
            break
        offset = end
    return records, offset, torn


# The journal currently serving this process, so the wall-deadline
# watchdog thread (repro.cli) can append an ``aborted`` record without
# threading a reference through every layer.
_ACTIVE = None


def active_journal():
    return _ACTIVE


class RunJournal:
    """The write-ahead log for one ``repro run`` invocation."""

    def __init__(self, directory, run_key, descriptor=None):
        self.directory = os.fspath(directory)
        self.run_key = run_key
        self.descriptor = descriptor or {}
        self.path = os.path.join(self.directory, JOURNAL_FILENAME)
        self.lock_path = os.path.join(self.directory, LOCK_FILENAME)
        self._lock_held = False
        self.stale_locks_broken = 0
        self.resumed = False
        self.torn_tail_truncated = 0
        self.prior_aborts = 0
        self.items_journaled = 0
        self.items_skipped = 0
        self.inflight_replayed = 0
        self.digest_mismatches = 0
        self._completed = {}
        self._inflight = {}
        self._fh = None
        # Reentrant: a SIGTERM/SIGINT handler appending an ``aborted``
        # record may interrupt the main thread mid-``_append`` (each
        # frame is a single ``write`` call, so the interrupted frame is
        # already whole and the abort frame simply lands after it).
        self._lock = threading.RLock()
        self._profile = None
        self._crash_after = int(
            os.environ.get(CRASH_AFTER_ITEMS_ENV, "0") or "0"
        )
        self._items_appended = 0

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def open(cls, directory, descriptor, resume=False):
        """Create (or, with ``resume``, recover) the journal in
        ``directory``.

        Without ``resume`` an existing WAL is truncated and the run
        starts over. With it, the WAL is CRC-scanned, a torn tail is
        truncated in place (atomic replace), the ``meta`` frame's
        ``run_key`` is checked against ``descriptor``, and every valid
        ``item`` record becomes skippable.
        """
        run_key = run_key_for(descriptor)
        self = cls(directory, run_key, descriptor)
        os.makedirs(self.directory, exist_ok=True)
        self._acquire_lock()
        try:
            return self._open_locked(descriptor, run_key, resume)
        except BaseException:
            self._release_lock()
            raise

    def _open_locked(self, descriptor, run_key, resume):
        records = []
        if resume and os.path.exists(self.path):
            with open(self.path, "rb") as fh:
                data = fh.read()
            records, valid, torn = scan_frames(data)
            if torn:
                atomic_write(self.path, data[:valid])
                self.torn_tail_truncated += 1
            if records:
                meta = records[0]
                if meta.get("type") != "meta":
                    raise JournalError(
                        "journal {} has no meta frame".format(self.path)
                    )
                if meta.get("version") != JOURNAL_VERSION:
                    raise JournalError(
                        "journal {} has record format version {}, not {}; "
                        "refusing to resume".format(
                            self.path, meta.get("version"), JOURNAL_VERSION
                        )
                    )
                if meta.get("run_key") != run_key:
                    raise JournalError(
                        "journal {} was written by a different run "
                        "configuration (run_key {}.. != {}..); refusing "
                        "to resume".format(
                            self.path,
                            meta.get("run_key", "")[:12],
                            run_key[:12],
                        )
                    )
                self.resumed = True
                for rec in records[1:]:
                    rtype = rec.get("type")
                    if rtype == "item":
                        key = (rec["key"], rec["seq"])
                        self._completed[key] = rec
                        self._inflight.pop(key, None)
                    elif rtype == "inflight":
                        self._inflight[(rec["key"], rec["seq"])] = rec
                    elif rtype == "aborted":
                        self.prior_aborts += 1
        if records:
            self._fh = open(self.path, "ab")
        else:
            self._fh = open(self.path, "wb")
            self._append(
                {
                    "type": "meta",
                    "version": JOURNAL_VERSION,
                    "run_key": run_key,
                    "descriptor": descriptor,
                }
            )
        global _ACTIVE
        _ACTIVE = self
        return self

    # -- the exclusive directory lock ---------------------------------------

    def _acquire_lock(self):
        """Take ``journal.lock`` exclusively, breaking a stale lock
        whose owner pid is dead. Raises :class:`JournalLockedError`
        when a live owner holds it."""
        for _ in range(8):
            try:
                fd = os.open(
                    self.lock_path,
                    os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                )
            except FileExistsError:
                pid = self._read_lock_pid()
                if _pid_alive(pid):
                    raise JournalLockedError(
                        "journal directory {} is locked by live pid {} "
                        "({}); a second writer would corrupt the WAL — "
                        "refusing".format(
                            self.directory, pid, self.lock_path
                        )
                    )
                # Stale: the owner crashed without releasing. Remove
                # and retry (another waiter may win the retake — the
                # O_EXCL loop keeps exactly one winner).
                try:
                    os.unlink(self.lock_path)
                except FileNotFoundError:
                    pass
                self.stale_locks_broken += 1
                continue
            with os.fdopen(fd, "w") as fh:
                fh.write("{}\n".format(os.getpid()))
                fh.flush()
                os.fsync(fh.fileno())
            self._lock_held = True
            return
        raise JournalLockedError(
            "could not acquire {} after repeated stale-lock breaks".format(
                self.lock_path
            )
        )

    def _read_lock_pid(self):
        try:
            with open(self.lock_path) as fh:
                return int(fh.read().strip() or "0")
        except (OSError, ValueError):
            return None

    def _release_lock(self):
        if not self._lock_held:
            return
        self._lock_held = False
        try:
            os.unlink(self.lock_path)
        except OSError:
            pass

    def close(self):
        global _ACTIVE
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None
        self._release_lock()
        if _ACTIVE is self:
            _ACTIVE = None

    def bind(self, profile):
        """Attach the run's :class:`ExecutionProfile`: recovery-time
        facts become ``journal.*`` metrics and a ``journal_open``
        instant on the trace."""
        self._profile = profile
        metrics = profile.metrics
        if self._completed:
            metrics.inc("journal.items_recovered", len(self._completed))
        if self.torn_tail_truncated:
            metrics.inc(
                "journal.torn_tail_truncated", self.torn_tail_truncated
            )
        profile.tracer.instant(
            "journal_open",
            cat="recovery",
            resumed=self.resumed,
            recovered=len(self._completed),
            torn=self.torn_tail_truncated,
        )

    # -- append path ---------------------------------------------------------

    def _append(self, record):
        frame = encode_frame(record)
        with self._lock:
            if self._fh is None:
                return
            self._fh.write(frame)
            self._fh.flush()
            os.fsync(self._fh.fileno())
            if record.get("type") == "item":
                self._items_appended += 1
                crash_now = (
                    self._crash_after
                    and self._items_appended >= self._crash_after
                )
            else:
                crash_now = False
        if crash_now:
            os.kill(os.getpid(), signal.SIGKILL)

    def record_inflight(self, key, seq, input_sha, input_wire):
        self._append(
            {
                "type": "inflight",
                "key": key,
                "seq": seq,
                "input_sha": input_sha,
                "input_wire": base64.b64encode(input_wire).decode("ascii"),
            }
        )

    def record_item(self, record):
        record["type"] = "item"
        self._append(record)
        self.items_journaled += 1
        if self._profile is not None:
            self._profile.metrics.inc("journal.items_journaled")

    def record_aborted(self, reason):
        self._append({"type": "aborted", "reason": reason})

    def record_complete(self, checksum):
        self._append({"type": "complete", "checksum": checksum})

    # -- replay path ---------------------------------------------------------

    def completed(self, key, seq):
        return self._completed.get((key, seq))

    def inflight(self, key, seq):
        return self._inflight.get((key, seq))

    def note_skip(self):
        self.items_skipped += 1
        if self._profile is not None:
            self._profile.metrics.inc("journal.items_skipped")

    def note_inflight_replay(self, key, seq):
        self.inflight_replayed += 1
        if self._profile is not None:
            self._profile.metrics.inc("journal.inflight_replayed")
            self._profile.tracer.instant(
                "journal_inflight_replay", cat="recovery", task=key, seq=seq
            )

    def note_digest_mismatch(self, key, seq):
        """A journaled item's input digest does not match what the
        resumed run produced upstream — the record cannot be trusted,
        so the item is recomputed (never silently served)."""
        self.digest_mismatches += 1
        if self._profile is not None:
            self._profile.metrics.inc("journal.digest_mismatches")
            self._profile.tracer.instant(
                "journal_digest_mismatch", cat="recovery", task=key, seq=seq
            )

    def stats(self):
        """The ``journal`` block of a :class:`RunResult` (JSON-able,
        sorted keys)."""
        return {
            "dir": self.directory,
            "resumed": self.resumed,
            "items_recovered": len(self._completed),
            "items_journaled": self.items_journaled,
            "items_skipped": self.items_skipped,
            "inflight_replayed": self.inflight_replayed,
            "digest_mismatches": self.digest_mismatches,
            "torn_tail_truncated": self.torn_tail_truncated,
            "prior_aborts": self.prior_aborts,
            "stale_locks_broken": self.stale_locks_broken,
        }


# -- the per-task wrapper ------------------------------------------------------

_STAGE_FIELDS = (
    "java_marshal",
    "c_marshal",
    "opencl_setup",
    "transfer",
    "kernel",
    "host_compute",
    "recovery",
)


def _stage_snapshot(stages):
    return [getattr(stages, f) for f in _STAGE_FIELDS]


def _delta(before, after):
    """The entries of counter dict ``after`` that moved since
    ``before``, as differences."""
    return {
        key: n - before.get(key, 0)
        for key, n in sorted(after.items())
        if n != before.get(key, 0)
    }


class JournaledWorker:
    """Wraps one offloaded task's (possibly resilience-wrapped) worker
    with write-ahead logging and resume-time skipping.

    Host tasks recompute deterministically on resume; only the
    offloaded boundary is journaled. The wrapper sits *outside* the
    :class:`~repro.runtime.resilience.ResilientWorker`, so one journal
    record captures everything an item cost — failovers, retries, host
    fallbacks included — as metrics and stage deltas.
    """

    def __init__(
        self, name, key, worker, device_worker, journal, profile, cost
    ):
        self.name = name
        self.key = key  # journal identity: "task.name#instance"
        self.worker = worker
        self.journal = journal
        self.profile = profile
        # The engine's interpreter CostCounter: host fallbacks and
        # validation re-runs charge it, so items journal its delta.
        self.cost = cost
        self.seq = 0
        if hasattr(device_worker, "filters"):  # FleetWorker
            self.fleet = device_worker
            self.filters = dict(device_worker.filters)
            self.filt = next(iter(self.filters.values()))
        else:
            self.fleet = None
            self.filters = {"": device_worker}
            self.filt = device_worker
        # The resilience wrapper (if any) carries breaker state that
        # must survive a resume.
        self.resilient = worker if worker is not device_worker else None

    def __call__(self, value=None):
        seq = self.seq
        self.seq += 1
        wire = self.filt.stream_wire(value)
        digest = hashlib.sha256(wire).hexdigest()
        rec = self.journal.completed(self.key, seq)
        if rec is not None:
            if rec["input_sha"] == digest:
                return self._skip(rec, seq)
            self.journal.note_digest_mismatch(self.key, seq)
        inflight = self.journal.inflight(self.key, seq)
        if inflight is not None and inflight["input_sha"] == digest:
            # Crash happened mid-item: replay it from the marshalled
            # input the WAL captured, through the normal execute path.
            self.journal.note_inflight_replay(self.key, seq)
            value = self.filt.stream_value_from_wire(
                base64.b64decode(inflight["input_wire"])
            )
            wire = self.filt.stream_wire(value)
        return self._execute(value, seq, digest, wire)

    # -- skip: serve the item from the journal -------------------------------

    def _skip(self, rec, seq):
        profile = self.profile
        stages = rec.get("stages", {})
        profile.restore(self.name, stages)
        profile.metrics.merge_delta(rec.get("metrics_delta", {}))
        for kind, n in rec.get("cost_delta", {}).items():
            self.cost.charge(kind, n)
        if self.fleet is not None:
            self.fleet.monitor.replay(rec.get("fleet_events", []))
            self.fleet.items += 1
        for fkey, state in rec.get("filters_state", {}).items():
            filt = self.filters.get(fkey)
            if filt is not None:
                filt.launches = state["launches"]
                filt._prev_kernel_ns = state["prev_kernel_ns"]
        if self.resilient is not None and rec.get("worker_state"):
            self.resilient.restore_state(rec["worker_state"])
        # Advance the simulated clocks by exactly the restored stage
        # time, inside recovery spans: trace coverage stays complete
        # and a traced resume shows where the journal saved time.
        # Fleet items replay their recorded per-queue attempt
        # timestamps, so every device cursor lands exactly where the
        # original run left it; any residual stage time (host
        # fallbacks, global retry backoff) stays on the main clock.
        total = sum(stages.values())
        tracer = profile.tracer
        replayed = 0.0
        attempts = rec.get("queue") or []
        if self.fleet is not None and attempts:
            fleet_obj = self.fleet.fleet
            for row in attempts:
                dev, submit_ns, start_ns, busy_ns, ok = row[:5]
                kind = row[5] if len(row) > 5 else None
                queue = fleet_obj.queues.get(dev)
                if queue is None:
                    continue
                cancelled = kind in ("hedge-lost", "hedge-cancelled")
                if cancelled:
                    queue.restore_cancelled(submit_ns, start_ns, busy_ns)
                else:
                    queue.restore(submit_ns, start_ns, busy_ns, ok)
                saved_ns = queue.clock.ns
                queue.clock.ns = float(start_ns)
                with tracer.queue_context(queue.clock, dev):
                    tracer.charge(
                        "journal_replay",
                        busy_ns,
                        cat="recovery",
                        task=self.name,
                        seq=seq,
                    )
                queue.clock.ns = max(queue.clock.ns, saved_ns)
                replayed += busy_ns
                if cancelled:
                    # A hedge loser never advanced the live run's
                    # stream cursor (its end can exceed the winner's);
                    # only surviving attempts replay into it.
                    continue
                end_ns = float(start_ns) + float(busy_ns)
                if end_ns > fleet_obj.stream_cursor_ns:
                    fleet_obj.stream_cursor_ns = end_ns
        residual = total - replayed
        if residual > 1e-9 or not attempts:
            tracer.charge(
                "journal_replay",
                residual if attempts else total,
                cat="recovery",
                task=self.name,
                seq=seq,
                device=rec.get("device") if not attempts else None,
            )
        self.journal.note_skip()
        return self.filt.result_from_wire(
            base64.b64decode(rec["output_wire"])
        )

    # -- execute: run the item and journal the outcome -----------------------

    def _execute(self, value, seq, digest, wire):
        profile = self.profile
        metrics_before = profile.metrics.snapshot()
        stages_before = _stage_snapshot(profile.stages)
        cost_before = self.cost.snapshot()
        self.journal.record_inflight(self.key, seq, digest, wire)
        events = None
        attempts = None
        if self.fleet is not None:
            events = []
            attempts = []
            self.fleet.journal_log = events
            self.fleet.attempt_log = attempts
        try:
            result = self.worker(value)
        finally:
            if self.fleet is not None:
                self.fleet.journal_log = None
                self.fleet.attempt_log = None
        out_wire = self.filt.result_wire(result)
        stages_after = _stage_snapshot(profile.stages)
        stage_delta = {
            f: after - before
            for f, after, before in zip(
                _STAGE_FIELDS, stages_after, stages_before
            )
            if after != before
        }
        record = {
            "key": self.key,
            "seq": seq,
            "input_sha": digest,
            "output_wire": base64.b64encode(out_wire).decode("ascii"),
            "output_sha": hashlib.sha256(out_wire).hexdigest(),
            "device": self._placed_device(events),
            "sim_ns": sum(stages_after),
            "stages": stage_delta,
            "metrics_delta": profile.metrics.delta(metrics_before),
            "filters_state": {
                fkey: {
                    "launches": filt.launches,
                    "prev_kernel_ns": filt._prev_kernel_ns,
                }
                for fkey, filt in self.filters.items()
            },
        }
        cost_delta = _delta(cost_before, self.cost.counts)
        # Only items that ran host code (a breaker fallback, a
        # validation re-run) carry the field, so fault-free records
        # stay byte-identical.
        if cost_delta:
            record["cost_delta"] = cost_delta
        if events is not None:
            record["fleet_events"] = events
        if attempts is not None:
            # Per-queue attempt timestamps: [device, submit, start,
            # busy, completed] — replayed on resume so every command
            # queue's cursor is restored bit-exactly.
            record["queue"] = attempts
        if self.resilient is not None:
            record["worker_state"] = self.resilient.snapshot_state()
        self.journal.record_item(record)
        return result

    def _placed_device(self, events):
        if events is not None:
            for ev in reversed(events):
                if ev[0] == "success":
                    return ev[1]
            return None
        return getattr(self.filt, "device_key", None) or getattr(
            getattr(self.filt, "device", None), "name", None
        )
