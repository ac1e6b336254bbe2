"""Guarded kernel execution: the memory/race/divergence sanitizer.

PR 1 made *loud* device failures (corrupted transfers, launch aborts,
OOM) recoverable. This module covers the *silent* ones — the failure
modes that dominate GPU debugging cost because nothing crashes and the
output is simply wrong:

- **bounds** — every global/local/constant/private load and store of an
  instrumented launch is range-checked *before* it executes. The
  untraced NumPy paths would otherwise wrap negative indices silently
  and truncate out-of-range vector slices.
- **races** — after the launch, the per-site memory traces (the same
  :class:`repro.opencl.executor.SiteTrace` machinery the timing model
  consumes) are scanned for global addresses touched by more than one
  work-item with at least one store: write-write and read-write
  conflicts.
- **barrier divergence** — the lockstep scheduler reports any round in
  which some items of a work-group stopped while their mates yielded at
  a barrier: the items disagree on how many barriers the kernel has.
- **watchdog deadline** — instrumented loop bodies tick a per-launch
  watchdog; when the simulated time budget (``deadline_ns``) elapses
  the launch raises :class:`repro.errors.DeadlineFault` instead of
  spinning forever.
- **NaN poisoning** — stores into floating-point buffers are checked
  for NaN payloads.

All trips raise a :class:`repro.errors.SanitizerFault` subclass, which
the resilience layer treats like any other device fault: ledger entry,
retry, and circuit-breaker demotion to the (trusted) host interpreter.
Differential validation — re-running every Nth stream item on the host
and comparing NaN-safely — lives in :mod:`repro.runtime.resilience` and
uses :func:`values_equal` from here.

A launch with no guard takes exactly the seed code path: the sanitized
item function is compiled lazily and only when requested, so
sanitizer-off runs stay byte-for-byte identical in profile and output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.backend.kernel_ir import Space
from repro.errors import (
    BoundsFault,
    DeadlineFault,
    DivergenceFault,
    NaNPoisonFault,
    RaceFault,
)

# Nominal simulated cost of one instrumented loop iteration, used to
# convert the watchdog tick count into simulated nanoseconds. The exact
# constant only scales the deadline knob; it is deliberately of the same
# order as one ALU op so ``--deadline-ns`` reads naturally.
WATCHDOG_NS_PER_TICK = 4.0

# The ledger/report keys of the guard trip kinds, in display order.
TRIP_KINDS = ("bounds", "race", "divergence", "deadline", "nan", "validate")


@dataclass(frozen=True)
class SanitizerConfig:
    """Which guards an instrumented launch runs.

    ``deadline_ns`` is the per-launch watchdog budget in simulated ns
    (``None`` disables the watchdog). ``validate_every`` samples
    differential validation: every Nth stream item is re-executed on the
    host interpreter and compared (0 disables sampling); it is carried
    here so one object configures the whole guard layer, but it is
    enforced by :class:`repro.runtime.resilience.ResilientWorker`.
    """

    bounds: bool = True
    races: bool = True
    divergence: bool = True
    nan_poison: bool = True
    deadline_ns: Optional[float] = None
    validate_every: int = 0

    @classmethod
    def from_flags(cls, sanitize=False, deadline_ns=None, validate_every=0):
        """Build from the CLI's ``--sanitize`` / ``--deadline-ns`` /
        ``--validate-every`` flags. Returns ``None`` when every guard is
        off — the seed-identical fast path."""
        if not sanitize and deadline_ns is None and validate_every <= 0:
            return None
        return cls(
            bounds=sanitize,
            races=sanitize,
            divergence=sanitize,
            nan_poison=sanitize,
            deadline_ns=deadline_ns,
            validate_every=int(validate_every),
        )

    def instruments_launch(self):
        """True when kernel launches need the instrumented item code
        (validation-only configs do not touch the executor)."""
        return (
            self.bounds
            or self.races
            or self.divergence
            or self.nan_poison
            or self.deadline_ns is not None
        )


class LaunchGuard:
    """Per-launch sanitizer state: the checkers injected into the
    instrumented item code, the watchdog, the divergence monitor, and
    the post-launch race scan.

    One guard instance covers exactly one launch (the watchdog budget
    and trip counters are per launch). ``trips`` maps trip kind to
    count; every trip also raises, so at most the race scan records
    more than one violation per guard.
    """

    def __init__(self, config, kernel_name, task=None):
        self.config = config
        self.kernel_name = kernel_name
        self.task = task
        self.trips = {}
        self.ticks = 0
        if config.deadline_ns is not None:
            self.max_ticks = int(config.deadline_ns / WATCHDOG_NS_PER_TICK)
        else:
            self.max_ticks = None

    def _trip(self, kind, count=1):
        self.trips[kind] = self.trips.get(kind, 0) + count

    # -- watchdog -----------------------------------------------------------

    def tick(self):
        """Called from every instrumented loop iteration."""
        self.ticks += 1
        if self.max_ticks is not None and self.ticks > self.max_ticks:
            self._trip("deadline")
            raise DeadlineFault(
                "kernel '{}' blew its watchdog deadline of {:.0f} simulated "
                "ns ({} loop iterations)".format(
                    self.kernel_name, self.config.deadline_ns, self.ticks
                )
            )

    def elapsed_ns(self):
        return self.ticks * WATCHDOG_NS_PER_TICK

    # -- bounds / NaN checkers ---------------------------------------------

    def make_checker(self, site, space, width, array, limits, is_float):
        """Build the per-site ``_ck<site>(index[, value])`` callable the
        instrumented item code invokes before each access.

        ``limits`` is a mutable site->element-count mapping owned by the
        scheduler (local buffers are rebound per work-group).
        """
        check_bounds = self.config.bounds
        check_nan = self.config.nan_poison and is_float
        space_name = space.name.lower()

        def check(index, value=None):
            if check_bounds:
                lo = index * width
                if lo < 0 or lo + width > limits[site]:
                    self._trip("bounds")
                    raise BoundsFault(
                        "kernel '{}': out-of-bounds {} access to {} buffer "
                        "'{}' at element {} (buffer holds {} elements)".format(
                            self.kernel_name,
                            "store" if value is not None else "load",
                            space_name,
                            array,
                            lo,
                            limits[site],
                        )
                    )
            if check_nan and value is not None and _has_nan(value):
                self._trip("nan")
                raise NaNPoisonFault(
                    "kernel '{}': NaN stored into {} buffer '{}' at element "
                    "{}".format(
                        self.kernel_name, space_name, array, index * width
                    )
                )

        return check

    # -- barrier divergence -------------------------------------------------

    def phase_check(self, group, yielded, stopped):
        """Called by the lockstep scheduler after each barrier round of
        one work-group: ``yielded`` items reached a barrier while
        ``stopped`` items of the same group finished."""
        if not self.config.divergence:
            return
        if yielded and stopped:
            self._trip("divergence")
            raise DivergenceFault(
                "kernel '{}': barrier divergence in work-group {} — {} "
                "item(s) finished while {} item(s) were waiting at a "
                "barrier".format(self.kernel_name, group, stopped, yielded)
            )

    # -- post-launch race scan ----------------------------------------------

    def scan_races(self, site_traces):
        """Scan the launch's memory traces for global-address conflicts.

        A conflict is an address accessed by two *different* work-items
        where at least one access is a store. Accesses by the same lane
        (read-modify-write of an item's own slot) are fine; concurrent
        reads are fine. Raises one :class:`RaceFault` carrying the total
        conflicting-address count.
        """
        if not self.config.races:
            return
        per_array = {}
        for trace in site_traces.values():
            if trace.space is not Space.GLOBAL or not trace.accesses:
                continue
            lanes, indices = trace.arrays()
            if trace.width > 1:
                indices = (
                    indices[:, None] * trace.width + np.arange(trace.width)
                ).reshape(-1)
                lanes = np.repeat(lanes, trace.width)
            writes, reads = per_array.setdefault(trace.array, ([], []))
            (writes if trace.is_store else reads).append((lanes, indices))

        conflicts = 0
        detail = None
        for array, (writes, reads) in sorted(per_array.items()):
            if not writes:
                continue
            w_lanes = np.concatenate([lanes for lanes, _addr in writes])
            w_addr = np.concatenate([addr for _lanes, addr in writes])
            order = np.lexsort((w_lanes, w_addr))
            wa, wl = w_addr[order], w_lanes[order]
            # Write-write: adjacent equal addresses with different lanes.
            ww = (wa[1:] == wa[:-1]) & (wl[1:] != wl[:-1])
            ww_addrs = np.unique(wa[1:][ww])
            if len(ww_addrs) and detail is None:
                detail = ("write-write", array, int(ww_addrs[0]))
            conflicts += len(ww_addrs)
            # Read-write: a read of a written address by another lane.
            # (Addresses with several writers are already counted above;
            # comparing against one representative writer is enough.)
            if reads:
                uniq_wa, first = np.unique(wa, return_index=True)
                owner = wl[first]
                r_lanes = np.concatenate([lanes for lanes, _addr in reads])
                r_addr = np.concatenate([addr for _lanes, addr in reads])
                pos = np.searchsorted(uniq_wa, r_addr)
                pos_safe = np.clip(pos, 0, len(uniq_wa) - 1)
                hit = uniq_wa[pos_safe] == r_addr
                racy = hit & (owner[pos_safe] != r_lanes)
                racy &= ~np.isin(r_addr, ww_addrs)
                rw_addrs = np.unique(r_addr[racy])
                if len(rw_addrs) and detail is None:
                    detail = ("read-write", array, int(rw_addrs[0]))
                conflicts += len(rw_addrs)
        if conflicts:
            self._trip("race", conflicts)
            kind, array, addr = detail
            err = RaceFault(
                "kernel '{}': {} race on global buffer '{}' (first at "
                "element {}; {} conflicting address(es) in total)".format(
                    self.kernel_name, kind, array, addr, conflicts
                )
            )
            err.trips = conflicts
            raise err


def _has_nan(value):
    """NaN test working for Python floats, NumPy scalars, and the small
    vectors a vector store writes."""
    if isinstance(value, float):
        return value != value
    try:
        return bool(np.isnan(np.asarray(value)).any())
    except TypeError:
        return False


def values_equal(left, right):
    """NaN-safe equality for differential validation.

    Device and host workers compute bit-identical results in this
    simulator, so comparison is exact — except that NaN compares equal
    to NaN (a kernel legitimately producing NaN must not be flagged as
    divergent just because ``nan != nan``).
    """
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        larr = np.asarray(left)
        rarr = np.asarray(right)
        if larr.shape != rarr.shape or larr.dtype != rarr.dtype:
            return False
        if larr.dtype.kind == "f":
            return bool(np.array_equal(larr, rarr, equal_nan=True))
        return bool(np.array_equal(larr, rarr))
    if isinstance(left, float) and isinstance(right, float):
        if left != left and right != right:
            return True
        return left == right
    return type(left) is type(right) and left == right
