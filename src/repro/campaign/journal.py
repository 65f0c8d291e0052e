"""Durable experiment journal: crash-tolerant, resumable campaigns.

The paper's methodology only pays off when the full def/use-pruned fault
space is swept for every program variant — campaigns of that size die to
``KeyboardInterrupt``s, OOM-killed workers and machine reboots, and an
in-memory accumulator throws away every completed experiment when they
do.  Production FI tools solve this with a durable result store (FAIL*'s
experiment database; "Towards a Fault-Injection Benchmarking Suite"
argues comparable campaigns need replayable stores rather than ad-hoc
accumulation).  This module is that store.

:class:`ExperimentJournal` wraps one SQLite database (stdlib
``sqlite3``; no external dependency) holding any number of *campaigns*,
each keyed by::

    (program fingerprint, fault domain, campaign kind, parameters)

so re-running the same campaign against the same binary resumes instead
of restarting, while any change to the program, the domain, the sampler
seed or the executor's timeout policy opens a fresh campaign.  A
campaign's results live in the cross-campaign *section store*
(:mod:`~repro.campaign.compose`), whose ``section_results`` is the
journal's one result table:

* ``sections`` — one row per interned program section, keyed by its
  fingerprint, which pins every outcome in it
  (``faultspace/sections.py``);
* ``section_results`` — the sections' stored runs, written once
  (:meth:`ExperimentJournal.merge_section_runs`);
* ``campaign_sections`` — which sections a campaign links: its stored
  results are the rows of those sections, read back by one joined
  ``SELECT`` (:meth:`CampaignJournal.stored_runs`), so a resume and a
  composition from another campaign's rows are the same read;
* ``sampler_state`` — the sampler's post-draw RNG position, so a resume
  can *prove* the re-drawn sample sequence is the one the journal's
  experiments belong to (a changed seed or sample count raises
  :class:`JournalMismatchError` instead of silently mixing campaigns).

A row of ``section_results`` is a *run*: consecutive bits starting at
the key's ``bit``, its ``outcome``, ``end_cycle`` and ``trap`` columns
the run's per-bit values separated by single spaces (no outcome value
or trap name contains one).  A full-scan class is one run from bit 0
at its injection slot, a sampled experiment a run of one at its bit.
SQLite's cost is per row, not per statement, and the pipeline never
reads or writes less than a class, so this is what a resume pays for.
A class stays in that stored form from reader to writer:
:meth:`CampaignJournal.stored_runs` returns every run of the
campaign's sections as the three strings ``(outcomes, end_cycles,
traps)``, and :meth:`ExperimentJournal.merge_section_runs` writes runs
as they are given.  A run is also what a style's ``execute`` yields and
what the distributed fabric carries, so nothing converts a class
between an executor and the journal, in-process or over the wire.
Readers never interpret a value: :func:`_valid_run` decides whether a
run may be trusted, and a class that is not one valid run from bit 0
is re-executed, never stitched together from pieces.

Writes are group-committed.  Every unit the campaign treats as atomic
(one batch of classes or sampled experiments) is buffered whole on the
journal object — a unit's rows never straddle two commits, so a resume
never sees half a class — and the buffered window is executed and
committed as one short transaction (default ``synchronous``, one
fsync) by the first write that finds it older than
:data:`COMMIT_WINDOW_S`, by every bookkeeping write
(``mark_complete``, ``clear``, ``discard_section_runs``,
``record_event``), by ``close``, by :meth:`CampaignJournal.flush`,
which a transport calls whenever it is about to wait, and by any read
through the same journal object (so a writer always reads its own
writes).  The SQLite write lock is held only for that transaction,
never across the window: several campaigns — processes, even — may
write one journal file concurrently.  The pipeline holds the handle in
a ``with`` block, so an exception or ^C still loses nothing; only a
SIGKILL or power cut loses at most the last window plus the unit in
flight.  A resumed campaign re-runs exactly the units the journal does
not contain, and the contract — enforced by the differential tests in
``tests/campaign/test_resume.py`` — is that it produces a result
*bit-for-bit identical* to an uninterrupted one.
"""

from __future__ import annotations

import json
import os
import re
import time
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from ..buildkey import build_key
from ..faultspace.sections import canonical_params
from .outcomes import OUTCOME_BY_VALUE

if TYPE_CHECKING:
    import sqlite3

    from .salvage import SalvageReport

#: Current schema version: version 5 keeps a campaign's results in the
#: section store alone (module docstring; version 4 kept a second copy
#: of every class in a per-campaign class table).  A file stamped with
#: any other version is refused, unchanged: a newer build's rows may
#: mean something this one cannot read, and there is no migration from
#: an older one, because a journal is a cache.
#:
#: ``section_results`` is ``WITHOUT ROWID``: clustered on its
#: four-column key, so a row is stored once (a rowid table keeps it in
#: the table b-tree *and* in the key's automatic index) and "all rows of
#: section *s* in key order" is one b-tree walk.  That is layout, not
#: meaning, so it carries no version: ``CREATE TABLE IF NOT EXISTS``
#: leaves a table created another way as it is — rowid layout, and an
#: ``end_cycle`` of INTEGER affinity, which stores a run of one's end
#: cycle as an integer (the reader casts it to text) — and every layout
#: opens, resumes, composes and salvages.
SCHEMA_VERSION = 5

#: SQL for the number of bits in a run row: one more than the number of
#: separators in its ``outcome`` column.
RUN_BITS = "length(outcome) - length(replace(outcome, ' ', '')) + 1"

#: Longest a unit write may sit uncommitted while the campaign keeps
#: writing: the write that finds the buffered window this old commits
#: it.  Bounds what a SIGKILL or power cut can lose, and amortizes the
#: commit's fsync over every unit written in between.
COMMIT_WINDOW_S = 0.25

#: The commit window's clock (module-level so tests can substitute a
#: virtual one).
_clock = time.monotonic

#: How long a connection waits for another's lock before SQLite gives
#: up with "database is locked", in milliseconds (module-level so tests
#: can shorten it).
BUSY_TIMEOUT_MS = 5000

#: SQLite's primary result codes for a lock held elsewhere.
_SQLITE_BUSY, _SQLITE_LOCKED = 5, 6


def _is_busy(exc: sqlite3.Error) -> bool:
    """True when ``exc`` means another connection holds a lock: the file
    is healthy, only in use.  By result code where Python reports it
    (3.11+), by SQLite's message otherwise."""
    code = getattr(exc, "sqlite_errorcode", None)
    if code is not None:
        return code & 0xFF in (_SQLITE_BUSY, _SQLITE_LOCKED)
    return "is locked" in str(exc)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS campaigns (
    id          INTEGER PRIMARY KEY,
    fingerprint TEXT NOT NULL,
    domain      TEXT NOT NULL,
    kind        TEXT NOT NULL,
    params      TEXT NOT NULL,
    cycles      INTEGER NOT NULL,
    status      TEXT NOT NULL DEFAULT 'running',
    UNIQUE (fingerprint, domain, kind, params)
);
CREATE TABLE IF NOT EXISTS sampler_state (
    campaign_id INTEGER PRIMARY KEY REFERENCES campaigns(id),
    draws       INTEGER NOT NULL,
    rng_state   TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS sections (
    id          INTEGER PRIMARY KEY,
    fingerprint TEXT NOT NULL UNIQUE,
    program     TEXT NOT NULL,
    domain      TEXT NOT NULL,
    first_slot  INTEGER NOT NULL,
    last_slot   INTEGER NOT NULL,
    detail      TEXT NOT NULL DEFAULT '{}'
);
CREATE TABLE IF NOT EXISTS section_results (
    section_id INTEGER NOT NULL REFERENCES sections(id),
    slot       INTEGER NOT NULL,
    axis       INTEGER NOT NULL,
    bit        INTEGER NOT NULL,
    outcome    TEXT NOT NULL,
    end_cycle  TEXT NOT NULL DEFAULT '0',
    trap       TEXT NOT NULL DEFAULT '',
    PRIMARY KEY (section_id, slot, axis, bit)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS campaign_sections (
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
    section_id  INTEGER NOT NULL REFERENCES sections(id),
    PRIMARY KEY (campaign_id, section_id)
);
CREATE TABLE IF NOT EXISTS fabric_events (
    id          INTEGER PRIMARY KEY,
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
    at          REAL NOT NULL,
    worker      TEXT NOT NULL DEFAULT '',
    kind        TEXT NOT NULL,
    detail      TEXT NOT NULL DEFAULT ''
);
"""

class JournalError(RuntimeError):
    """The journal file is unusable (wrong schema version, corrupt)."""


class JournalCorruptError(JournalError):
    """The journal file is physically corrupt (failed ``quick_check``).

    Distinct from a version mismatch: corruption is what
    :func:`~.salvage.salvage_journal` can partially recover from, a
    too-new schema is not.
    """


class JournalVersionError(JournalError):
    """The journal file is stamped with another schema version.

    Refused before anything is written: there is no migration, so a
    caller that holds the file as a pure cache may rebuild it.
    """


class JournalMismatchError(JournalError):
    """A resume does not match the journaled campaign.

    Raised when the golden run's cycle count or the sampler's re-drawn
    RNG position disagrees with what the journal recorded — continuing
    would mix experiments from two different campaigns into one result.
    """


#: Valid outcome strings a run may carry.
_OUTCOME_VALUES = frozenset(OUTCOME_BY_VALUE)
#: A run's end cycles: ASCII decimal values, one space between two.
_END_CYCLES = re.compile(r"[0-9]+(?: [0-9]+)*")


def _valid_run(run, count: int, known=()) -> bool:
    """A run ``(outcomes, end_cycles, traps)`` must hold ``count`` values
    in each of its three strings: known outcomes, decimal end cycles, and
    traps (a trap holding a space splits into two, so its run is
    malformed).  The one check a class passes before it is trusted:
    arriving from a fabric worker or read back from the section store.

    The check is a pure function of the run and ``count``, so a reader
    of many runs makes it once per distinct pair:
    :meth:`~.runner.ScanStyle.match` keeps each run's verdict for its
    class's experiment count, and a stored run recurs at many classes
    (a warm ``bin_sem2-sumdmr`` × memory: 134 distinct runs at 3 840
    classes).  ``known`` holds outcome strings this campaign already
    found valid, whose values are not looked up again: a caller that
    keeps it — :class:`~.runner.ScanStyle` its decoded strings — checks
    each distinct outcome string once per campaign.  The counts and the end cycles are checked in C,
    a ``str.count`` and one ``fullmatch`` a string."""
    outcomes, end_cycles, traps = run
    return (outcomes.count(" ") == end_cycles.count(" ")
            == traps.count(" ") == count - 1
            and (outcomes in known
                 or _OUTCOME_VALUES.issuperset(outcomes.split(" ")))
            and _END_CYCLES.fullmatch(end_cycles) is not None)


class ExperimentJournal:
    """One SQLite journal file holding any number of campaigns.

    Within a campaign only the process running it writes — fabric
    workers send their results to the coordinator, which journals
    them — but any number of campaigns, in one process or several, may
    open one file and write side by side: each object buffers its own
    commit window and takes SQLite's write lock only for the short
    transaction that commits it (module docstring).  A path-like
    argument opens (creating if necessary) the database at that path;
    ``":memory:"`` works for tests.
    """

    def __init__(self, path: str | Path, *, salvage: bool = False):
        self.path = str(path)
        #: The commit window: ``(sql, rows)`` units not yet executed,
        #: and the clock reading of the first one (``None`` while empty).
        self._pending: list[tuple[str, list[tuple]]] = []
        self._pending_since: float | None = None
        self._closed = False
        #: Set when opening salvaged a corrupt file (``salvage=True``).
        self.salvage_report: SalvageReport | None = None
        try:
            self._conn = self._connect()
        except JournalCorruptError:
            if (not salvage or self.path == ":memory:"
                    or not os.path.exists(self.path)):
                raise
            # Torn-write recovery: move the corrupt file aside, rebuild
            # a fresh journal at the same path from every row that is
            # still readable, then open that.  Partially recovered
            # classes are the caller's problem — the pipeline's
            # prologue validates bit counts against the domain's
            # expected experiment weights before trusting resumed
            # classes.
            from .salvage import salvage_journal  # it imports this module

            self.salvage_report = salvage_journal(self.path)
            self._conn = self._connect()
        if self._query("SELECT 1 FROM meta WHERE key = "
                       "'schema_version'").fetchone() is None:
            # OR IGNORE: two drivers may be creating this file at once.
            self._write("INSERT OR IGNORE INTO meta (key, value) "
                        "VALUES (?, ?)",
                        [("schema_version", str(SCHEMA_VERSION))])
            self.flush()

    def _connect(self) -> sqlite3.Connection:
        """Open, integrity-check, version-check and schema-initialize
        the database; a file stamped with another schema version is
        refused before anything is written to it."""
        import sqlite3  # loaded when a journal is first opened

        try:
            conn = sqlite3.connect(self.path)
        except sqlite3.Error as exc:  # no file to salvage: not corrupt
            raise JournalError(
                f"cannot open journal {self.path!r}: {exc}") from exc
        try:
            conn.execute(f"PRAGMA busy_timeout = {BUSY_TIMEOUT_MS}")
            # WAL keeps readers (a `repro journal --journal` listing
            # progress, a monitoring script) from blocking the campaign's
            # writes, and makes each commit an append instead of a
            # rewrite.  In-memory journals report "memory" here; that is
            # fine — only real files need the concurrency.
            conn.execute("PRAGMA journal_mode = WAL")
            check = conn.execute("PRAGMA quick_check").fetchone()
            if check is not None and check[0] != "ok":
                raise JournalCorruptError(
                    f"journal {self.path!r} failed SQLite quick_check: "
                    f"{check[0]} — the file is corrupt; open with "
                    f"salvage=True (or `repro journal --salvage`) to "
                    f"recover the readable rows")
            stamp = None
            if conn.execute("SELECT 1 FROM sqlite_master WHERE "
                            "name = 'meta'").fetchone():
                stamp = conn.execute("SELECT value FROM meta WHERE key = "
                                     "'schema_version'").fetchone()
            if stamp is not None and stamp[0] != str(SCHEMA_VERSION):
                raise JournalVersionError(
                    f"journal {self.path!r} has schema version "
                    f"{stamp[0]}, this build expects {SCHEMA_VERSION}")
            conn.executescript(_SCHEMA)
        except JournalError:
            conn.close()
            raise
        except sqlite3.DatabaseError as exc:
            conn.close()
            if _is_busy(exc):  # in use, not corrupt: never salvage it
                raise JournalError(
                    f"journal {self.path!r} is busy (another connection "
                    f"holds its lock): {exc}; retry") from exc
            raise JournalCorruptError(
                f"journal {self.path!r} is not a usable SQLite "
                f"database: {exc} — open with salvage=True (or `repro "
                f"journal --salvage`) to recover the readable rows") \
                from exc
        return conn

    # -- lifecycle ------------------------------------------------------------

    def _write(self, sql: str, rows: list[tuple]) -> None:
        """The one write path: buffer ``rows`` as one unit of the window.

        The rows of one call commit together or not at all.  The call
        that finds the window older than :data:`COMMIT_WINDOW_S`
        commits it, its own rows included.  Nothing touches the
        database — or takes its write lock — before that commit.
        """
        if not rows:
            return
        self._pending.append((sql, rows))
        now = _clock()
        if self._pending_since is None:
            self._pending_since = now
        elif now - self._pending_since >= COMMIT_WINDOW_S:
            self.flush()

    def flush(self) -> None:
        """Execute and commit the window in one transaction (one fsync);
        a no-op when clean or closed.

        A failed commit leaves the database as it was and the window
        buffered, so the next flush retries it: a busy or full disk
        loses nothing.  Only a unit the database itself rejects (a
        constraint or binding error) is dropped, whole, before the
        error is re-raised.
        """
        if self._closed or not self._pending:
            return
        import sqlite3

        unit = 0
        try:
            with self._conn:
                self._conn.execute("BEGIN IMMEDIATE")
                for unit, (sql, rows) in enumerate(self._pending):
                    self._conn.executemany(sql, rows)
        except sqlite3.Error as exc:
            if not isinstance(exc, sqlite3.OperationalError):
                del self._pending[unit]
            raise
        self._pending.clear()
        self._pending_since = None

    def _query(self, sql: str, params: tuple = ()) -> sqlite3.Cursor:
        """The one read path: commit the window, then SELECT — a journal
        object always reads its own writes."""
        self.flush()
        return self._conn.execute(sql, params)

    def close(self) -> None:
        """Commit and close; safe to call more than once."""
        if self._closed:
            return
        try:
            self.flush()
        finally:
            self._conn.close()
            self._closed = True

    def __enter__(self) -> "ExperimentJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- campaigns ------------------------------------------------------------

    def campaign(self, *, fingerprint: str, domain: str, kind: str,
                 params: Mapping, cycles: int) -> "CampaignJournal":
        """Open (or create) the campaign with this identity key.

        Raises :class:`JournalMismatchError` when a journaled campaign
        with the same key was recorded against a different golden
        runtime — same fingerprint but different Δt means the simulator
        or program changed under the journal.
        """
        encoded = canonical_params(params)
        select = ("SELECT id, cycles FROM campaigns WHERE fingerprint = ? "
                  "AND domain = ? AND kind = ? AND params = ?",
                  (fingerprint, domain, kind, encoded))
        row = self._query(*select).fetchone()
        if row is None:
            # OR IGNORE: another process may be creating the same
            # campaign on this file right now.
            self._write(
                "INSERT OR IGNORE INTO campaigns (fingerprint, domain, "
                "kind, params, cycles) VALUES (?, ?, ?, ?, ?)",
                [(fingerprint, domain, kind, encoded, cycles)])
            row = self._query(*select).fetchone()
        campaign_id, stored_cycles = row
        if stored_cycles != cycles:
            raise JournalMismatchError(
                f"journaled campaign {kind!r} for {fingerprint} was "
                f"recorded at Δt={stored_cycles} cycles, but the "
                f"golden run now spans Δt={cycles}")
        return CampaignJournal(self, campaign_id)

    def fabric_report(self) -> list[dict]:
        """Per-campaign distributed-fabric state for ``repro journal``.

        Extends :meth:`campaigns` with each campaign's integrity events
        — the operator's view of what the coordinator refused and from
        whom.
        """
        out = []
        for entry in self.campaigns():
            campaign_id = entry["id"]
            entry["events"] = [
                {"at": at, "worker": worker, "kind": kind,
                 "detail": detail}
                for at, worker, kind, detail in self._query(
                    "SELECT at, worker, kind, detail FROM fabric_events "
                    "WHERE campaign_id = ? ORDER BY id",
                    (campaign_id,))]
            out.append(entry)
        return out

    def campaigns(self) -> list[dict]:
        """All journaled campaigns, each with ``stored_experiments``:
        the experiments its linked sections hold (every campaign's rows
        in a shared section count for each that links it)."""
        return [{"id": row[0], "fingerprint": row[1], "domain": row[2],
                 "kind": row[3], "params": json.loads(row[4]),
                 "cycles": row[5], "status": row[6],
                 "stored_experiments": row[7]}
                for row in self._query(
                    f"SELECT c.id, c.fingerprint, c.domain, c.kind, "
                    f"c.params, c.cycles, c.status, "
                    f"COALESCE(SUM({RUN_BITS}), 0) FROM campaigns AS c "
                    f"LEFT JOIN campaign_sections AS l "
                    f"ON l.campaign_id = c.id "
                    f"LEFT JOIN section_results AS r "
                    f"ON r.section_id = l.section_id "
                    f"GROUP BY c.id ORDER BY c.id")]

    # -- cross-campaign section store -----------------------------------------

    def section(self, *, fingerprint: str, program: str, domain: str,
                first_slot: int, last_slot: int,
                detail: str = "{}") -> int:
        """Intern one section by fingerprint, returning its row id.

        Sections are shared across campaigns (that is the point); the
        fingerprint is the identity, everything else is bookkeeping for
        ``repro journal`` listings.
        """
        select = ("SELECT id FROM sections WHERE fingerprint = ?",
                  (fingerprint,))
        row = self._query(*select).fetchone()
        if row is None:
            self._write(
                "INSERT OR IGNORE INTO sections (fingerprint, program, "
                "domain, first_slot, last_slot, detail) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                [(fingerprint, program, domain, first_slot, last_slot,
                  detail)])
            row = self._query(*select).fetchone()
        return row[0]

    def merge_section_runs(
            self, runs: Iterable[tuple[int, int, int, int, str, str, str]]) \
            -> None:
        """Merge runs ``(section_id, slot, axis, first_bit, outcomes,
        end_cycles, traps)`` into the section store, any number of
        classes as one unit, first-wins.

        Campaigns on one file store the same section side by side, and
        experiments are deterministic, so a second copy necessarily
        carries identical values and dropping it is sound.  A run
        stored at the same first bit is replaced only by a longer one —
        a whole class arriving where a sampled campaign stored its
        first bit — because otherwise that class would never be read
        back whole.
        """
        new, stored = (RUN_BITS.replace("outcome", f"{table}.outcome")
                       for table in ("excluded", "section_results"))
        self._write(
            "INSERT INTO section_results (section_id, slot, axis, bit, "
            "outcome, end_cycle, trap) VALUES (?, ?, ?, ?, ?, ?, ?) "
            "ON CONFLICT (section_id, slot, axis, bit) DO UPDATE SET "
            "outcome = excluded.outcome, end_cycle = excluded.end_cycle, "
            f"trap = excluded.trap WHERE {new} > {stored}", list(runs))

    def discard_section_runs(
            self, keys: Iterable[tuple[int, int, int, int]]) -> int:
        """Delete stored runs, keyed ``(section_id, slot, axis,
        first_bit)``, so their units re-execute: the prologue's path
        for a run that fails validation (:meth:`~.pipeline.CampaignStyle
        .trusted`).  Returns runs deleted."""
        keys = list(dict.fromkeys(keys))
        self._write("DELETE FROM section_results WHERE section_id = ? AND "
                    "slot = ? AND axis = ? AND bit = ?", keys)
        self.flush()
        return len(keys)

    # Named by benchmarks/e2e/trace.py TARGETS only; the [benchmark] PR
    # that drops that entry deletes this stub.
    def section_rows(self, *args, **kwargs) -> None:
        pass

    def sections(self) -> list[dict]:
        """All stored sections with their result and reference counts."""
        out = []
        for row in self._query(
                "SELECT id, fingerprint, program, domain, first_slot, "
                "last_slot, detail FROM sections ORDER BY id"):
            section_id = row[0]
            results = self._query(
                f"SELECT COALESCE(SUM({RUN_BITS}), 0) FROM "
                f"section_results WHERE section_id = ?",
                (section_id,)).fetchone()[0]
            referenced = self._query(
                "SELECT COUNT(*) FROM campaign_sections WHERE "
                "section_id = ?", (section_id,)).fetchone()[0]
            out.append({
                "id": section_id,
                "fingerprint": row[1],
                "program": row[2],
                "domain": row[3],
                "first_slot": row[4],
                "last_slot": row[5],
                "detail": json.loads(row[6] or "{}"),
                "stored_results": results,
                "campaigns": referenced,
            })
        return out

    def gc_sections(self) -> int:
        """Drop sections no campaign references; returns sections freed."""
        orphans = [row[0] for row in self._query(
            "SELECT id FROM sections WHERE id NOT IN "
            "(SELECT section_id FROM campaign_sections)")]
        ids = [(section_id,) for section_id in orphans]
        self._write("DELETE FROM section_results WHERE section_id = ?", ids)
        self._write("DELETE FROM sections WHERE id = ?", ids)
        self.flush()
        return len(orphans)

    def schema_version(self) -> int:
        """The schema version stamped in this journal file."""
        row = self._query(
            "SELECT value FROM meta WHERE key = 'schema_version'") \
            .fetchone()
        return int(row[0])

    def size_report(self) -> dict:
        """Row counts per table — experiments for ``section_results`` —
        the database file size in bytes, and ``bytes_per_result``: file
        bytes per stored experiment (0.0 while there is none), the
        number the table layout and the row format are judged by."""
        tables = ("campaigns", "sampler_state", "sections",
                  "section_results", "campaign_sections", "fabric_events")
        report = {
            table: self._query(
                f"SELECT COALESCE(SUM({RUN_BITS}), 0) FROM {table}"
                if table == "section_results"
                else f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            for table in tables
        }
        try:
            report["file_bytes"] = Path(self.path).stat().st_size
        except OSError:
            report["file_bytes"] = 0
        results = report["section_results"]
        report["bytes_per_result"] = (report["file_bytes"] / results
                                      if results else 0.0)
        return report


class CampaignJournal:
    """Handle bound to one campaign inside an :class:`ExperimentJournal`."""

    def __init__(self, journal: ExperimentJournal, campaign_id: int):
        self.journal = journal
        self.campaign_id = campaign_id
        #: Set by :func:`open_campaign` when it constructed the journal
        #: from a path: the handle then owns the connection and
        #: :meth:`close` must be called so the WAL checkpoints into the
        #: main file when the campaign finishes (a never-closed
        #: connection leaves every result in the ``-wal`` sidecar).
        self.owned_journal: ExperimentJournal | None = None

    def flush(self) -> None:
        """Commit everything written so far.

        Transports call this (``CampaignRun.idle``) whenever they are
        about to wait (the in-process transport at its end, the
        coordinator once a commit window passes without a frame), so
        rows never wait for a next write that may be minutes away.
        """
        self.journal.flush()

    def close(self) -> None:
        """Commit, and release the journal connection if owned.

        Handles over caller-provided journals only commit; safe to call
        more than once.
        """
        owned, self.owned_journal = self.owned_journal, None
        if owned is not None:
            owned.close()
        else:
            self.journal.flush()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- status ---------------------------------------------------------------

    @property
    def status(self) -> str:
        return self.journal._query(
            "SELECT status FROM campaigns WHERE id = ?",
            (self.campaign_id,)).fetchone()[0]

    def mark_complete(self) -> None:
        self.journal._write(
            "UPDATE campaigns SET status = 'complete' WHERE id = ?",
            [(self.campaign_id,)])
        self.journal.flush()

    def clear(self) -> None:
        """Start this campaign afresh: drop its links into the section
        store, its sampler position and its events.

        The shared section rows themselves survive — they belong to
        every campaign whose program contains an identical section — so
        the next prologue relinks the campaign and recomposes its
        results from them.
        """
        for table in ("sampler_state", "campaign_sections", "fabric_events"):
            self.journal._write(
                f"DELETE FROM {table} WHERE campaign_id = ?",
                [(self.campaign_id,)])
        self.journal._write(
            "UPDATE campaigns SET status = 'running' WHERE id = ?",
            [(self.campaign_id,)])
        self.journal.flush()

    # -- the campaign's sections ----------------------------------------------

    def link_sections(self, section_ids: Iterable[int]) -> None:
        """Link stored sections to this campaign, as one unit."""
        self.journal._write(
            "INSERT OR IGNORE INTO campaign_sections (campaign_id, "
            "section_id) VALUES (?, ?)",
            [(self.campaign_id, section_id) for section_id in section_ids])

    def linked_sections(self) -> list[tuple[int, int, int]]:
        """``(section_id, first_slot, last_slot)`` of every section
        linked to this campaign, by first slot; empty until the
        prologue links them, and again after :meth:`clear`."""
        return self.journal._query(
            "SELECT s.id, s.first_slot, s.last_slot FROM campaign_sections "
            "AS l JOIN sections AS s ON s.id = l.section_id WHERE "
            "l.campaign_id = ? ORDER BY s.first_slot",
            (self.campaign_id,)).fetchall()

    def stored_runs(self) -> list[tuple[int, int, int, int, str, str, str]]:
        """Every run stored in this campaign's linked sections — its own
        and any other campaign's — as rows ``(section_id, slot, axis,
        first_bit, outcomes, end_cycles, traps)``, keyed by their first
        four values, every value as stored: the one read of a
        campaign's results (the style maps and validates them,
        :meth:`~.pipeline.CampaignStyle.trusted`)."""
        # CAST: an INTEGER-affinity column of a table created another
        # way stores a run of one's end cycle as an integer.
        return self.journal._query(
            "SELECT r.section_id, r.slot, r.axis, r.bit, r.outcome, "
            "CAST(r.end_cycle AS TEXT), r.trap FROM campaign_sections AS l "
            "JOIN section_results AS r ON r.section_id = l.section_id "
            "WHERE l.campaign_id = ?", (self.campaign_id,)).fetchall()

    # -- fabric event log -----------------------------------------------------

    def record_event(self, kind: str, *, worker: str = "",
                     detail: str = "") -> None:
        """Append one integrity incident to the fabric log, stamped
        with the wall-clock time of the call (``at``, epoch seconds).

        Kinds written: ``shape-reject``, ``salvage-prune``.  A journal an older coordinator wrote may
        hold kinds of layers since removed; they are kept and listed
        as stored.  The log is diagnostic — campaign results never
        depend on it — but it is what ``repro journal`` renders.
        """
        self.journal._write(
            "INSERT INTO fabric_events (campaign_id, at, worker, "
            "kind, detail) VALUES (?, ?, ?, ?, ?)",
            [(self.campaign_id, time.time(), worker, kind, detail)])
        self.journal.flush()

    # Named by benchmarks/e2e/trace.py TARGETS only; the [benchmark] PR
    # that drops that entry deletes these stubs.
    def record_lease(self, *args, **kwargs) -> None:
        pass

    def record_class(self, *args, **kwargs) -> None:
        pass

    def record_classes(self, *args, **kwargs) -> None:
        pass

    def merge_class(self, *args, **kwargs) -> None:
        pass

    def completed_classes(self, *args, **kwargs) -> None:
        pass

    # -- sampler RNG position -------------------------------------------------

    def record_sampler_state(self, draws: int, rng_state: str) -> None:
        """Journal the sampler's post-draw RNG position."""
        self.journal._write(
            "INSERT OR REPLACE INTO sampler_state (campaign_id, "
            "draws, rng_state) VALUES (?, ?, ?)",
            [(self.campaign_id, draws, rng_state)])
        self.journal.flush()

    def sampler_state(self) -> tuple[int, str] | None:
        """The journaled ``(draws, rng_state)``, or None if unrecorded."""
        row = self.journal._query(
            "SELECT draws, rng_state FROM sampler_state WHERE "
            "campaign_id = ?", (self.campaign_id,)).fetchone()
        return None if row is None else (row[0], row[1])

    def verify_sampler_state(self, draws: int, rng_state: str) -> None:
        """Check (or record) the sampler RNG position for exact resume.

        On first run the position is journaled; on resume the re-drawn
        position must match bit-for-bit, otherwise the journal belongs
        to a different sample sequence and resuming would corrupt the
        result.
        """
        stored = self.sampler_state()
        if stored is None:
            self.record_sampler_state(draws, rng_state)
            return
        if stored != (draws, rng_state):
            raise JournalMismatchError(
                f"sampler RNG position after {draws} draws does not "
                f"match the journaled campaign (journal recorded "
                f"{stored[0]} draws); the seed, sampler or sample count "
                f"changed — use resume=False to restart")


def open_campaign(journal, golden, domain, kind: str,
                  params: Mapping) -> CampaignJournal | None:
    """Resolve a ``journal=`` argument into a campaign handle.

    Accepts ``None`` (journaling disabled), an :class:`ExperimentJournal`
    or a path.  The campaign key combines the program's content
    fingerprint, the fault domain, the campaign kind and its parameters,
    the :func:`~repro.buildkey.build_key` of this build among them: a
    campaign another build journaled is another campaign.
    """
    if journal is None:
        return None
    # Imported lazily: database.py imports the runner module, which
    # imports this one.
    from .database import program_fingerprint

    owned = None
    if not isinstance(journal, ExperimentJournal):
        journal = owned = ExperimentJournal(journal)
    handle = journal.campaign(
        fingerprint=program_fingerprint(golden.program),
        domain=domain.name, kind=kind,
        params={**params, "build": build_key()}, cycles=golden.cycles)
    handle.owned_journal = owned
    return handle
