"""Unit tests for the durable experiment journal."""

import sqlite3

import pytest

from repro.campaign import (
    ExecutionReport,
    ExperimentJournal,
    JournalError,
    JournalMismatchError,
    record_golden,
    run_full_scan,
)
from repro.campaign import journal as journal_module
from repro.campaign.journal import (COMMIT_WINDOW_S, canonical_params,
                                    open_campaign, whole_run)
from repro.faultspace import MEMORY, REGISTER
from repro.programs import bin_sem2, micro

from .journal_rows import class_experiments, stored_experiments


@pytest.fixture(scope="module")
def golden():
    return record_golden(micro.counter(2))


@pytest.fixture()
def journal(tmp_path):
    with ExperimentJournal(tmp_path / "journal.sqlite") as handle:
        yield handle


def _campaign(journal, **overrides):
    spec = dict(fingerprint="abc123", domain="memory", kind="full-scan",
                params={"timeout_cycles": 100, "early_stop": True},
                cycles=42)
    spec.update(overrides)
    return journal.campaign(**spec)


class TestJournalFile:
    def test_same_key_reopens_same_campaign(self, journal):
        first = _campaign(journal)
        second = _campaign(journal)
        assert first.campaign_id == second.campaign_id

    def test_key_components_separate_campaigns(self, journal):
        base = _campaign(journal)
        assert _campaign(journal, fingerprint="other").campaign_id \
            != base.campaign_id
        assert _campaign(journal, domain="register").campaign_id \
            != base.campaign_id
        assert _campaign(journal, kind="sampling").campaign_id \
            != base.campaign_id
        assert _campaign(journal, params={"timeout_cycles": 999,
                                          "early_stop": True}).campaign_id \
            != base.campaign_id

    def test_changed_cycles_is_a_mismatch(self, journal):
        _campaign(journal, cycles=42)
        with pytest.raises(JournalMismatchError, match="Δt"):
            _campaign(journal, cycles=43)

    def test_schema_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "future.sqlite"
        ExperimentJournal(path).close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET value = '999' "
                     "WHERE key = 'schema_version'")
        conn.commit()
        conn.close()
        with pytest.raises(JournalError, match="schema version"):
            ExperimentJournal(path)

    def test_campaigns_listing_counts_progress(self, journal):
        campaign = _campaign(journal)
        campaign.record_class(3, 7, ("sdc no-effect", "10 12", " "))
        listing = journal.campaigns()
        assert len(listing) == 1
        assert listing[0]["kind"] == "full-scan"
        assert listing[0]["status"] == "running"
        assert listing[0]["journaled_experiments"] == 2

    def test_size_report_counts_bytes_per_stored_row(self, journal):
        assert journal.size_report()["bytes_per_result"] == 0.0
        campaign = _campaign(journal)
        campaign.record_class(3, 7, ("sdc no-effect", "10 12", " "))
        campaign.record_slot(4, [(0, 0, "no-effect"), (0, 1, "sdc")])
        report = journal.size_report()
        assert report["bytes_per_result"] == report["file_bytes"] / 4

    def test_result_rows_are_stored_once(self, tmp_path):
        """A count gate on the row format and the table layout, on a
        fresh ``bin_sem2`` journaled scan in each of two domains: one
        ``class_results`` row and one ``section_results`` row per live
        class, however many bits it has, and at most 30 file bytes per
        stored experiment (a class-table copy and a section-table copy
        of each: 28 B on memory; a row per bit took 38 B clustered, 55 B
        as rowid tables)."""
        golden = record_golden(bin_sem2.baseline())
        for domain in ("memory", "register"):
            path = tmp_path / f"{domain}.sqlite"
            scan = run_full_scan(golden, domain=domain, journal=path)
            conn = sqlite3.connect(path)
            rows = [conn.execute(f"SELECT COUNT(*) FROM {table}")
                    .fetchone()[0]
                    for table in ("class_results", "section_results")]
            conn.close()
            assert rows == [len(scan.partition.live_classes())] * 2, domain
            with ExperimentJournal(path) as handle:
                report = handle.size_report()
            assert report["class_results"] == report["section_results"] \
                == scan.experiments_conducted, domain
            assert 0 < report["bytes_per_result"] <= 30, domain

    def test_canonical_params_is_order_insensitive(self):
        assert canonical_params({"a": 1, "b": 2}) \
            == canonical_params({"b": 2, "a": 1})


class TestCampaignJournal:
    def test_class_rows_round_trip(self, journal):
        campaign = _campaign(journal)
        campaign.record_class(5, 2, ("sdc cpu-exception", "30 31", " BUS"))
        stored = campaign.completed_classes()
        # A class is one run from bit 0: it reads back as stored.
        assert stored == {(5, 2): ("sdc cpu-exception", "30 31", " BUS")}

    def test_rows_with_a_gap_keep_their_bits(self, journal):
        """A torn class — one run per stretch of consecutive bits, what a
        version-3 file losing a page leaves — reads back torn, and fails
        validation, instead of closing the gap by renumbering."""
        campaign = _campaign(journal)
        torn = [(0, "sdc", 30, ""), (1, "sdc", 31, "illegal-pc"),
                (3, "timeout", 33, "")]
        journal._write(
            "INSERT INTO class_results VALUES (?, 5, 2, ?, ?, ?, ?)",
            [(campaign.campaign_id, 0, "sdc sdc", "30 31", " illegal-pc"),
             (campaign.campaign_id, 3, "timeout", "33", "")])
        stored = campaign.completed_classes()
        assert stored == {(5, 2): [(bit, value, str(end), trap)
                                   for bit, value, end, trap in torn]}
        assert whole_run(stored[(5, 2)], 4) is None
        assert journal.campaigns()[0]["journaled_experiments"] == 3

    def test_a_run_whose_columns_disagree_yields_no_bits(self, journal):
        """Two outcomes, one end cycle: which bit it belongs to is not
        knowable, so the class reads as absent and is re-executed."""
        campaign = _campaign(journal)
        campaign.record_class(5, 2, ("sdc no-effect", "30 31", " "))
        journal._write(
            "INSERT INTO class_results VALUES (?, 6, 2, 0, 'sdc sdc', "
            "'30', ' ')", [(campaign.campaign_id,)])
        assert list(campaign.completed_classes()) == [(5, 2)]

    def test_slot_rows_round_trip(self, journal):
        """A slot reads back as its run ``(axes, bits, outcomes)``, every
        value as stored."""
        campaign = _campaign(journal, kind="brute-force")
        campaign.record_slot(4, [(0, 1, "sdc"), (0, 0, "no-effect"),
                                 (2, 0, "bogus")])
        assert campaign.completed_slots() == {
            4: ("0 0 2", "0 1 0", "no-effect sdc bogus")}

    def test_experiment_rows_round_trip(self, journal):
        """A sampled experiment reads back as its run of one, every
        value as stored."""
        campaign = _campaign(journal, kind="sampling")
        campaign.record_experiments([(2, 9, 3, "timeout"),
                                     (2, 9, 4, "bogus")])
        assert campaign.completed_experiments() == {
            (2, 9, 3): ("timeout", "0", ""), (2, 9, 4): ("bogus", "0", "")}

    def test_clear_discards_results_and_state(self, journal):
        campaign = _campaign(journal)
        campaign.record_class(1, 1, ("sdc", "5", ""))
        campaign.record_sampler_state(10, "[3,[1,2],null]")
        campaign.mark_complete()
        campaign.clear()
        assert campaign.completed_classes() == {}
        assert campaign.sampler_state() is None
        assert campaign.status == "running"

    def test_mark_complete_sets_status(self, journal):
        campaign = _campaign(journal)
        assert campaign.status == "running"
        campaign.mark_complete()
        assert campaign.status == "complete"

    def test_sampler_state_verified_on_resume(self, journal):
        campaign = _campaign(journal, kind="sampling")
        campaign.verify_sampler_state(10, "[3,[1,2],null]")  # records
        campaign.verify_sampler_state(10, "[3,[1,2],null]")  # matches
        with pytest.raises(JournalMismatchError, match="seed, sampler"):
            campaign.verify_sampler_state(10, "[3,[9,9],null]")
        with pytest.raises(JournalMismatchError):
            campaign.verify_sampler_state(11, "[3,[1,2],null]")


class TestOpenCampaign:
    def test_none_disables_journaling(self, golden):
        assert open_campaign(None, golden, MEMORY, "full-scan", {}) is None

    def test_path_and_instance_open_the_same_campaign(self, golden,
                                                      tmp_path):
        path = tmp_path / "j.sqlite"
        by_path = open_campaign(path, golden, MEMORY, "full-scan", {})
        with ExperimentJournal(path) as journal:
            by_instance = open_campaign(journal, golden, MEMORY,
                                        "full-scan", {})
            assert by_instance.campaign_id == by_path.campaign_id

    def test_domains_do_not_share_campaigns(self, golden, tmp_path):
        with ExperimentJournal(tmp_path / "j.sqlite") as journal:
            memory = open_campaign(journal, golden, MEMORY, "full-scan", {})
            register = open_campaign(journal, golden, REGISTER,
                                     "full-scan", {})
            assert memory.campaign_id != register.campaign_id


class TestExecutionReport:
    def test_complete_report(self):
        report = ExecutionReport(total_units=10, executed=6, resumed=4)
        assert report.complete
        assert report.completeness == 1.0

    def test_degraded_report(self):
        report = ExecutionReport(total_units=10, executed=5,
                                 failed_shards=1,
                                 missing=((0, 1), (0, 2)))
        assert not report.complete
        assert report.completeness == pytest.approx(0.8)

    def test_empty_report_is_trivially_complete(self):
        assert ExecutionReport().complete
        assert ExecutionReport().completeness == 1.0


class TestJournalDurability:
    """The satellite hardening: WAL mode, integrity checking, and the
    idempotent-merge / lease state the distributed fabric relies on."""

    def test_file_journal_runs_in_wal_mode(self, tmp_path):
        path = tmp_path / "journal.sqlite"
        with ExperimentJournal(path) as handle:
            mode = handle._conn.execute(
                "PRAGMA journal_mode").fetchone()[0]
            assert mode == "wal"

    def test_garbage_file_raises_journal_error_naming_the_path(
            self, tmp_path):
        path = tmp_path / "journal.sqlite"
        path.write_bytes(b"this was never a database" * 100)
        with pytest.raises(JournalError, match="journal.sqlite"):
            ExperimentJournal(path)

    def test_corrupted_database_fails_fast_not_mid_campaign(
            self, tmp_path):
        """Flipping bytes inside a real journal must surface at open
        (quick_check or the schema read), never as a silent bad read."""
        path = tmp_path / "journal.sqlite"
        with ExperimentJournal(path) as handle:
            campaign = _campaign(handle)
            for axis in range(64):
                campaign.record_class(axis, 1, RUN)
        raw = bytearray(path.read_bytes())
        assert len(raw) > 8192
        # Stomp a whole page's header: structural corruption that
        # PRAGMA quick_check is guaranteed to flag.
        raw[4096:4296] = b"\xde\xad" * 100
        path.write_bytes(bytes(raw))
        with pytest.raises((JournalError, sqlite3.DatabaseError)):
            with ExperimentJournal(path) as handle:
                _campaign(handle).completed_classes()

    def test_merge_class_is_first_wins_idempotent(self, journal):
        campaign = _campaign(journal)
        run = ("sdc no-effect", "30 42", " ")
        assert campaign.merge_class(5, 2, run) is True
        assert campaign.merge_class(5, 2, run) is False
        assert campaign.merge_class(
            5, 2, ("timeout", "1", "")) is False  # late duplicate
        stored = campaign.completed_classes()
        assert stored[(5, 2)] == ("sdc no-effect", "30 42", " ")

    def test_lease_state_round_trips_and_clears(self, journal):
        campaign = _campaign(journal)
        campaign.record_lease(0, '[[0,1]]', attempts=2, status="pending",
                              worker="w0")
        campaign.record_lease(1, '[[0,9]]', attempts=0, status="failed")
        assert campaign.lease_states() == {
            0: {"keys": '[[0,1]]', "worker": "w0", "attempts": 2,
                "status": "pending"},
            1: {"keys": '[[0,9]]', "worker": "", "attempts": 0,
                "status": "failed"}}
        campaign.record_lease(0, '[[0,1]]', attempts=3, status="leased",
                              worker="w1")
        assert campaign.lease_states()[0]["attempts"] == 3
        campaign.clear()
        assert campaign.lease_states() == {}


#: An eight-bit class as its run: outcomes, end cycles, traps.
RUN = (" ".join(["sdc"] * 8), " ".join(["30"] * 8), " " * 7)


def _committed(path) -> dict:
    """What a second connection — a crash survivor — sees: experiments
    per class, plus the experiment totals of the other unit tables."""
    conn = sqlite3.connect(path)
    try:
        coordinates = conn.execute(
            "SELECT COUNT(*) FROM coordinate_results").fetchone()[0]
    finally:
        conn.close()
    return {**class_experiments(path), "coordinate_results": coordinates,
            "section_results": stored_experiments(path, "section_results")}


NOTHING = {"coordinate_results": 0, "section_results": 0}


class TestGroupCommit:
    """The crash contract: unit writes are buffered in one window that
    commits when older than COMMIT_WINDOW_S, at every bookkeeping
    write, on flush(), on a read through the writer and on close — and
    a unit is committed whole or not at all.  No database lock is held
    while the window is open.  The clock is virtual; nothing here
    sleeps."""

    @pytest.fixture()
    def clock(self, monkeypatch):
        now = [1000.0]
        monkeypatch.setattr(journal_module, "_clock", lambda: now[0])
        return now

    def test_window_semantics(self, tmp_path, clock):
        path = tmp_path / "journal.sqlite"
        journal = ExperimentJournal(path)
        campaign = _campaign(journal)
        section = journal.section(fingerprint="s", program="p",
                                  domain="memory", first_slot=1,
                                  last_slot=9)
        campaign.record_class(1, 1, RUN)
        campaign.record_slot(3, [(0, 0, "sdc"), (0, 1, "sdc")])
        journal.merge_section_runs([(section, 1, 1, 0, "sdc", "30", "")])
        clock[0] += COMMIT_WINDOW_S * 0.9
        campaign.record_experiments([(2, 1, 0, "sdc")])
        assert _committed(path) == NOTHING  # all inside the window
        clock[0] += COMMIT_WINDOW_S * 0.1
        campaign.record_class(4, 1, RUN)  # finds the window expired
        everything = {(1, 1): 8, (2, 1): 1, (4, 1): 8,
                      "coordinate_results": 2, "section_results": 1}
        assert _committed(path) == everything
        campaign.record_class(5, 1, RUN)  # opens the next window
        clock[0] += COMMIT_WINDOW_S * 0.5
        campaign.record_class(6, 1, RUN)
        assert _committed(path) == everything
        journal.close()
        assert _committed(path) == everything | {(5, 1): 8, (6, 1): 8}

    @pytest.mark.parametrize("flush_point", [
        lambda campaign, other: campaign.mark_complete(),
        lambda campaign, other: other.clear(),
        lambda campaign, other: campaign.discard_classes([(9, 9)]),
        lambda campaign, other: campaign.record_lease(
            0, "[]", attempts=0, status="pending"),
        lambda campaign, other: campaign.record_event("probation"),
        lambda campaign, other: campaign.flush(),
        lambda campaign, other: campaign.close(),
        lambda campaign, other: campaign.journal.close(),
    ], ids=["mark_complete", "clear", "discard_classes", "record_lease",
            "record_event", "flush", "handle-close", "journal-close"])
    def test_every_flush_point_commits_the_pending_rows(
            self, tmp_path, clock, flush_point):
        path = tmp_path / "journal.sqlite"
        with ExperimentJournal(path) as journal:
            campaign = _campaign(journal)
            other = _campaign(journal, fingerprint="other")
            campaign.record_class(1, 1, RUN)
            campaign.record_class(2, 1, RUN)
            assert _committed(path) == NOTHING
            flush_point(campaign, other)
            assert _committed(path) == NOTHING | {(1, 1): 8, (2, 1): 8}

    def test_exception_and_interrupt_exits_commit(self, tmp_path, clock):
        path = tmp_path / "journal.sqlite"
        for axis, exc in enumerate((RuntimeError, KeyboardInterrupt)):
            with pytest.raises(exc):
                with ExperimentJournal(path) as journal:
                    with _campaign(journal) as campaign:
                        campaign.record_class(axis, 1, RUN)
                        raise exc
            assert _committed(path)[(axis, 1)] == 8

    def test_owned_handle_closes_twice(self, tmp_path, golden):
        path = tmp_path / "journal.sqlite"
        handle = open_campaign(path, golden, MEMORY, "full-scan", {})
        handle.record_class(1, 1, RUN)
        handle.close()
        handle.close()  # a runner's ``with`` after an explicit close
        assert _committed(path)[(1, 1)] == 8

    def test_a_writer_reads_its_own_pending_rows(self, tmp_path, clock):
        path = tmp_path / "journal.sqlite"
        with ExperimentJournal(path) as journal:
            campaign = _campaign(journal)
            campaign.record_classes([(1, 1, RUN), (2, 1, RUN)])
            assert _committed(path) == NOTHING
            assert campaign.merge_class(2, 1, RUN) is False  # a read
            assert _committed(path) == NOTHING | {(1, 1): 8, (2, 1): 8}
            assert sorted(campaign.completed_classes()) == [(1, 1), (2, 1)]
            assert _committed(path) == NOTHING | {(1, 1): 8, (2, 1): 8}
            # A discarded class merges again, even within one window.
            campaign.record_class(3, 1, RUN)
            assert campaign.discard_classes([(3, 1), (3, 1), (9, 9)]) == 1
            assert campaign.merge_class(3, 1, RUN) is True

    def test_merge_class_keeps_the_first_copy_wherever_it_is(
            self, tmp_path, clock):
        """A class is fresh unless an earlier copy is committed, still
        in the uncommitted window or merged just before; a late copy
        never replaces the first, which is stored exactly as
        ``record_class`` would store it."""
        path = tmp_path / "journal.sqlite"
        late = (" ".join(["timeout"] * 8), " ".join(["1"] * 8), " " * 7)
        with ExperimentJournal(path) as journal:
            campaign = _campaign(journal)
            campaign.record_class(1, 1, RUN)
            campaign.flush()  # (1, 1) committed
            campaign.record_class(2, 1, RUN)  # (2, 1) uncommitted
            assert campaign.merge_class(1, 1, late) is False
            assert campaign.merge_class(2, 1, late) is False
            assert campaign.merge_class(3, 1, RUN) is True
            assert campaign.merge_class(3, 1, late) is False
            stored = campaign.completed_classes()
        # Every first copy, none of the late ones.
        assert stored == {(axis, 1): RUN for axis in (1, 2, 3)}
        assert _committed(path) == NOTHING | {(axis, 1): 8
                                              for axis in (1, 2, 3)}

    def test_an_open_window_locks_nobody_out(self, tmp_path, clock):
        """Two campaigns — two processes in real life — share one file.
        A writer with a pending window must not hold the write lock: the
        other one commits at once (busy_timeout 0, so waiting is a
        failure), and both windows land."""
        path = tmp_path / "journal.sqlite"
        with ExperimentJournal(path) as first, \
                ExperimentJournal(path) as second:
            second._conn.execute("PRAGMA busy_timeout = 0")
            ours = _campaign(first)
            theirs = _campaign(second, fingerprint="other")
            ours.record_class(1, 1, RUN)
            theirs.record_class(2, 1, RUN)
            theirs.flush()
            assert _committed(path) == NOTHING | {(2, 1): 8}
            first._conn.execute("PRAGMA busy_timeout = 0")
            ours.flush()
            theirs.record_class(3, 1, RUN)
            theirs.mark_complete()
        assert _committed(path) == NOTHING | {(1, 1): 8, (2, 1): 8,
                                              (3, 1): 8}

    def test_a_rejected_unit_is_dropped_whole_and_alone(self, tmp_path,
                                                        clock):
        """A unit the database rejects at commit (a brute-force slot,
        still a row per coordinate, with a NULL outcome) is dropped
        whole at the flush; the units around it commit."""
        path = tmp_path / "journal.sqlite"
        with ExperimentJournal(path) as journal:
            campaign = _campaign(journal)
            campaign.record_class(6, 1, RUN)
            campaign.record_slot(3, [(0, 0, "sdc"), (0, 1, None)])
            campaign.record_class(8, 1, RUN)
            with pytest.raises(sqlite3.IntegrityError):
                campaign.flush()
            # Nothing of the failed transaction is visible; the classes
            # around the torn unit are still pending, not lost.
            assert _committed(path) == NOTHING
            assert campaign.merge_class(6, 1, RUN) is False
            assert campaign.merge_class(7, 1, RUN) is True
        assert _committed(path) == NOTHING | {(6, 1): 8, (7, 1): 8,
                                              (8, 1): 8}

    def test_a_busy_database_keeps_the_window(self, tmp_path, clock):
        path = tmp_path / "journal.sqlite"
        with ExperimentJournal(path) as journal:
            journal._conn.execute("PRAGMA busy_timeout = 0")
            campaign = _campaign(journal)
            campaign.record_class(1, 1, RUN)
            blocker = sqlite3.connect(path)
            blocker.execute("BEGIN IMMEDIATE")
            try:
                with pytest.raises(sqlite3.OperationalError):
                    campaign.flush()
            finally:
                blocker.rollback()
                blocker.close()
            campaign.record_class(2, 1, RUN)
        assert _committed(path) == NOTHING | {(1, 1): 8, (2, 1): 8}
