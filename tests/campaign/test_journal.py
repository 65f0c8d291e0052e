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
from repro.campaign.journal import (COMMIT_WINDOW_S, RUN_BITS, _valid_run,
                                    canonical_params, open_campaign)
from repro.faultspace import MEMORY, REGISTER
from repro.programs import bin_sem2, micro


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
        """A file stamped with another version — a newer build's, or
        version 4, which kept a second copy of every class in a class
        table — is refused before anything is written to it."""
        for version in ("999", "4"):
            path = tmp_path / f"v{version}.sqlite"
            ExperimentJournal(path).close()
            conn = sqlite3.connect(path)
            conn.execute("UPDATE meta SET value = ? "
                         "WHERE key = 'schema_version'", (version,))
            conn.commit()
            conn.close()
            before = path.read_bytes()
            with pytest.raises(JournalError, match="schema version"):
                ExperimentJournal(path)
            assert path.read_bytes() == before

    def test_campaigns_listing_counts_progress(self, journal):
        """A campaign counts the experiments its linked sections hold."""
        campaign = _campaign(journal)
        _campaign(journal, fingerprint="unlinked")
        section = _section(journal)
        campaign.link_sections([section])
        journal.merge_section_runs([(section, 7, 3, 0, "sdc no-effect",
                                     "10 12", " ")])
        listing = journal.campaigns()
        assert len(listing) == 2
        assert listing[0]["kind"] == "full-scan"
        assert listing[0]["status"] == "running"
        assert [entry["stored_experiments"] for entry in listing] == [2, 0]

    def test_size_report_counts_bytes_per_stored_row(self, journal):
        assert journal.size_report()["bytes_per_result"] == 0.0
        section = _section(journal)
        journal.merge_section_runs([(section, 7, 3, 0, "sdc no-effect",
                                     "10 12", " "),
                                    (section, 1, 4, 0, "no-effect", "1", ""),
                                    (section, 1, 4, 1, "sdc", "1", "")])
        report = journal.size_report()
        assert report["section_results"] == 4
        assert report["bytes_per_result"] == report["file_bytes"] / 4

    def test_result_rows_are_stored_once(self, tmp_path):
        """A count gate on the row format and the table layout, on a
        fresh ``bin_sem2`` journaled scan in each of two domains: one
        ``section_results`` row per live class, however many bits it
        has, no class table, the store holding each experiment once,
        and at most 32 file bytes per stored experiment, the file's
        fixed pages included (30 B on memory, 27 B on register; with a
        class table holding a second copy of each, the file took 28 B
        per copy; a row per bit took 38 B clustered, 55 B as rowid
        tables).  Re-running the campaign, resumed or fresh, stores
        nothing more."""
        golden = record_golden(bin_sem2.baseline())
        for domain in ("memory", "register"):
            path = tmp_path / f"{domain}.sqlite"
            scan = run_full_scan(golden, domain=domain, journal=path)
            conn = sqlite3.connect(path)
            (rows,) = conn.execute(
                "SELECT COUNT(*) FROM section_results").fetchone()
            tables = {name for (name,) in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'")}
            conn.close()
            assert rows == len(scan.partition.live_classes()), domain
            assert not any("class" in table for table in tables), domain
            with ExperimentJournal(path) as handle:
                report = handle.size_report()
            assert not any("class" in key for key in report), domain
            assert report["section_results"] \
                == scan.experiments_conducted, domain
            assert 0 < report["bytes_per_result"] <= 32, domain
            for resume in (True, False):
                again = run_full_scan(golden, domain=domain, journal=path,
                                      resume=resume)
                assert again.execution.executed == 0, domain
                with ExperimentJournal(path) as handle:
                    assert handle.size_report()["section_results"] \
                        == report["section_results"], domain

    def test_canonical_params_is_order_insensitive(self):
        assert canonical_params({"a": 1, "b": 2}) \
            == canonical_params({"b": 2, "a": 1})


class TestCampaignJournal:
    def test_class_rows_round_trip(self, journal):
        campaign, section = _linked(journal)
        journal.merge_section_runs([(section, 2, 5, 0, "sdc cpu-exception",
                                     "30 31", " BUS")])
        # A class is one run from bit 0: it reads back as stored.
        assert _runs(campaign) == {
            (section, 2, 5, 0): ("sdc cpu-exception", "30 31", " BUS")}

    def test_rows_with_a_gap_keep_their_bits(self, journal):
        """A torn class — one run per stretch of consecutive bits, what
        a file an older build wrote a row per bit leaves when it loses a
        page — keeps its rows as stored, never renumbered; its run from
        bit 0 fails validation for the class, so the class
        re-executes."""
        campaign, section = _linked(journal)
        journal.merge_section_runs([
            (section, 2, 5, 0, "sdc sdc", "30 31", " illegal-pc"),
            (section, 2, 5, 3, "timeout", "33", "")])
        stored = _runs(campaign)
        assert stored == {
            (section, 2, 5, 0): ("sdc sdc", "30 31", " illegal-pc"),
            (section, 2, 5, 3): ("timeout", "33", "")}
        assert not _valid_run(stored[(section, 2, 5, 0)], 4)
        assert journal.campaigns()[0]["stored_experiments"] == 3

    def test_a_run_whose_columns_disagree_yields_no_bits(self, journal):
        """Two outcomes, one end cycle: which bit it belongs to is not
        knowable, so the run reads back as stored and fails
        validation: it is re-executed, none of its bits trusted."""
        campaign, section = _linked(journal)
        journal.merge_section_runs([
            (section, 2, 5, 0, "sdc no-effect", "30 31", " "),
            (section, 2, 6, 0, "sdc sdc", "30", " ")])
        stored = _runs(campaign)
        assert list(stored.values()) == [("sdc no-effect", "30 31", " "),
                                         ("sdc sdc", "30", " ")]
        assert [_valid_run(run, 2) for run in stored.values()] \
            == [True, False]

    def test_experiment_rows_round_trip(self, journal):
        """A sampled experiment reads back as its run of one, every
        value as stored."""
        campaign, section = _linked(journal, kind="sampling")
        journal.merge_section_runs([(section, 9, 2, 3, "timeout", "0", ""),
                                    (section, 9, 2, 4, "bogus", "0", "")])
        assert _runs(campaign) == {
            (section, 9, 2, 3): ("timeout", "0", ""),
            (section, 9, 2, 4): ("bogus", "0", "")}

    def test_clear_discards_results_and_state(self, journal):
        """``clear()`` drops the campaign's links, sampler position and
        status; the shared section rows survive for the next link."""
        campaign, section = _linked(journal)
        journal.merge_section_runs([(section, 1, 1, 0, "sdc", "5", "")])
        campaign.record_sampler_state(10, "[3,[1,2],null]")
        campaign.mark_complete()
        campaign.clear()
        assert _runs(campaign) == {}
        assert campaign.linked_sections() == []
        assert campaign.sampler_state() is None
        assert campaign.status == "running"
        assert journal.size_report()["section_results"] == 1
        campaign.link_sections([section])
        assert list(_runs(campaign).values()) == [("sdc", "5", "")]

    def test_an_event_is_stamped_by_the_journal(self, journal):
        """``record_event`` takes no time from its caller: the journal
        stamps ``at`` with the wall clock of the call."""
        import time

        campaign = _campaign(journal)
        before = time.time()
        campaign.record_event("shape-reject", worker="w0", detail="x")
        after = time.time()
        (entry,) = journal.fabric_report()
        (event,) = entry["events"]
        assert before <= event["at"] <= after
        assert (event["worker"], event["kind"], event["detail"]) \
            == ("w0", "shape-reject", "x")

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
            section = _section(handle)
            for axis in range(64):
                handle.merge_section_runs([(section, 1, axis, 0, *RUN)])
        raw = bytearray(path.read_bytes())
        assert len(raw) > 8192
        # Stomp a whole page's header: structural corruption that
        # PRAGMA quick_check is guaranteed to flag.
        raw[4096:4296] = b"\xde\xad" * 100
        path.write_bytes(bytes(raw))
        with pytest.raises((JournalError, sqlite3.DatabaseError)):
            with ExperimentJournal(path) as handle:
                _campaign(handle).stored_runs()

    def test_merge_class_is_first_wins_idempotent(self, journal):
        """A class merged again — the same run, or a late copy of its
        length — keeps the first copy; only a longer run replaces a
        shorter one at the same first bit."""
        campaign, section = _linked(journal)
        run = ("sdc no-effect", "30 42", " ")
        for again in (run, run, ("timeout timeout", "1 1", " ")):
            journal.merge_section_runs([(section, 2, 5, 0, *again)])
            assert _runs(campaign) == {(section, 2, 5, 0): run}
        longer = ("sdc no-effect sdc", "30 42 7", "  ")
        journal.merge_section_runs([(section, 2, 5, 0, *longer)])
        assert _runs(campaign) == {(section, 2, 5, 0): longer}


#: An eight-bit class as its run: outcomes, end cycles, traps.
RUN = (" ".join(["sdc"] * 8), " ".join(["30"] * 8), " " * 7)


def _section(journal) -> int:
    """One interned section of slots 1–9."""
    return journal.section(fingerprint="s", program="p", domain="memory",
                           first_slot=1, last_slot=9)


def _runs(campaign) -> dict:
    """The campaign's stored runs, ``(section_id, slot, axis, bit)`` →
    run."""
    return {row[:4]: row[4:] for row in campaign.stored_runs()}


def _linked(journal, **overrides):
    """``(campaign, section_id)``: a campaign linked to one section."""
    campaign = _campaign(journal, **overrides)
    section = _section(journal)
    campaign.link_sections([section])
    return campaign, section


def _store(journal, *axes, run=RUN) -> None:
    """One unit: a class stored at slot 1 of the first section (what
    :func:`_section` interns in a fresh file) on each of ``axes`` — a
    write alone, no read to commit the window."""
    journal.merge_section_runs([(1, 1, axis, 0, *run) for axis in axes])


def _committed(path) -> dict:
    """What a second connection — a crash survivor — sees: experiments
    stored per axis, every bit counted."""
    conn = sqlite3.connect(path)
    try:
        return dict(conn.execute(
            f"SELECT axis, SUM({RUN_BITS}) FROM section_results "
            f"GROUP BY axis ORDER BY axis"))
    finally:
        conn.close()


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
        section = _section(journal)
        _store(journal, 1)
        journal.merge_section_runs([(section, 1, 3, 0, "sdc", "30", ""),
                                    (section, 1, 3, 1, "sdc", "30", "")])
        clock[0] += COMMIT_WINDOW_S * 0.9
        journal.merge_section_runs([(section, 1, 2, 0, "sdc", "30", "")])
        assert _committed(path) == {}  # all inside the window
        clock[0] += COMMIT_WINDOW_S * 0.1
        _store(journal, 4)  # finds the window expired
        everything = {1: 8, 2: 1, 3: 2, 4: 8}
        assert _committed(path) == everything
        _store(journal, 5)  # opens the next window
        clock[0] += COMMIT_WINDOW_S * 0.5
        _store(journal, 6)
        assert _committed(path) == everything
        journal.close()
        assert _committed(path) == everything | {5: 8, 6: 8}

    @pytest.mark.parametrize("flush_point", [
        lambda campaign, other: campaign.mark_complete(),
        lambda campaign, other: other.clear(),
        lambda campaign, other: campaign.journal.discard_section_runs(
            [(9, 9, 9, 0)]),
        lambda campaign, other: campaign.record_event("probation"),
        lambda campaign, other: campaign.flush(),
        lambda campaign, other: campaign.close(),
        lambda campaign, other: campaign.journal.close(),
    ], ids=["mark_complete", "clear", "discard_section_runs",
            "record_event", "flush", "handle-close", "journal-close"])
    def test_every_flush_point_commits_the_pending_rows(
            self, tmp_path, clock, flush_point):
        path = tmp_path / "journal.sqlite"
        with ExperimentJournal(path) as journal:
            campaign = _campaign(journal)
            other = _campaign(journal, fingerprint="other")
            _section(journal)
            _store(journal, 1)
            _store(journal, 2)
            assert _committed(path) == {}
            flush_point(campaign, other)
            assert _committed(path) == {1: 8, 2: 8}

    def test_exception_and_interrupt_exits_commit(self, tmp_path, clock):
        path = tmp_path / "journal.sqlite"
        for axis, exc in enumerate((RuntimeError, KeyboardInterrupt)):
            with pytest.raises(exc):
                with ExperimentJournal(path) as journal:
                    with _campaign(journal):
                        _store(journal, axis)
                        raise exc
            assert _committed(path)[axis] == 8

    def test_owned_handle_closes_twice(self, tmp_path, golden):
        path = tmp_path / "journal.sqlite"
        handle = open_campaign(path, golden, MEMORY, "full-scan", {})
        _store(handle.journal, 1)
        handle.close()
        handle.close()  # a runner's ``with`` after an explicit close
        assert _committed(path)[1] == 8

    def test_a_writer_reads_its_own_pending_rows(self, tmp_path, clock):
        path = tmp_path / "journal.sqlite"
        with ExperimentJournal(path) as journal:
            campaign, section = _linked(journal)
            _store(journal, 1, 2)
            assert _committed(path) == {}
            # A read through the writer commits the window first.
            assert sorted(_runs(campaign)) \
                == [(section, 1, 1, 0), (section, 1, 2, 0)]
            assert _committed(path) == {1: 8, 2: 8}
            # A discarded class stores again, even within one window.
            _store(journal, 3)
            assert journal.discard_section_runs(
                [(section, 1, 3, 0), (section, 1, 3, 0)]) == 1
            assert _committed(path) == {1: 8, 2: 8}
            _store(journal, 3)
        assert _committed(path) == {1: 8, 2: 8, 3: 8}

    def test_merge_class_keeps_the_first_copy_wherever_it_is(
            self, tmp_path, clock):
        """A class is fresh unless an earlier copy is committed, still
        in the uncommitted window or merged just before; a late copy of
        its length never replaces the first."""
        path = tmp_path / "journal.sqlite"
        late = (" ".join(["timeout"] * 8), " ".join(["1"] * 8), " " * 7)
        with ExperimentJournal(path) as journal:
            campaign, section = _linked(journal)
            _store(journal, 1)
            campaign.flush()  # (1, 1) committed
            _store(journal, 2)  # (1, 2) uncommitted
            _store(journal, 1, 2, 3, run=late)
            _store(journal, 3, run=late)
            stored = _runs(campaign)
        # Every first copy, none of the late ones.
        assert stored == {(section, 1, 1, 0): RUN, (section, 1, 2, 0): RUN,
                          (section, 1, 3, 0): late}
        assert _committed(path) == {1: 8, 2: 8, 3: 8}

    def test_an_open_window_locks_nobody_out(self, tmp_path, clock):
        """Two campaigns — two processes in real life — share one file.
        A writer with a pending window must not hold the write lock: the
        other one commits at once (busy_timeout 0, so waiting is a
        failure), and both windows land."""
        path = tmp_path / "journal.sqlite"
        with ExperimentJournal(path) as first, \
                ExperimentJournal(path) as second:
            second._conn.execute("PRAGMA busy_timeout = 0")
            _section(first)
            theirs = _campaign(second, fingerprint="other")
            _store(first, 1)
            _store(second, 2)
            theirs.flush()
            assert _committed(path) == {2: 8}
            first._conn.execute("PRAGMA busy_timeout = 0")
            first.flush()
            _store(second, 3)
            theirs.mark_complete()
        assert _committed(path) == {1: 8, 2: 8, 3: 8}

    def test_a_rejected_unit_is_dropped_whole_and_alone(self, tmp_path,
                                                        clock):
        """A unit the database rejects at commit (two sampled
        experiments, a row each, one with a NULL outcome) is dropped
        whole at the flush; the units around it commit."""
        path = tmp_path / "journal.sqlite"
        with ExperimentJournal(path) as journal:
            section = _section(journal)
            _store(journal, 6)
            journal.merge_section_runs([(section, 1, 3, 0, "sdc", "1", ""),
                                        (section, 1, 3, 1, None, "1", "")])
            _store(journal, 8)
            with pytest.raises(sqlite3.IntegrityError):
                journal.flush()
            # Nothing of the failed transaction is visible; the classes
            # around the torn unit are still pending, not lost.
            assert _committed(path) == {}
            _store(journal, 7)
        assert _committed(path) == {6: 8, 7: 8, 8: 8}

    def test_a_busy_database_keeps_the_window(self, tmp_path, clock):
        path = tmp_path / "journal.sqlite"
        with ExperimentJournal(path) as journal:
            journal._conn.execute("PRAGMA busy_timeout = 0")
            _section(journal)
            _store(journal, 1)
            blocker = sqlite3.connect(path)
            blocker.execute("BEGIN IMMEDIATE")
            try:
                with pytest.raises(sqlite3.OperationalError):
                    journal.flush()
            finally:
                blocker.rollback()
                blocker.close()
            _store(journal, 2)
        assert _committed(path) == {1: 8, 2: 8}
