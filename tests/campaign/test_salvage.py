"""Torn-write recovery: corrupt journals salvage instead of dying.

A power cut mid-checkpoint, a truncated ``scp``, a bad sector — any of
them can leave the campaign journal failing SQLite's ``quick_check``.
The contract under test: opening such a file raises a loud
:class:`JournalCorruptError` by default, ``salvage=True`` rebuilds a
fresh journal from every row that is still readable (moving the
original aside as forensic evidence), and every resuming layer —
in-process or on fabric workers — validates recovered classes against the
domain's expected experiment weights instead of trusting them blindly,
so a half-lost class is re-executed, never merged.
"""

import sqlite3

import pytest

from repro.campaign import (
    record_golden,
    run_distributed_scan,
    run_full_scan,
    run_sampling,
)
from repro.campaign.journal import (
    ExperimentJournal,
    JournalCorruptError,
    JournalError,
    _valid_run,
)
from repro.campaign.salvage import SalvageReport, salvage_journal
from repro.programs import hi, micro

from .journal_rows import truncate_first_class
from .fabric import run_dist


@pytest.fixture(scope="module")
def memory_golden():
    return record_golden(micro.memcopy(6))


@pytest.fixture(scope="module")
def memory_baseline(memory_golden):
    return run_full_scan(memory_golden, keep_records=True)


def journal_with_campaign(tmp_path, golden):
    """A closed on-disk journal holding one complete campaign."""
    path = tmp_path / "campaign.sqlite"
    run_full_scan(golden, journal=path)
    return path


def corrupt_pages(path, *, start=4096, length=8192):
    """Zero out interior pages, the shape real torn writes take."""
    size = path.stat().st_size
    assert size > start + length, "journal too small for this corruption"
    with open(path, "r+b") as handle:
        handle.seek(start)
        handle.write(b"\x00" * length)


class TestSalvageTablesInSync:
    def test_salvage_covers_every_schema_table(self, tmp_path):
        """Salvage reads its tables off the fresh journal it builds, so
        a table added to the schema is recovered with no list to keep:
        an intact journal holding a row in every table salvages with a
        ``recovered`` count for each (``meta`` aside: the fresh
        journal's version stamp wins)."""
        path = tmp_path / "every.sqlite"
        with ExperimentJournal(path) as journal:
            campaign = journal.campaign(fingerprint="f", domain="memory",
                                        kind="full-scan", params={},
                                        cycles=9)
            campaign.record_sampler_state(1, "[]")
            campaign.record_event("crc-reject")
            section = journal.section(fingerprint="s", program="p",
                                      domain="memory", first_slot=1,
                                      last_slot=9)
            journal.merge_section_runs([(section, 1, 0, 0, "sdc", "3", "")])
            campaign.link_sections([section])
            journal.flush()
            counts = {
                table: journal._conn.execute(
                    f"SELECT COUNT(*) FROM {table}").fetchone()[0]
                for (table,) in journal._conn.execute(
                    "SELECT name FROM sqlite_master WHERE type='table' "
                    "AND name NOT LIKE 'sqlite_%'").fetchall()}
        assert counts == dict.fromkeys(counts, 1)
        report = salvage_journal(path)
        del counts["meta"]
        assert report.recovered == counts
        assert report.truncated == ()


class TestCorruptJournal:
    def test_default_open_raises_loudly(self, tmp_path, memory_golden):
        path = journal_with_campaign(tmp_path, memory_golden)
        corrupt_pages(path)
        with pytest.raises(JournalCorruptError, match="salvage"):
            ExperimentJournal(path)
        # The refusal is non-destructive: the evidence stays in place.
        assert path.exists()
        assert not path.with_suffix(".sqlite.corrupt").exists()

    def test_salvage_open_recovers_and_archives(self, tmp_path,
                                                memory_golden):
        path = journal_with_campaign(tmp_path, memory_golden)
        corrupt_pages(path)
        with ExperimentJournal(path, salvage=True) as journal:
            report = journal.salvage_report
            assert isinstance(report, SalvageReport)
            assert report.recovered.get("campaigns", 0) >= 1
            assert report.total_rows > 0
        # The corrupt original was moved aside, not destroyed.
        corrupt = path.parent / (path.name + ".corrupt")
        assert corrupt.exists()
        assert report.source == str(corrupt)
        # The rebuilt file is a healthy journal from here on.
        with ExperimentJournal(path) as journal:
            assert journal.salvage_report is None

    def test_healthy_journal_ignores_salvage_flag(self, tmp_path,
                                                  memory_golden):
        path = journal_with_campaign(tmp_path, memory_golden)
        with ExperimentJournal(path, salvage=True) as journal:
            assert journal.salvage_report is None
        assert not (path.parent / (path.name + ".corrupt")).exists()

    def test_a_locked_journal_is_busy_not_corrupt(
            self, tmp_path, monkeypatch, memory_golden):
        """A healthy file whose lock another connection holds is in
        use, not damaged: opening it with ``salvage=True`` raises a
        plain :class:`JournalError` saying to retry, and moves and
        rebuilds nothing."""
        import repro.campaign.journal as journal_mod

        monkeypatch.setattr(journal_mod, "BUSY_TIMEOUT_MS", 50)
        path = journal_with_campaign(tmp_path, memory_golden)

        def rows():
            db = sqlite3.connect(path)
            try:
                return db.execute(
                    "SELECT count(*) FROM section_results").fetchone()[0]
            finally:
                db.close()

        before = rows()
        assert before > 0
        holder = sqlite3.connect(path, isolation_level=None)
        try:
            # WAL readers pass a plain exclusive transaction; an
            # exclusive locking mode and a write keep everyone out.
            holder.execute("PRAGMA locking_mode = EXCLUSIVE")
            holder.execute("BEGIN EXCLUSIVE")
            holder.execute("UPDATE meta SET value = value")
            with pytest.raises(JournalError, match="busy") as busy:
                ExperimentJournal(path, salvage=True)
            assert not isinstance(busy.value, JournalCorruptError)
            assert "salvage" not in str(busy.value)
        finally:
            holder.execute("ROLLBACK")
            holder.close()
        assert not (path.parent / (path.name + ".corrupt")).exists()
        assert rows() == before

    def test_unreadable_garbage_still_raises(self, tmp_path):
        path = tmp_path / "noise.sqlite"
        path.write_bytes(b"this was never a database" * 100)
        with pytest.raises(JournalCorruptError):
            ExperimentJournal(path)

    def test_salvage_then_resume_reaches_exact_result(
            self, tmp_path, memory_golden, memory_baseline):
        """The end-to-end promise: corrupt → salvage → resume equals a
        clean uninterrupted campaign bit for bit."""
        path = journal_with_campaign(tmp_path, memory_golden)
        corrupt_pages(path)
        salvage_journal(path)
        result = run_full_scan(memory_golden, journal=path,
                               keep_records=True)
        assert result == memory_baseline
        assert result.records == memory_baseline.records
        assert result.execution.complete


class TestInvalidClasses:
    """What a resumed or composed class is trusted as: its run from bit
    0 when :func:`_valid_run` passes it, else nothing — the class is
    re-executed.  A class stored in pieces is never stitched together."""

    RUN = ("no-effect sdc no-effect", "1 2 3", "  ")

    @staticmethod
    def _stored(runs) -> dict:
        """The run from bit 0 the store reader gives for the class at
        slot 5, axis 2, stored as ``runs``, ``(first_bit, outcomes,
        end_cycles, traps)`` rows of a section the campaign links."""
        with ExperimentJournal(":memory:") as journal:
            campaign = journal.campaign(
                fingerprint="probe", domain="memory", kind="full-scan",
                params={}, cycles=100)
            section = journal.section(fingerprint="s", program="p",
                                      domain="memory", first_slot=1,
                                      last_slot=100)
            campaign.link_sections([section])
            journal.merge_section_runs([(section, 5, 2, *run)
                                        for run in runs])
            return {(slot, axis): tuple(run)
                    for _, slot, axis, bit, *run in campaign.stored_runs()
                    if bit == 0}

    def test_healthy_classes_pass(self):
        assert _valid_run(self.RUN, 3)
        assert self._stored([(0, *self.RUN)]) == {(5, 2): self.RUN}

    def test_truncated_class_is_flagged(self):
        assert not _valid_run(("no-effect sdc", "1 2", " "), 3)
        # A torn class: its run from bit 0 is short, the rest unread.
        stored = self._stored([(0, "no-effect sdc", "1 2", " "),
                               (2, "no-effect", "3", "")])
        assert stored == {(5, 2): ("no-effect sdc", "1 2", " ")}
        assert not _valid_run(stored[(5, 2)], 3)

    def test_wrong_bit_sequence_is_flagged(self):
        # Per-bit rows: the run from bit 0 holds one bit.
        stored = self._stored([(bit, *(column.split(" ")[bit]
                                       for column in self.RUN))
                               for bit in range(3)])
        assert not _valid_run(stored[(5, 2)], 3)
        # Shifted: no run from bit 0, no class.
        assert self._stored([(1, *self.RUN)]) == {}

    @pytest.mark.parametrize("run", [
        ("bogus sdc no-effect", "1 2 3", "  "),
        ("no-effect sdc no-effect", "1 x6 3", "  "),
        ("no-effect sdc no-effect", "1 2  3", "  "),
        ("no-effect sdc no-effect", "1 2 3", "   "),
    ])
    def test_malformed_values_are_flagged(self, run):
        assert not _valid_run(run, 3)

    @pytest.mark.parametrize("index, value", [(1, "bogus"), (2, "x6")])
    def test_malformed_per_bit_values_are_flagged(self, index, value):
        """A single bit — a sampled experiment, or one composed from a
        stored run — is checked as a run of one."""
        row = ["sdc", "2", ""]
        assert _valid_run(tuple(row), 1)
        row[index - 1] = value
        assert not _valid_run(tuple(row), 1)


@pytest.fixture(scope="module")
def hi_golden():
    return record_golden(hi.baseline())


@pytest.fixture(scope="module")
def hi_baseline(hi_golden):
    return run_full_scan(hi_golden, keep_records=True)


def _spoil_first_value(path, column, value):
    """Overwrite the first value of ``column`` in the first stored class
    with ``value`` — what no build writes — and mark the campaign
    unfinished."""
    conn = sqlite3.connect(path)
    with conn:
        slot, axis, stored = conn.execute(
            f"SELECT slot, axis, {column} FROM section_results "
            f"WHERE bit = 0 ORDER BY slot, axis LIMIT 1").fetchone()
        conn.execute(
            f"UPDATE section_results SET {column} = ? WHERE slot = ? "
            f"AND axis = ? AND bit = 0",
            (" ".join([value, *str(stored).split(" ")[1:]]), slot, axis))
        conn.execute("UPDATE campaigns SET status = 'running'")
    conn.close()


class TestMalformedValuesAreRedone:
    """A stored value no build writes is treated like a lost bit: the
    class is re-executed, never decoded into the result — or into a
    crash."""

    def test_a_bad_outcome_in_a_journaled_class_is_discarded(
            self, tmp_path, hi_golden, hi_baseline):
        path = journal_with_campaign(tmp_path, hi_golden)
        _spoil_first_value(path, "outcome", "bogus")
        result = run_full_scan(hi_golden, journal=path, keep_records=True)
        assert result == hi_baseline
        assert result.records == hi_baseline.records
        assert result.execution.discarded_results == 1
        assert result.execution.complete
        with ExperimentJournal(path) as journal:
            (campaign,) = journal.fabric_report()
        assert [event["kind"] for event in campaign["events"]] \
            == ["salvage-prune"]

    def test_a_bad_end_cycle_in_a_section_row_does_not_compose(
            self, tmp_path, hi_golden, hi_baseline):
        path = journal_with_campaign(tmp_path, hi_golden)
        _spoil_first_value(path, "end_cycle", "x6")
        result = run_full_scan(hi_golden, journal=path, resume=False,
                               keep_records=True)
        assert result == hi_baseline
        assert result.records == hi_baseline.records
        assert result.execution.executed == 1
        assert result.execution.composed_hits \
            == hi_baseline.experiments_conducted - hi_baseline.domain.bits


    def test_a_class_outside_the_partition_is_left_alone(
            self, tmp_path, hi_golden, hi_baseline):
        """A row at a coordinate no class of this campaign has — another
        campaign's class in a shared section — is neither trusted nor
        discarded."""
        path = journal_with_campaign(tmp_path, hi_golden)
        conn = sqlite3.connect(path)
        with conn:
            conn.execute(
                "INSERT INTO section_results SELECT section_id, slot, 999, "
                "bit, outcome, end_cycle, trap FROM section_results "
                "ORDER BY section_id, slot, axis LIMIT 1")
            conn.execute("UPDATE campaigns SET status = 'running'")
        conn.close()
        result = run_full_scan(hi_golden, journal=path, keep_records=True)
        assert result == hi_baseline
        assert result.execution.discarded_results == 0
        assert result.execution.executed == 0
        conn = sqlite3.connect(path)
        assert conn.execute("SELECT COUNT(*) FROM section_results WHERE "
                            "axis = 999").fetchone()[0] == 1
        conn.close()


class TestSampledResumeValidatesExperiments:
    """A sampled experiment is trusted on resume only as a valid run of
    one, like a scan's class: a journaled outcome
    no build wrote is discarded and re-executed, never dropped
    silently."""

    def test_a_bad_outcome_is_discarded_and_redone(self, tmp_path,
                                                   hi_golden):
        baseline = run_sampling(hi_golden, 64, seed=7, sampler="live-only")
        path = tmp_path / "sampled.sqlite"
        run_sampling(hi_golden, 64, seed=7, sampler="live-only",
                     journal=path)
        conn = sqlite3.connect(path)
        with conn:
            conn.execute(
                "UPDATE section_results SET outcome = 'bogus' WHERE "
                "(section_id, slot, axis, bit) = (SELECT section_id, slot, "
                "axis, bit FROM section_results ORDER BY 1, 2, 3, 4 "
                "LIMIT 1)")
            conn.execute("UPDATE campaigns SET status = 'running'")
        conn.close()
        result = run_sampling(hi_golden, 64, seed=7, sampler="live-only",
                              journal=path)
        assert result == baseline
        assert result.execution.discarded_results == 1
        with ExperimentJournal(path) as journal:
            (campaign,) = journal.fabric_report()
        assert [event["kind"] for event in campaign["events"]] \
            == ["salvage-prune"]


class TestEveryTransportPrunesPartialClasses:
    """The rule lives in the pipeline's prologue, so it holds however
    the campaign resumes: in-process or over the fabric."""

    @pytest.mark.parametrize("transport", [None, 1, 2, "dist"])
    def test_truncated_class_is_discarded_and_redone(
            self, transport, tmp_path, memory_golden, memory_baseline):
        path = journal_with_campaign(tmp_path, memory_golden)
        # Tear one stored class — its outcomes lose their tail, its end
        # cycles and traps do not — in a campaign that had not finished.
        truncate_first_class(path, keep=5, columns=1)
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("UPDATE campaigns SET status = 'running'")
        conn.close()
        if transport == "dist":
            result = run_distributed_scan(memory_golden, workers=1,
                                          journal=path, keep_records=True)
        else:
            result = run_full_scan(memory_golden, jobs=transport,
                                   journal=path, keep_records=True)
        assert result == memory_baseline
        assert result.records == memory_baseline.records
        assert result.weighted_failure_count() \
            == memory_baseline.weighted_failure_count()
        assert result.execution.discarded_results == 1
        assert result.execution.complete

    @pytest.mark.parametrize("transport", [None, 2])
    def test_a_short_class_is_redone_and_replaced(
            self, transport, tmp_path, memory_golden, memory_baseline):
        """A class stored shorter than it is, every column alike (a
        sampled campaign's bit 0), is not used and not discarded: the
        class re-executes and its whole run replaces the short one."""
        path = journal_with_campaign(tmp_path, memory_golden)
        truncate_first_class(path, keep=5)
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("UPDATE campaigns SET status = 'running'")
        conn.close()
        result = run_full_scan(memory_golden, jobs=transport, journal=path,
                               keep_records=True)
        assert result == memory_baseline
        assert result.records == memory_baseline.records
        assert (result.execution.executed,
                result.execution.discarded_results) == (1, 0)
        again = run_full_scan(memory_golden, journal=path)
        assert again.execution.executed == 0


class TestDistPrunesPartialClasses:
    def test_partial_resumed_class_is_discarded_and_reexecuted(
            self, tmp_path, memory_golden, memory_baseline):
        """A salvaged journal can hold a class missing its tail rows.
        The distributed coordinator must catch it at resume, discard
        it, and re-execute — silently merging it would undercount that
        class's outcomes forever."""
        path = journal_with_campaign(tmp_path, memory_golden)
        # Surgically tear one stored class: drop the last bits of its
        # outcomes, not of its end cycles and traps.
        truncate_first_class(path, keep=1, columns=1)
        result, _, _ = run_dist(memory_golden, journal=path)
        execution = result.execution
        assert execution.discarded_results >= 1
        assert execution.complete
        assert result == memory_baseline
        with ExperimentJournal(path) as journal:
            (entry,) = journal.fabric_report()
        assert any(event["kind"] == "salvage-prune"
                   for event in entry["events"])
