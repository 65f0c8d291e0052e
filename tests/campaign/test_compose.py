"""Compositional result store: warm campaigns equal cold ones bit for bit.

The section store's contract is *composition soundness*: results
composed from cached sections are indistinguishable from re-executed
ones — same outcome dicts, same records, same journal rows, same CSV
bytes — across fault domains, execution engines, serial/parallel/dist
runners and full-scan/sampling styles.  These tests also pin the store's
schema-version behaviour (any other version stamp is refused with a
clear error, the file untouched).
"""

import sqlite3

import pytest

from repro.campaign import (
    ExecutorConfig,
    ExperimentJournal,
    JournalError,
    export_class_results_csv,
    record_golden,
    run_brute_force,
    run_full_scan,
    run_sampling,
)
from repro.campaign import compose as compose_mod
from repro.campaign.journal import SCHEMA_VERSION, CampaignJournal
from repro.campaign.outcomes import OUTCOME_BY_VALUE
from repro.campaign.runner import SamplingStyle, ScanStyle
from repro.campaign.salvage import salvage_journal, schema_tables
from repro.cli import main
from repro.faultspace import build_section_map, get_domain
from repro.isa.assembler import assemble
from repro.programs import micro

from .journal_rows import (
    class_experiments,
    per_bit_rows,
    truncate_first_class,
)

SECTION_TABLES = ("section_results", "campaign_sections", "sections")


@pytest.fixture(scope="module")
def golden():
    return record_golden(micro.counter(3))


def _result_rows(path) -> list[tuple]:
    """Every ``section_results`` row of a journal file, in key order."""
    conn = sqlite3.connect(path)
    rows = conn.execute(
        "SELECT * FROM section_results ORDER BY 1, 2, 3, 4").fetchall()
    conn.close()
    return rows


def _experiments(result) -> int:
    """Total experiments of a full scan, summed per live class (the
    per-class count is domain-dependent: 8 bits for memory, one grouped
    representative for pc, ...)."""
    return sum(result.domain.experiment_count(interval)
               for interval in result.partition.live_classes())


def _assert_refused(path, golden, version: int, capsys) -> None:
    """The journal file ``path``, stamped ``version``, is refused by
    the journal, by a journaled scan and by ``repro journal`` — each
    naming both schema versions — and its bytes stay as they were."""
    before = path.read_bytes()
    message = (f"schema version {version}, this build expects "
               f"{SCHEMA_VERSION}")
    with pytest.raises(JournalError, match=message):
        ExperimentJournal(path)
    with pytest.raises(JournalError, match=message):
        run_full_scan(golden, journal=path)
    with pytest.raises(SystemExit) as exit_:
        main(["journal", "--journal", str(path)])
    assert str(exit_.value).startswith("repro: ")
    assert message in str(exit_.value)
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == before


class TestWarmEqualsCold:
    @pytest.mark.parametrize(
        "domain", ["memory", "register", "burst2", "stuck", "pc"])
    @pytest.mark.parametrize("jobs", [None, 2])
    def test_full_scan_composes_bit_for_bit(self, tmp_path, golden,
                                            domain, jobs):
        journal = tmp_path / "journal.sqlite"
        cold = run_full_scan(golden, domain=domain, jobs=jobs,
                             journal=journal, keep_records=True)
        warm = run_full_scan(golden, domain=domain, jobs=jobs,
                             journal=journal, resume=False,
                             keep_records=True)
        assert warm == cold
        assert warm.execution.executed == 0
        assert warm.execution.composed_hits == _experiments(cold)

    @pytest.mark.parametrize("engine", ["compiled", "interp"])
    def test_store_is_engine_independent(self, tmp_path, golden,
                                         engine):
        """A store written by the compiled engine composes campaigns run
        by any engine — fingerprints never mention the engine because
        all engines are outcome- and end-cycle-identical."""
        journal = tmp_path / "journal.sqlite"
        cold = run_full_scan(golden, journal=journal, keep_records=True,
                             config=ExecutorConfig(engine="compiled"))
        warm = run_full_scan(golden, journal=journal, resume=False,
                             keep_records=True,
                             config=ExecutorConfig(engine=engine))
        assert warm == cold
        assert warm.execution.executed == 0
        assert warm.execution.composed_hits > 0

    def test_composed_csv_export_is_byte_identical(self, tmp_path,
                                                   golden):
        journal = tmp_path / "journal.sqlite"
        cold = run_full_scan(golden, journal=journal)
        warm = run_full_scan(golden, journal=journal, resume=False)
        cold_csv = tmp_path / "cold.csv"
        warm_csv = tmp_path / "warm.csv"
        export_class_results_csv(cold, cold_csv)
        export_class_results_csv(warm, warm_csv)
        assert warm_csv.read_bytes() == cold_csv.read_bytes()

    def test_composed_campaign_journal_rows_match(self, tmp_path,
                                                  golden):
        """The warm campaign reads the rows the cold one stored and
        writes none: the result table is as the cold campaign left
        it."""
        journal = tmp_path / "journal.sqlite"
        cold = run_full_scan(golden, journal=journal)
        cold_rows = _result_rows(journal)
        run_full_scan(golden, journal=journal, resume=False)
        conn = sqlite3.connect(journal)
        campaigns = [row[0] for row in conn.execute(
            "SELECT id FROM campaigns ORDER BY id")]
        conn.close()
        assert len(campaigns) == 1  # same identity: cleared, relinked
        assert _result_rows(journal) == cold_rows
        assert sum(class_experiments(journal).values()) \
            == _experiments(cold)

    def test_sampling_composes_from_full_scan_store(self, tmp_path,
                                                    golden):
        """Sampled campaigns share the store with full scans: a warm
        sampling run composes every sampled experiment the scan already
        executed."""
        journal = tmp_path / "journal.sqlite"
        scan = run_full_scan(golden, journal=journal)
        reference = run_sampling(golden, 30, seed=7)
        warm = run_sampling(golden, 30, seed=7, journal=journal)
        assert warm == reference
        assert warm.execution.composed_hits > 0
        assert warm.execution.composed_hits \
            == warm.experiments_conducted
        del scan

    def test_dist_scan_composes_from_serial_store(self, tmp_path,
                                                  golden):
        from repro.campaign.dist import run_distributed_scan

        journal = tmp_path / "journal.sqlite"
        cold = run_full_scan(golden, journal=journal, keep_records=True)
        warm = run_distributed_scan(golden, workers=2, journal=journal,
                                    resume=False, keep_records=True)
        assert warm == cold
        assert warm.execution.executed == 0
        assert warm.execution.composed_hits == _experiments(cold)

    def test_brute_force_ignores_the_store(self, tmp_path, golden):
        """Brute force opens no journal, so a filled section store can
        neither feed nor hide a pruning error: a scan composed wholly
        from the store still matches the ground truth coordinate by
        coordinate."""
        journal = tmp_path / "journal.sqlite"
        run_full_scan(golden, journal=journal)
        brute = run_brute_force(golden)
        scan = run_full_scan(golden, journal=journal, resume=False)
        for coord, outcome in brute.outcomes.items():
            assert scan.outcome_of(coord) == outcome


class TestCrossProgramComposition:
    def test_only_the_changed_section_re_executes(self, tmp_path):
        """Mutate the entry block (commutative operand swap): the
        variant's campaign composes every class owned by the unchanged
        sections and re-executes exactly the first section's classes."""
        template = """\
        .data
count:  .word 0
        .text
start:  add  r4, {a}, {b}
loop:   lw   r1, count(zero)
        addi r1, r1, 1
        sw   r1, count(zero)
        addi r4, r4, 1
        slti r2, r4, 3
        bnez r2, loop
        lw   r1, count(zero)
        out  r1
        halt
"""
        golden_a = record_golden(assemble(
            template.format(a="r5", b="r6"), name="swap-a", ram_size=4))
        golden_b = record_golden(assemble(
            template.format(a="r6", b="r5"), name="swap-b", ram_size=4))
        journal = tmp_path / "journal.sqlite"
        run_full_scan(golden_a, journal=journal)
        reference = run_full_scan(golden_b, keep_records=True)
        warm = run_full_scan(golden_b, journal=journal,
                             keep_records=True)
        assert warm == reference
        first = build_section_map(golden_b).sections[0]
        changed = [interval
                   for interval in warm.partition.live_classes()
                   if interval.injection_slot <= first.last_slot]
        assert warm.execution.executed == len(changed)
        assert warm.execution.resumed \
            == warm.execution.total_units - len(changed)
        assert warm.execution.composed_hits \
            == warm.execution.resumed * warm.domain.bits


class TestScanAndSampleShareSections:
    """A full scan and a sampled campaign of one program share its
    sections: whichever runs first, the other recomposes from the rows
    it stored, and both resume afterwards with nothing executed."""

    SAMPLES = dict(n_samples=60, seed=11, sampler="live-only")

    def test_scan_then_sample(self, tmp_path, golden):
        journal = tmp_path / "journal.sqlite"
        scan = run_full_scan(golden, journal=journal, keep_records=True)
        reference = run_sampling(golden, **self.SAMPLES)
        sampled = run_sampling(golden, journal=journal, **self.SAMPLES)
        assert sampled == reference
        assert sampled.execution.executed == 0
        assert sampled.execution.composed_hits \
            == reference.experiments_conducted
        again = run_sampling(golden, journal=journal, **self.SAMPLES)
        assert again == reference
        assert (again.execution.executed, again.execution.composed_hits) \
            == (0, 0)
        rescanned = run_full_scan(golden, journal=journal, resume=False,
                                  keep_records=True)
        assert rescanned == scan
        assert rescanned.execution.executed == 0

    def test_sample_then_scan(self, tmp_path, golden):
        """The sampled campaign stores single bits only, so the scan
        re-executes every class (its whole run replaces a sampled bit
        0), and then the sampled campaign still resumes from what it
        and the scan stored."""
        journal = tmp_path / "journal.sqlite"
        reference = run_sampling(golden, **self.SAMPLES)
        plain = run_full_scan(golden, keep_records=True)
        sampled = run_sampling(golden, journal=journal, **self.SAMPLES)
        assert sampled == reference
        scan = run_full_scan(golden, journal=journal, keep_records=True)
        assert scan == plain
        assert scan.records == plain.records
        report = scan.execution
        assert report.executed == report.total_units
        assert (report.composed_hits, report.discarded_results) == (0, 0)
        # Each class is now one whole run from bit 0.
        assert sorted(class_experiments(journal).values()) \
            == sorted(_experiments_by_class(plain))
        for resume in (True, False):
            again = run_sampling(golden, journal=journal, resume=resume,
                                 **self.SAMPLES)
            assert again == reference
            assert again.execution.executed == 0
        assert run_full_scan(golden, journal=journal).execution.executed \
            == 0


def _experiments_by_class(result) -> list[int]:
    """Each live class's experiment count."""
    return [result.domain.experiment_count(interval)
            for interval in result.partition.live_classes()]


class TestSchemaMigration:
    def test_v1_journal_is_refused_untouched(self, tmp_path, golden,
                                             capsys):
        """A journal written before the section store existed (schema
        v1) holds rows a row per bit: refused like a newer one, and
        left exactly as it was."""
        journal = tmp_path / "journal.sqlite"
        run_full_scan(golden, journal=journal)
        conn = sqlite3.connect(journal)
        for table in SECTION_TABLES:
            conn.execute(f"DROP TABLE {table}")
        conn.execute("UPDATE meta SET value = '1' "
                     "WHERE key = 'schema_version'")
        conn.commit()
        conn.close()
        _assert_refused(journal, golden, 1, capsys)

    def test_newer_schema_is_rejected_with_clear_error(self, tmp_path,
                                                       golden):
        journal = tmp_path / "journal.sqlite"
        run_full_scan(golden, journal=journal)
        conn = sqlite3.connect(journal)
        conn.execute("UPDATE meta SET value = '999' "
                     "WHERE key = 'schema_version'")
        conn.commit()
        conn.close()
        with pytest.raises(JournalError, match="schema version"):
            run_full_scan(golden, journal=journal)

    def test_unreadable_version_is_rejected(self, tmp_path, golden):
        journal = tmp_path / "journal.sqlite"
        run_full_scan(golden, journal=journal)
        conn = sqlite3.connect(journal)
        conn.execute("UPDATE meta SET value = 'not-a-number' "
                     "WHERE key = 'schema_version'")
        conn.commit()
        conn.close()
        with pytest.raises(JournalError, match="schema version"):
            run_full_scan(golden, journal=journal)


class TestStoreMaintenance:
    def test_gc_drops_only_orphaned_sections(self, tmp_path, golden):
        journal = tmp_path / "journal.sqlite"
        run_full_scan(golden, journal=journal)
        with ExperimentJournal(journal) as handle:
            assert handle.gc_sections() == 0  # all linked
            before = len(handle.sections())
            assert before > 0
            # Sever the links (what dropping a campaign would do) and
            # the sections become collectable.
            handle._conn.execute("DELETE FROM campaign_sections")
            handle._conn.commit()
            assert handle.gc_sections() == before
            assert handle.sections() == []
            assert handle.size_report()["section_results"] == 0


def _store_rows(path) -> dict[str, list[tuple]]:
    """Every row of the three section-store tables, in key order."""
    conn = sqlite3.connect(path)
    try:
        return {table: conn.execute(
                    f"SELECT * FROM {table} ORDER BY 1, 2").fetchall()
                for table in ("sections", "campaign_sections",
                              "section_results")}
    finally:
        conn.close()


@pytest.fixture
def section_maps(monkeypatch):
    """The golden runs the section composer built a map for."""
    built = []
    real = compose_mod.build_section_map

    def counting(golden, *args, **kwargs):
        built.append(golden)
        return real(golden, *args, **kwargs)

    monkeypatch.setattr(compose_mod, "build_section_map", counting)
    return built


class TestCompleteResumeComposesNothing:
    """A resume the journal holds whole builds no composer: no section
    map, no interning, no links — the store stays as the run left it."""

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_complete_scan_resume_builds_no_section_map(
            self, tmp_path, golden, section_maps, jobs):
        journal = tmp_path / "journal.sqlite"
        cold = run_full_scan(golden, journal=journal)
        assert len(section_maps) == 1
        stored = _store_rows(journal)
        warm = run_full_scan(golden, journal=journal, jobs=jobs)
        assert warm == cold
        assert warm.execution.executed == 0
        assert warm.execution.resumed == warm.execution.total_units
        assert len(section_maps) == 1  # the cold run's only
        assert _store_rows(journal) == stored
        with ExperimentJournal(journal) as handle:
            # gc frees what it freed after the cold run: nothing while
            # the campaign links its sections, all of them once severed.
            assert handle.gc_sections() == 0
            sections = len(handle.sections())
            handle._conn.execute("DELETE FROM campaign_sections")
            handle._conn.commit()
            assert handle.gc_sections() == sections

    def test_complete_sampling_resume_builds_no_section_map(
            self, tmp_path, golden, section_maps):
        journal = tmp_path / "journal.sqlite"
        cold = run_sampling(golden, 40, seed=5, journal=journal)
        stored = _store_rows(journal)
        warm = run_sampling(golden, 40, seed=5, journal=journal)
        assert warm.samples == cold.samples
        assert warm.execution.executed == 0
        assert len(section_maps) == 1
        assert _store_rows(journal) == stored

    def test_partial_resume_still_composes(self, tmp_path, golden,
                                           section_maps):
        """A resume with work left reads the campaign's linked sections
        as a complete one does — no section map — and re-executes only
        the class stored short, whose whole run then replaces it."""
        journal = tmp_path / "journal.sqlite"
        cold = run_full_scan(golden, journal=journal)
        truncate_first_class(journal, keep=5)
        warm = run_full_scan(golden, journal=journal)
        assert warm == cold
        assert len(section_maps) == 1
        report = warm.execution
        assert (report.discarded_results, report.executed,
                report.composed_hits) == (0, 1, 0)
        assert report.resumed == report.total_units - 1
        assert run_full_scan(golden, journal=journal).execution.executed \
            == 0

    def test_fresh_rerun_still_composes(self, tmp_path, golden,
                                        section_maps):
        journal = tmp_path / "journal.sqlite"
        cold = run_full_scan(golden, journal=journal)
        warm = run_full_scan(golden, journal=journal, resume=False)
        assert warm == cold
        assert len(section_maps) == 2
        assert warm.execution.composed_hits == _experiments(cold)


#: The result table a fresh journal clusters.
RESULT_TABLES = ("section_results",)

#: The result table as every build before the clustered layout created
#: it: a rowid table, the key a separate automatic index.  Those builds
#: also journaled brute-force scans in ``coordinate_results``; this build
#: neither creates nor reads that table, and a file that has one keeps
#: it.
ROWID_DDL = """
CREATE TABLE coordinate_results (
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
    slot        INTEGER NOT NULL,
    axis        INTEGER NOT NULL,
    bit         INTEGER NOT NULL,
    outcome     TEXT NOT NULL,
    PRIMARY KEY (campaign_id, slot, axis, bit)
);
CREATE TABLE section_results (
    section_id INTEGER NOT NULL REFERENCES sections(id),
    slot       INTEGER NOT NULL,
    axis       INTEGER NOT NULL,
    bit        INTEGER NOT NULL,
    outcome    TEXT NOT NULL,
    end_cycle  INTEGER NOT NULL DEFAULT 0,
    trap       TEXT NOT NULL DEFAULT '',
    PRIMARY KEY (section_id, slot, axis, bit)
);
"""


def _old_layout_file(path):
    """An empty journal-to-be whose result tables are rowid tables:
    ``CREATE TABLE IF NOT EXISTS`` will leave them as they are."""
    conn = sqlite3.connect(path)
    conn.executescript(ROWID_DDL)
    conn.close()
    return path


def _clustered(path) -> list[str]:
    """The result tables of a journal file stored ``WITHOUT ROWID``."""
    conn = sqlite3.connect(path)
    ddl = dict(conn.execute(
        "SELECT name, sql FROM sqlite_master WHERE type = 'table'"))
    conn.close()
    return [table for table in RESULT_TABLES
            if "WITHOUT ROWID" in ddl[table]]


class TestTableLayout:
    """Result tables are clustered on their key; a file whose tables an
    older build created as rowid tables keeps working unchanged."""

    @pytest.fixture()
    def journals(self, tmp_path, golden):
        """``(old, new, cold)``: the same journaled scan in a rowid-
        layout file and in a fresh one, and its result."""
        old = _old_layout_file(tmp_path / "old.sqlite")
        new = tmp_path / "new.sqlite"
        cold = run_full_scan(golden, journal=old, keep_records=True)
        assert run_full_scan(golden, journal=new, keep_records=True) == cold
        return old, new, cold

    def test_fresh_file_is_clustered_old_file_left_alone(self, journals):
        old, new, _ = journals
        assert _clustered(new) == list(RESULT_TABLES)
        assert _clustered(old) == []

    def test_both_layouts_hold_the_same_rows(self, journals):
        old, new, _ = journals
        for table in RESULT_TABLES:
            rows = []
            for path in (old, new):
                conn = sqlite3.connect(path)
                rows.append(conn.execute(
                    f"SELECT * FROM {table} ORDER BY 1, 2, 3, 4").fetchall())
                conn.close()
            assert rows[0] == rows[1] != []

    @pytest.mark.parametrize("resume", [True, False])
    def test_old_layout_resumes_and_composes(self, journals, golden,
                                             resume):
        old, new, cold = journals
        results = [run_full_scan(golden, journal=path, resume=resume,
                                 keep_records=True)
                   for path in (old, new)]
        for result in results:
            assert result == cold
            assert result.execution.executed == 0
            assert result.execution.composed_hits \
                == (0 if resume else _experiments(cold))
        assert _clustered(old) == []

    def test_old_layout_lists_like_the_new_one(self, journals, capsys):
        listings = []
        for path in journals[:2]:
            assert main(["journal", "--journal", str(path)]) == 0
            out = capsys.readouterr().out.replace(str(path), "<journal>")
            sized = [line for line in out.splitlines() if "bytes" in line]
            assert len(sized) == 2  # file size, bytes per stored row
            listings.append([line for line in out.splitlines()
                             if line not in sized])
        assert listings[0] == listings[1]
        assert any("stored result(s)" in line for line in listings[0])

    def test_salvage_rebuilds_the_old_layout_clustered(self, journals,
                                                       golden):
        old, new, cold = journals
        reports = [salvage_journal(path) for path in (old, new)]
        assert reports[0].recovered == reports[1].recovered
        assert reports[0].truncated == reports[1].truncated == ()
        for path in (old, new):
            assert _clustered(path) == list(RESULT_TABLES)
            resumed = run_full_scan(golden, journal=path,
                                    keep_records=True)
            assert resumed == cold
            assert resumed.execution.executed == 0
        assert _clustered(str(old) + ".corrupt") \
            == []


#: The result tables as a version-3 build created them, per layout:
#: ``end_cycle`` of INTEGER affinity, and ``CREATE TABLE IF NOT EXISTS``
#: leaves them so.
#: The ``summaries`` table a version-3 build created, with a row in it:
#: this build never reads it and leaves it as it finds it.
SUMMARIES_DDL = """
CREATE TABLE summaries (
    fingerprint TEXT NOT NULL,
    domain      TEXT NOT NULL,
    name        TEXT NOT NULL DEFAULT '',
    summary     TEXT NOT NULL,
    PRIMARY KEY (fingerprint, domain)
);
INSERT INTO summaries VALUES ('0123456789ab', 'memory', 'counter', '{}');
"""

#: The per-campaign class table a version-3 build kept beside the
#: section store.
CLASS_DDL = """
CREATE TABLE class_results (
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
    axis        INTEGER NOT NULL,
    first_slot  INTEGER NOT NULL,
    bit         INTEGER NOT NULL,
    outcome     TEXT NOT NULL,
    end_cycle   INTEGER NOT NULL DEFAULT 0,
    trap        TEXT NOT NULL DEFAULT '',
    PRIMARY KEY (campaign_id, axis, first_slot, bit)
);
"""

V3_DDL = {"rowid": CLASS_DDL + ROWID_DDL + SUMMARIES_DDL,
          "clustered": (CLASS_DDL + ROWID_DDL).replace(
              "\n);", "\n) WITHOUT ROWID;") + SUMMARIES_DDL}


def _v3_file(path, source, layout):
    """The journal a version-3 build leaves after the campaigns
    ``source`` holds: that build's tables, a result row inserted per
    bit in both result tables, stamped 3."""
    conn = sqlite3.connect(path)
    conn.executescript(V3_DDL[layout])
    conn.close()
    ExperimentJournal(path).close()  # every other table, as v3 had it
    with ExperimentJournal(source) as journal:
        tables = schema_tables(journal._conn)
        runs = {row[:4]: row[4:] for entry in journal.campaigns()
                for row in CampaignJournal(
                    journal, entry["id"]).stored_runs()}
    section_rows = [(section_id, slot, axis, *row)
                    for (section_id, slot, axis, bit), run in runs.items()
                    for row in per_bit_rows(run, bit)]
    # The class table's copy, keyed by injection slot for want of the
    # class's first slot: this build never reads it.
    class_rows = [(1, axis, slot, *row) for _, slot, axis, *row
                  in section_rows]
    conn = sqlite3.connect(path)
    with conn:
        conn.execute("ATTACH DATABASE ? AS source", (str(source),))
        for table, columns in tables:
            if table not in ("meta", "class_results", "section_results"):
                names = ", ".join(columns)
                conn.execute(f"INSERT INTO {table} ({names}) SELECT "
                             f"{names} FROM source.{table}")
        marks = ", ".join("?" * 7)
        conn.executemany(f"INSERT INTO class_results VALUES ({marks})",
                         class_rows)
        conn.executemany(f"INSERT INTO section_results VALUES ({marks})",
                         section_rows)
        conn.execute("UPDATE meta SET value = '3' "
                     "WHERE key = 'schema_version'")
    conn.execute("DETACH DATABASE source")
    conn.close()
    return path


def _listing(command, path, capsys) -> list[str]:
    """``repro <command> --journal path`` output, path and byte counts
    left out."""
    main([command, "--journal", str(path)])
    return [line for line in capsys.readouterr().out.replace(
        str(path), "<journal>").splitlines() if "bytes" not in line]


def _stamp(path, version: int) -> None:
    conn = sqlite3.connect(path)
    with conn:
        conn.execute("UPDATE meta SET value = ? WHERE key = "
                     "'schema_version'", (str(version),))
    conn.close()


class TestVersion3Journal:
    """A file a version-3 build wrote — a result row per bit, in either
    table layout — is refused as it stands.  Stamped 5 by hand, it
    opens, lists, resumes, composes and salvages: a class of more than
    one bit is not one stored run from bit 0 — its bit-0 row is shorter
    than the class — so it is re-executed, its whole run replaces that
    row, and the result is the cold one bit for bit.  The version-3
    class table is never read."""

    @pytest.fixture(params=["memory", "register", "pc"])
    def domain(self, request):
        return request.param

    @pytest.fixture()
    def journals(self, tmp_path, golden, domain):
        """``(v5, cold)``: one scan journaled by this build, and its
        result."""
        v4 = tmp_path / "v4.sqlite"
        cold = run_full_scan(golden, domain=domain, journal=v4,
                             keep_records=True)
        return v4, cold

    @staticmethod
    def _multi_bit(cold) -> int:
        """Live classes of more than one experiment."""
        return sum(cold.domain.experiment_count(interval) > 1
                   for interval in cold.partition.live_classes())

    def test_a_file_stamped_3_is_refused_untouched(self, tmp_path, golden,
                                                   journals, capsys):
        v3 = _v3_file(tmp_path / "v3.sqlite", journals[0], "rowid")
        _assert_refused(v3, golden, 3, capsys)

    @pytest.mark.parametrize("layout", ["clustered", "rowid"])
    def test_opens_lists_resumes_composes_and_salvages(
            self, tmp_path, golden, domain, journals, layout, capsys):
        v5, cold = journals
        v3 = _v3_file(tmp_path / "v3.sqlite", v5, layout)
        _stamp(v3, SCHEMA_VERSION)
        conn = sqlite3.connect(v3)
        assert conn.execute(
            "SELECT COUNT(*) FROM section_results").fetchone()[0] \
            == _experiments(cold)
        conn.close()
        assert _listing("journal", v3, capsys) \
            == _listing("journal", v5, capsys)
        multi = self._multi_bit(cold)
        resumed = run_full_scan(golden, domain=domain, journal=v3,
                                keep_records=True)
        assert resumed == cold
        assert resumed.records == cold.records
        assert resumed.execution.executed == multi
        assert resumed.execution.discarded_results == 0
        assert resumed.execution.resumed \
            == resumed.execution.total_units - multi
        assert resumed.execution.composed_hits == 0
        # The re-executed classes were stored whole, into the version-3
        # table, and now compose from it.
        for resume in (False, True):
            warm = run_full_scan(golden, domain=domain, journal=v3,
                                 resume=resume, keep_records=True)
            assert warm == cold
            assert warm.execution.executed == 0
            assert warm.execution.composed_hits \
                == (0 if resume else _experiments(cold))
        salvage_journal(v3)
        assert _clustered(v3) == list(RESULT_TABLES)
        salvaged = run_full_scan(golden, domain=domain, journal=v3,
                                 keep_records=True)
        assert salvaged == cold
        assert salvaged.execution.executed == 0

    @pytest.mark.parametrize("domain", ["memory", "register"])
    def test_a_class_missing_a_bit_is_redone(self, tmp_path, golden,
                                              domain, journals):
        """A salvaged version-3 file can hold a class with a bit lost
        from its middle: re-executed, like every class stored a row per
        bit, and never composed from its section rows."""
        v5, cold = journals
        v3 = _v3_file(tmp_path / "v3.sqlite", v5, "clustered")
        _stamp(v3, SCHEMA_VERSION)
        conn = sqlite3.connect(v3)
        with conn:
            slot, axis = conn.execute(
                "SELECT slot, axis FROM section_results "
                "ORDER BY slot, axis LIMIT 1").fetchone()
            conn.execute("DELETE FROM section_results WHERE slot = ? AND "
                         "axis = ? AND bit = 3", (slot, axis))
        conn.close()
        resumed = run_full_scan(golden, domain=domain, journal=v3,
                                keep_records=True)
        assert resumed == cold
        assert resumed.execution.executed == self._multi_bit(cold)
        assert resumed.execution.discarded_results == 0
        assert resumed.execution.composed_hits == 0


class TestPartialClassesNeverCompose:
    """A class composes only from exactly its bits ``0 … n − 1``."""

    @staticmethod
    def _first_class(cold):
        """``(interval, slot, axis, bits)`` of the first live class."""
        interval = cold.partition.live_classes()[0]
        return (interval, interval.injection_slot,
                cold.domain.axis_of(interval),
                cold.domain.experiment_count(interval))

    @staticmethod
    def _stored(journal, slot, axis):
        """The class's stored experiments ``(section_id, bit, outcome,
        end_cycle, trap)``, each bit once, from the first run in key
        order that holds it."""
        conn = sqlite3.connect(journal)
        runs = conn.execute(
            "SELECT section_id, bit, outcome, end_cycle, trap FROM "
            "section_results WHERE slot = ? AND axis = ? ORDER BY bit",
            (slot, axis)).fetchall()
        conn.close()
        rows = {}
        for section_id, bit, *run in runs:
            for row in per_bit_rows([str(column) for column in run], bit):
                rows.setdefault(row[0], (section_id, *row))
        return list(rows.values())

    @pytest.mark.parametrize("domain, bits", [("memory", 8),
                                              ("register", 32)])
    @pytest.mark.parametrize("which", ["first", "middle", "last"])
    def test_missing_bit_re_executes_the_class_whole(
            self, tmp_path, golden, domain, bits, which):
        journal = tmp_path / "journal.sqlite"
        cold = run_full_scan(golden, domain=domain, journal=journal,
                             keep_records=True)
        interval, slot, axis, count = self._first_class(cold)
        assert count == bits
        missing = {"first": 0, "middle": bits // 2, "last": bits - 1}[which]
        stored = self._stored(journal, slot, axis)
        assert [row[1] for row in stored] == list(range(bits))
        # The class as a version-3 build stored it — a row per bit —
        # less one bit.
        conn = sqlite3.connect(journal)
        with conn:
            conn.execute("DELETE FROM section_results WHERE slot = ? AND "
                         "axis = ?", (slot, axis))
            conn.executemany(
                "INSERT INTO section_results (section_id, slot, axis, bit, "
                "outcome, end_cycle, trap) VALUES (?, ?, ?, ?, ?, ?, ?)",
                [(section_id, slot, axis, bit, outcome, end_cycle, trap)
                 for section_id, bit, outcome, end_cycle, trap in stored
                 if bit != missing])
        conn.close()

        # The sampled style still reads single bits of the partial
        # class: every stored one, not the missing one; the scan reads
        # no class.
        dom = get_domain(domain)
        sampled = SamplingStyle(golden, dom, 1, 0, "live-only")
        key = dom.class_key(interval)
        sampled.units = {(*key, bit): ((*key, bit),
                                       dom.experiment_coordinate(interval,
                                                                 bit))
                         for bit in range(bits)}
        with ExperimentJournal(journal) as handle:
            (entry,) = handle.campaigns()
            rows = CampaignJournal(handle, entry["id"]).stored_runs()
        assert key not in ScanStyle(golden, dom).match(rows)[0]
        kept, _, bad, _ = sampled.match(rows)
        assert bad == []
        assert kept == {(*key, bit): OUTCOME_BY_VALUE[outcome]
                        for _, bit, outcome, _, _ in stored
                        if bit != missing}

        warm = run_full_scan(golden, domain=domain, journal=journal,
                             resume=False, keep_records=True)
        assert warm == cold
        assert warm.execution.executed == 1
        assert warm.execution.composed_hits == _experiments(cold) - bits
        # Re-executing stored the class whole again.
        assert self._stored(journal, slot, axis) == stored

    def test_shifted_and_superset_bits_do_not_compose(self, tmp_path,
                                                      golden):
        """``n`` stored bits ``1 … n`` are not the class, and neither is
        a run of ``n + 1`` bits from bit 0; the class's run from bit 0,
        which re-executing the shifted class stores, is."""
        journal = tmp_path / "journal.sqlite"
        cold = run_full_scan(golden, journal=journal, keep_records=True)
        _, slot, axis, bits = self._first_class(cold)

        def spoil(sql):
            conn = sqlite3.connect(journal)
            with conn:
                conn.execute(sql + " WHERE slot = ? AND axis = ? AND "
                             "bit = 0", (slot, axis))
            conn.close()

        def executed():
            warm = run_full_scan(golden, journal=journal, resume=False,
                                 keep_records=True)
            assert warm == cold
            return warm.execution.executed

        spoil("UPDATE section_results SET bit = 1")
        assert [row[1] for row in self._stored(journal, slot, axis)] \
            == list(range(1, bits + 1))
        assert executed() == 1
        assert executed() == 0  # stored whole from bit 0 beside it
        spoil("UPDATE section_results SET outcome = outcome || ' sdc', "
              "end_cycle = end_cycle || ' 1', trap = trap || ' '")
        assert [row[1] for row in self._stored(journal, slot, axis)] \
            == list(range(bits + 1))
        assert executed() == 1
