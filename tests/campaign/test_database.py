"""Tests for campaign summaries, fingerprints and CSV files, and for
the journal as the one summary cache."""

import pytest

from repro.campaign import (
    CampaignSummary,
    ExecutorConfig,
    ExperimentJournal,
    Outcome,
    export_class_results_csv,
    import_class_results_csv,
    program_fingerprint,
    record_golden,
    run_full_scan,
)
from repro.programs import hi


@pytest.fixture(scope="module")
def hi_scan():
    return run_full_scan(record_golden(hi.baseline()))


@pytest.fixture(scope="module")
def hi_register_scan():
    return run_full_scan(record_golden(hi.baseline()), domain="register")


class TestCampaignSummary:
    def test_from_result_captures_counts(self, hi_scan):
        summary = CampaignSummary.from_result(hi_scan)
        assert summary.fault_space_size == 128
        assert summary.cycles == 8
        assert summary.weighted() == dict(hi_scan.weighted_counts())
        assert summary.raw() == dict(hi_scan.raw_counts())


class TestTheJournalIsTheSummaryCache:
    """A summary is cached by journaling its scan: the rerun resumes the
    complete campaign and executes nothing, and the journal keys it by
    every campaign parameter, so a changed executor setting runs
    afresh."""

    @pytest.mark.parametrize("domain", ["memory", "register"])
    def test_a_journaled_rerun_summarises_without_executing(
            self, tmp_path, domain, hi_scan, hi_register_scan):
        golden = record_golden(hi.baseline())
        path = tmp_path / "cache.sqlite"
        cold = run_full_scan(golden, domain=domain, journal=path)
        warm = run_full_scan(golden, domain=domain, journal=path)
        assert cold.execution.executed == cold.execution.total_units > 0
        assert warm.execution.executed == 0
        summary = CampaignSummary.from_result(warm)
        assert summary == CampaignSummary.from_result(cold) \
            == CampaignSummary.from_result(
                hi_scan if domain == "memory" else hi_register_scan)
        assert summary.domain == domain

    def test_a_changed_timeout_factor_opens_a_new_campaign(self, tmp_path):
        golden = record_golden(hi.baseline())
        path = tmp_path / "cache.sqlite"
        run_full_scan(golden, journal=path)
        changed = run_full_scan(golden, journal=path,
                                config=ExecutorConfig(timeout_factor=100.0))
        assert changed.execution.executed \
            == changed.execution.total_units > 0
        with ExperimentJournal(path) as journal:
            first, second = journal.campaigns()
        assert first["status"] == second["status"] == "complete"
        assert first["params"]["timeout_cycles"] \
            < second["params"]["timeout_cycles"]


class TestFingerprint:
    def test_same_program_same_fingerprint(self):
        assert program_fingerprint(hi.baseline()) \
            == program_fingerprint(hi.baseline())

    def test_different_variants_differ(self):
        assert program_fingerprint(hi.baseline()) \
            != program_fingerprint(hi.dft_variant(4))

    def test_ram_size_affects_fingerprint(self):
        assert program_fingerprint(hi.baseline()) \
            != program_fingerprint(hi.memory_diluted_variant(2))


class TestCsvExport:
    def test_roundtrip(self, tmp_path, hi_scan):
        path = tmp_path / "results.csv"
        export_class_results_csv(hi_scan, path)
        rows = import_class_results_csv(path)
        records = hi_scan.class_records()
        assert len(rows) == len(records)
        for row, (interval, outcomes) in zip(rows, records):
            assert row["addr"] == interval.addr
            assert row["length"] == interval.length
            assert row["outcomes"] == outcomes

    def test_register_roundtrip_has_32_bit_columns(self, tmp_path,
                                                   hi_register_scan):
        path = tmp_path / "register-results.csv"
        export_class_results_csv(hi_register_scan, path)
        rows = import_class_results_csv(path)
        records = hi_register_scan.class_records()
        assert len(rows) == len(records)
        for row, (interval, outcomes) in zip(rows, records):
            assert row["addr"] == interval.reg
            assert len(row["outcomes"]) == 32
            assert row["outcomes"] == outcomes

    def test_reexport_is_byte_identical(self, tmp_path, hi_scan,
                                        hi_register_scan):
        """import → export must reproduce the file byte for byte, for
        both the 8-bit memory and 32-bit register column layouts."""
        from repro.campaign import export_class_rows_csv

        for name, scan in (("mem", hi_scan), ("reg", hi_register_scan)):
            original = tmp_path / f"{name}.csv"
            copy = tmp_path / f"{name}-copy.csv"
            export_class_results_csv(scan, original)
            export_class_rows_csv(import_class_results_csv(original), copy)
            assert copy.read_bytes() == original.read_bytes()

    def test_import_orders_bit_columns_numerically(self, tmp_path):
        """bit10 must sort after bit2 — a lexicographic sort would
        silently permute register outcomes."""
        path = tmp_path / "shuffled.csv"
        bits = 12
        header = ["addr", "first_slot", "last_slot", "length"] + [
            f"bit{b}" for b in reversed(range(bits))]
        values = ["5", "1", "4", "4"] + ["sdc"] * (bits - 1) + [
            "no-effect"]  # no-effect lands in the bit0 column
        path.write_text(",".join(header) + "\r\n"
                        + ",".join(values) + "\r\n")
        rows = import_class_results_csv(path)
        assert rows[0]["outcomes"][0] == Outcome.NO_EFFECT
        assert all(o == Outcome.SDC for o in rows[0]["outcomes"][1:])

    def test_import_tolerates_whitespace_in_numbers(self, tmp_path):
        path = tmp_path / "spaced.csv"
        path.write_text("addr,first_slot,last_slot,length,bit0\r\n"
                        " 3 , 1 , 2 , 2 ,no-effect\r\n")
        rows = import_class_results_csv(path)
        assert rows[0] == {"addr": 3, "first_slot": 1, "last_slot": 2,
                           "length": 2,
                           "outcomes": (Outcome.NO_EFFECT,)}

    def test_import_rejects_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("addr,first_slot,bit0\r\n1,2,sdc\r\n")
        with pytest.raises(ValueError, match="missing column"):
            import_class_results_csv(path)

    def test_import_rejects_gappy_bit_columns(self, tmp_path):
        path = tmp_path / "gappy.csv"
        path.write_text("addr,first_slot,last_slot,length,bit0,bit2\r\n"
                        "1,1,1,1,sdc,sdc\r\n")
        with pytest.raises(ValueError, match="not contiguous"):
            import_class_results_csv(path)

    def test_import_reports_malformed_rows_with_line_numbers(
            self, tmp_path):
        path = tmp_path / "corrupt.csv"
        path.write_text("addr,first_slot,last_slot,length,bit0\r\n"
                        "1,1,1,1,no-effect\r\n"
                        "2,1,1,one,sdc\r\n")
        with pytest.raises(ValueError, match="line 3"):
            import_class_results_csv(path)

    def test_import_rejects_unknown_outcome_values(self, tmp_path):
        path = tmp_path / "unknown.csv"
        path.write_text("addr,first_slot,last_slot,length,bit0\r\n"
                        "1,1,1,1,exploded\r\n")
        with pytest.raises(ValueError, match="line 2"):
            import_class_results_csv(path)
