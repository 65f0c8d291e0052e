"""Tests for campaign summaries, fingerprints and CSV files, and for
the journal as the one summary cache."""

import csv
from dataclasses import replace

import pytest

from repro.campaign import (
    CampaignSummary,
    ExecutorConfig,
    ExperimentJournal,
    Outcome,
    export_class_results_csv,
    program_fingerprint,
    record_golden,
    run_full_scan,
)
from repro.faultspace import DOMAINS
from repro.programs import hi, micro


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


def _csv_rows(path) -> list[dict]:
    """An exported file's rows, read back with ``csv.reader``: columns
    ``addr, first_slot, last_slot, length`` and then ``bit0 ...``."""
    with open(path, newline="") as handle:
        _header, *body = csv.reader(handle)
    return [{"addr": int(row[0]), "length": int(row[3]),
             "outcomes": tuple(Outcome(value) for value in row[4:])}
            for row in body]


class TestCsvExport:
    def test_roundtrip(self, tmp_path, hi_scan):
        path = tmp_path / "results.csv"
        export_class_results_csv(hi_scan, path)
        rows = _csv_rows(path)
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
        rows = _csv_rows(path)
        records = hi_register_scan.class_records()
        assert len(rows) == len(records)
        for row, (interval, outcomes) in zip(rows, records):
            assert row["addr"] == interval.reg
            assert len(row["outcomes"]) == 32
            assert row["outcomes"] == outcomes


def _reference_csv(result, path) -> None:
    """The per-class CSV as ``csv.writer`` writes it, row by row."""
    domain = result.domain
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["addr", "first_slot", "last_slot", "length"]
                        + [f"bit{b}" for b in range(domain.bits)])
        for interval, outcomes in result.class_records():
            writer.writerow(
                [domain.axis_of(interval), interval.first_slot,
                 interval.last_slot, interval.length]
                + [outcome.value for outcome in outcomes])


class TestCsvBytes:
    """The export writes rows as text; its bytes are ``csv.writer``'s."""

    @pytest.fixture(scope="class", params=sorted(DOMAINS))
    def scan(self, request):
        return run_full_scan(record_golden(micro.counter()),
                             domain=request.param)

    def assert_bytes_match_the_reference(self, result, tmp_path):
        path, reference = tmp_path / "classes.csv", tmp_path / "reference.csv"
        export_class_results_csv(result, path)
        _reference_csv(result, reference)
        assert path.read_bytes() == reference.read_bytes()
        assert path.read_bytes().count(b"\r\n") \
            == len(result.class_outcomes) + 1

    def test_a_scan(self, scan, tmp_path):
        self.assert_bytes_match_the_reference(scan, tmp_path)

    def test_a_degraded_result(self, scan, tmp_path):
        """Every other class missing, and the tuples of the rest copied
        so that none is shared."""
        kept = {key: tuple(list(outcomes)) for index, (key, outcomes)
                in enumerate(scan.class_outcomes.items()) if index % 2}
        self.assert_bytes_match_the_reference(
            replace(scan, class_outcomes=kept), tmp_path)
