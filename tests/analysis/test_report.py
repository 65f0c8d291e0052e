"""Tests for text report rendering."""

import pytest

from repro.analysis import (
    failure_attribution,
    fig2_report,
    fig3_report,
    format_table,
    outcome_histogram,
    table1_report,
    verdict_report,
)
from repro.analysis.figures import Fig2Series
from repro.campaign import CampaignSummary, record_golden, run_full_scan
from repro.faultspace import DOMAINS
from repro.metrics import weighted_failure_count
from repro.programs import hi


@pytest.fixture(scope="module")
def hi_scan():
    return run_full_scan(record_golden(hi.baseline()))


@pytest.fixture(scope="module")
def dft_scan():
    return run_full_scan(record_golden(hi.dft_variant(4)))


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "long"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_title(self):
        assert format_table(["x"], [], title="T").startswith("T\n")


class TestReports:
    def test_table1_report_mentions_poisson_params(self):
        text = table1_report()
        assert "P(k faults)" in text
        assert "2^20" in text

    def test_fig2_report_contains_variants(self, hi_scan, dft_scan):
        series = [Fig2Series.from_summary(CampaignSummary.from_result(s))
                  for s in (hi_scan, dft_scan)]
        text = fig2_report(series)
        assert "hi" in text and "hi-dft4" in text

    def test_fig3_report(self, hi_scan, dft_scan):
        summaries = {
            "hi": CampaignSummary.from_result(hi_scan),
            "hi-dft4": CampaignSummary.from_result(dft_scan),
        }
        text = fig3_report(summaries)
        assert "62.5%" in text and "75.0%" in text

    def test_verdict_report_flags_delusion(self, hi_scan, dft_scan):
        text = verdict_report(CampaignSummary.from_result(hi_scan),
                              CampaignSummary.from_result(dft_scan),
                              "hi")
        assert "r = 1.000" in text
        assert "misleading here" in text

    def test_outcome_histogram_shares_sum_to_one(self, hi_scan):
        text = outcome_histogram(hi_scan)
        assert "sdc" in text
        assert "no-effect" in text

    def test_failure_attribution_names_msg(self, hi_scan):
        attribution = failure_attribution(hi_scan)
        assert attribution
        assert attribution[0][0] == "msg"
        assert attribution[0][1] == 48


@pytest.fixture(scope="module")
def hi_scans():
    golden = record_golden(hi.baseline())
    return {name: run_full_scan(golden, domain=name) for name in DOMAINS}


class TestFailureAttribution:
    @pytest.mark.parametrize("domain", sorted(DOMAINS))
    def test_the_weights_sum_to_the_failure_count(self, hi_scans, domain):
        """Each failing experiment weighs the coordinates it stands for
        — a PC class's slot weight is its member count — so the
        attribution splits F, in every domain."""
        scan = hi_scans[domain]
        attribution = failure_attribution(scan, top=10**6)
        assert sum(weight for _, weight in attribution) \
            == weighted_failure_count(scan).total > 0

    @pytest.mark.parametrize("domain", ["burst2", "burst4", "stuck"])
    def test_ram_cell_domains_attribute_to_data_labels(self, hi_scans,
                                                       domain):
        labels = set(hi.baseline().data_labels) | {"(unlabelled)"}
        attribution = failure_attribution(hi_scans[domain], top=10**6)
        assert attribution
        assert {label for label, _ in attribution} <= labels

    def test_pc_attributes_to_bits_and_the_illegal_group(self, hi_scans):
        labels = [label for label, _ in
                  failure_attribution(hi_scans["pc"], top=10**6)]
        assert labels[0] == "pc[illegal]"
        assert all(label == "pc[illegal]" or
                   0 <= int(label[3:-1]) < 32 for label in labels)

    def test_register_attributes_to_register_names(self, hi_scans):
        assert all(label[0] == "r" and 1 <= int(label[1:]) <= 15
                   for label, _ in
                   failure_attribution(hi_scans["register"], top=10**6))
