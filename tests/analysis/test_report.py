"""Tests for text report rendering."""

import pytest

from repro.analysis import (
    failure_attribution,
    failure_delta_report,
    failure_delta_rows,
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


#: (baseline, variant) pairs whose ΔF tables are checked.
DELTA_PAIRS = [("hi", "hi-dft4"), ("hi", "hi-mem2"),
               ("bin_sem2", "bin_sem2-sumdmr")]


@pytest.fixture(scope="module")
def pair_scans():
    from repro.programs import all_programs

    names = {name for pair in DELTA_PAIRS for name in pair}
    return {name: run_full_scan(record_golden(all_programs()[name]()))
            for name in names}


class TestFailureDelta:
    """ΔF by location between two stored results (item 17)."""

    @pytest.mark.parametrize("baseline, variant", DELTA_PAIRS)
    def test_columns_sum_to_each_sides_failure_count(self, pair_scans,
                                                     baseline, variant):
        before, after = pair_scans[baseline], pair_scans[variant]
        rows = failure_delta_rows(before, after)
        assert rows
        f_before = weighted_failure_count(before).total
        f_after = weighted_failure_count(after).total
        assert sum(row[1] for row in rows) == f_before
        assert sum(row[2] for row in rows) == f_after
        assert sum(row[3] for row in rows) == f_after - f_before
        assert all(delta == later - earlier
                   for _, earlier, later, delta in rows)
        assert len({row[0] for row in rows}) == len(rows)
        report = failure_delta_report(baseline, before, variant, after)
        total = report.splitlines()[-1].split()
        assert total == ["total", f"{f_before:.0f}", f"{f_after:.0f}",
                         f"{f_after - f_before:+.0f}"]

    def test_sumdmr_object_keeps_its_label(self, pair_scans):
        """A hardened object's replica and checksum count under its
        own label: the variant fails under the baseline's labels."""
        rows = failure_delta_rows(pair_scans["bin_sem2"],
                                  pair_scans["bin_sem2-sumdmr"])
        assert [row[0] for row in rows][:2] == ["__tcb0", "__tcb1"]
        assert all(before > 0 for _, before, _, _ in rows)
