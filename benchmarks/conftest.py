"""Shared fixtures for the benchmark harness.

The paper-scale campaigns (full fault-space scans of the four Figure 2
variants) take minutes, so they are journaled in
``benchmarks/.cache/campaigns.sqlite``: a repeated benchmark run resumes
each complete campaign, executing nothing, and derives its summary from
the journaled results.  The journal keys a campaign by program content,
fault domain and executor parameters, so a changed program or timeout
policy runs afresh instead of reading a stale summary; a cache file
another schema version wrote is deleted and rebuilt (a busy one is
never touched).  Reports regenerated from the results are written to
``benchmarks/output/`` as plain-text artifacts.
"""

from pathlib import Path

import pytest

from repro.campaign import (
    CampaignSummary,
    ExperimentJournal,
    record_golden,
    run_full_scan,
)
from repro.campaign.journal import JournalVersionError
from repro.programs import bin_sem2, hi, sync2

CACHE_DIR = Path(__file__).parent / ".cache"
OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def campaign_cache():
    yield from _cache_journal(CACHE_DIR / "campaigns.sqlite")


def _cache_journal(path: Path):
    """The cache journal at ``path``, open for the session.  A file
    another schema wrote is a stale cache: it is deleted and rebuilt.
    Any other refusal — a busy file above all — is raised, and the file
    is left as it is."""
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        journal = ExperimentJournal(path)
    except JournalVersionError:
        for stale in (path, Path(f"{path}-wal"), Path(f"{path}-shm")):
            stale.unlink(missing_ok=True)
        journal = ExperimentJournal(path)
    with journal:
        yield journal


@pytest.fixture(scope="session")
def output_dir() -> Path:
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUTPUT_DIR


def _scan_summary(journal: ExperimentJournal, program) -> CampaignSummary:
    return CampaignSummary.from_result(
        run_full_scan(record_golden(program), journal=journal))


@pytest.fixture(scope="session")
def fig2_summaries(campaign_cache) -> dict:
    """Full-scan summaries of the four Figure 2 variants (paper scale)."""
    return {
        "bin_sem2": _scan_summary(campaign_cache, bin_sem2.baseline()),
        "bin_sem2-sumdmr": _scan_summary(campaign_cache,
                                         bin_sem2.hardened()),
        "sync2": _scan_summary(campaign_cache, sync2.baseline()),
        "sync2-sumdmr": _scan_summary(campaign_cache, sync2.hardened()),
    }


@pytest.fixture(scope="session")
def hi_summaries(campaign_cache) -> dict:
    """Full-scan summaries of the Section IV variants."""
    return {
        "hi": _scan_summary(campaign_cache, hi.baseline()),
        "hi-dft4": _scan_summary(campaign_cache, hi.dft_variant(4)),
        "hi-dftprime4": _scan_summary(campaign_cache,
                                      hi.dft_prime_variant(4)),
        "hi-mem2": _scan_summary(campaign_cache,
                                 hi.memory_diluted_variant(2)),
    }


@pytest.fixture(scope="session")
def hi_golden():
    return record_golden(hi.baseline())
