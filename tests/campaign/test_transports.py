"""The transport contract, stated once for every way of running a
campaign and both campaign styles.

In-process, local workers (``jobs=2``, test id ``pool``: fabric workers
forked by the driver behind a lease coordinator) and the fabric
serving the tests' own thread workers (``run_dist``) all run a
campaign through :func:`~repro.campaign.pipeline.run_campaign`: one
prologue, one sink and one assembly.  So a fresh campaign and the
resume of a half-journaled one must end the same way on each — the
serial result, records included; the same ``ExecutionReport`` counts;
and the same shape of progress reports.  A unit's result is one run
from the executor onward, so each transport also leaves the same rows
in the journal.
"""

import multiprocessing
import sqlite3

import pytest

from repro.campaign import (
    ExecutorConfig,
    record_golden,
    run_distributed_scan,
    run_full_scan,
    run_sampling,
)
from repro.programs import micro

from .fabric import run_dist

#: ``jobs`` per transport that ``run_campaign`` starts itself.  ``pool``
#: keeps its old test id; ``jobs=2`` now forks local fabric workers.
TRANSPORTS = {"in-process": None, "pool": 2}


@pytest.fixture(scope="module")
def golden():
    return record_golden(micro.memcopy(6))


class _Interrupt(Exception):
    pass


def _half_journal(path, half, campaign):
    """A journal holding the first ``half`` units of ``campaign``."""
    def interrupt(done, total):
        if done >= half:
            raise _Interrupt

    with pytest.raises(_Interrupt):
        campaign(journal=path, progress=interrupt)
    return path


def _check_contract(campaign, run, total, scenario, tmp_path, serial,
                    view):
    """Run ``run`` fresh or on a journal ``campaign`` half wrote; check
    it.  ``view`` is what equality leaves out: records, order, samples."""
    resumed = total // 2 if scenario == "resume" else 0
    journal = (_half_journal(tmp_path / "half.sqlite", resumed, campaign)
               if resumed else None)
    calls: list[tuple[int, int]] = []
    result = run(journal=journal,
                 progress=lambda done, all_: calls.append((done, all_)))

    assert result == serial
    assert view(result) == view(serial)
    execution = result.execution
    assert (execution.total_units, execution.resumed, execution.executed,
            execution.composed_hits, execution.complete) \
        == (total, resumed, total - resumed, 0, True)
    dones = [done for done, _ in calls]
    assert dones == sorted(dones)
    assert {all_ for _, all_ in calls} == {total}
    if resumed:
        assert calls[0] == (resumed, total)
    assert calls[-1] == (total, total)


@pytest.mark.parametrize("scenario", ["fresh", "resume"])
@pytest.mark.parametrize("domain", ["memory", "register"])
@pytest.mark.parametrize("transport", sorted([*TRANSPORTS, "fabric"]))
def test_every_transport_keeps_the_contract(transport, domain, scenario,
                                            golden, tmp_path):
    def campaign(**kw):
        return run_full_scan(golden, domain=domain, keep_records=True, **kw)

    def run(**kw):
        if transport == "fabric":
            return run_dist(golden, domain=domain, **kw)[0]
        return campaign(jobs=TRANSPORTS[transport], **kw)

    serial = campaign()
    _check_contract(campaign, run, len(serial.class_outcomes), scenario,
                    tmp_path, serial,
                    lambda result: (result.records,
                                    list(result.class_outcomes)))


@pytest.mark.parametrize("scenario", ["fresh", "resume"])
@pytest.mark.parametrize("style", ["uniform", "live-only"])
@pytest.mark.parametrize("transport", sorted(TRANSPORTS))
def test_every_style_keeps_the_contract(transport, style, scenario, golden,
                                        tmp_path):
    """Sampling (a unit per distinct sampled experiment) keeps the full
    scan's contract."""
    def campaign(**kw):
        return run_sampling(golden, 150, seed=7, sampler=style, **kw)

    serial = campaign()
    _check_contract(campaign,
                    lambda **kw: campaign(jobs=TRANSPORTS[transport], **kw),
                    serial.experiments_conducted, scenario, tmp_path, serial,
                    lambda result: result.samples)


def _result_rows(path) -> list:
    """Every row of the result table, in key order."""
    conn = sqlite3.connect(path)
    try:
        return conn.execute(
            "SELECT * FROM section_results ORDER BY 1, 2, 3, 4").fetchall()
    finally:
        conn.close()


@pytest.mark.parametrize("style", ["scan", "sampling"])
def test_both_transports_write_identical_result_rows(style, golden,
                                                     tmp_path):
    """In-process and on fabric workers, a campaign's section store
    rows are the same, every column."""
    def campaign(**kw):
        if style == "scan":
            return run_full_scan(golden, **kw)
        return run_sampling(golden, 150, seed=7, sampler="live-only", **kw)

    rows = {}
    for name, jobs in TRANSPORTS.items():
        path = tmp_path / f"{name}.sqlite"
        campaign(jobs=jobs, journal=path)
        rows[name] = _result_rows(path)
    assert rows["in-process"] == rows["pool"]
    assert rows["pool"]


def test_a_local_fleet_attributes_nothing(golden):
    """A local fleet's forks are interchangeable, so ``jobs=2`` and
    ``run_distributed_scan`` report no per-worker split, as in process;
    only a test's thread workers are named (``run_dist``)."""
    assert run_full_scan(golden, jobs=2).execution.workers == ()
    assert run_distributed_scan(golden, workers=2).execution.workers == ()
    assert run_dist(golden)[0].execution.workers


@pytest.mark.parametrize("domain", ["memory", "register"])
def test_one_journal_key_under_every_transport(domain, golden, tmp_path):
    """The executor settings that can change an outcome are part of the
    journal key, read once off the campaign's style.  A full scan under
    a non-default config, journaled in process, is the same campaign
    under ``jobs=2`` and on a fabric of one forked worker; the default
    config opens a campaign of its own; and a sampled campaign under
    the same config finds every experiment in the section store."""
    config = ExecutorConfig(timeout_factor=2.0, early_stop=False)
    journal = tmp_path / "key.sqlite"
    serial = run_full_scan(golden, domain=domain, config=config,
                           journal=journal)
    assert serial.execution.executed == serial.execution.total_units > 0
    for again in (
            run_full_scan(golden, domain=domain, config=config,
                          journal=journal, jobs=2),
            run_distributed_scan(golden, workers=1, domain=domain,
                                 executor_config=config, journal=journal)):
        assert again == serial
        assert again.execution.executed == 0
    default = run_full_scan(golden, domain=domain, journal=journal)
    assert default.execution.resumed == 0
    sampled = run_sampling(golden, 150, seed=7, sampler="live-only",
                           domain=domain, config=config, journal=journal)
    assert sampled.execution.executed == 0
    assert sampled.execution.composed_hits \
        == sampled.execution.total_units > 0


@pytest.mark.parametrize("jobs", TRANSPORTS.values(), ids=TRANSPORTS)
@pytest.mark.parametrize("error", [BrokenPipeError, KeyboardInterrupt,
                                   RuntimeError])
def test_what_the_pipeline_raises_ends_the_campaign(error, jobs, golden,
                                                    tmp_path):
    """A progress callback that raises — ^C, or a ``BrokenPipeError``
    from a closed stderr pipe, which is a ``ConnectionError`` — raises
    the same out of every transport: the fabric takes it for no lost
    connection.  No worker outlives it, and the journal resumes to the
    serial result."""
    serial = run_full_scan(golden, keep_records=True)
    journal = tmp_path / "aborted.sqlite"

    def progress(done, total):
        if done >= 2:
            raise error("progress")

    with pytest.raises(error):
        run_full_scan(golden, jobs=jobs, journal=journal, progress=progress)
    assert multiprocessing.active_children() == []
    resumed = run_full_scan(golden, jobs=jobs, journal=journal,
                            keep_records=True)
    assert resumed.execution.resumed > 0
    assert resumed == serial
    assert resumed.records == serial.records
