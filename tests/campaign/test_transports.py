"""The transport contract, stated once for all three transports.

In-process, the process pool and the TCP fabric all run a campaign
through :func:`~repro.campaign.pipeline.run_campaign`: one prologue, one
sink and one assembly.  So a fresh scan and the resume of a
half-journaled one must end the same way on each — the serial result,
records included; the same ``ExecutionReport`` counts; and the same
shape of progress reports.
"""

import pytest

from repro.campaign import record_golden, run_full_scan
from repro.programs import micro

from .test_dist import run_dist


def _in_process(golden, **kw):
    return run_full_scan(golden, keep_records=True, **kw)


def _pool(golden, **kw):
    return run_full_scan(golden, jobs=2, keep_records=True, **kw)


def _fabric(golden, **kw):
    result, _, _ = run_dist(golden, workers=2, **kw)
    return result


TRANSPORTS = {"in-process": _in_process, "pool": _pool, "fabric": _fabric}


@pytest.fixture(scope="module")
def golden():
    return record_golden(micro.memcopy(6))


class _Interrupt(Exception):
    pass


def _half_journal(path, golden, domain, half):
    """A journal holding the first ``half`` classes of the campaign."""
    def interrupt(done, total):
        if done >= half:
            raise _Interrupt

    with pytest.raises(_Interrupt):
        run_full_scan(golden, domain=domain, journal=path,
                      progress=interrupt)
    return path


@pytest.mark.parametrize("scenario", ["fresh", "resume"])
@pytest.mark.parametrize("domain", ["memory", "register"])
@pytest.mark.parametrize("transport", sorted(TRANSPORTS))
def test_every_transport_keeps_the_contract(transport, domain, scenario,
                                            golden, tmp_path):
    serial = run_full_scan(golden, domain=domain, keep_records=True)
    total = len(serial.class_outcomes)
    resumed = total // 2 if scenario == "resume" else 0
    journal = (_half_journal(tmp_path / "half.sqlite", golden, domain,
                             resumed) if resumed else None)
    calls: list[tuple[int, int]] = []
    result = TRANSPORTS[transport](
        golden, domain=domain, journal=journal,
        progress=lambda done, all_: calls.append((done, all_)))

    assert result == serial
    assert result.records == serial.records
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
