"""Distributed-fabric gates: bit-identity, send windows and node loss.

Full def/use-pruned scans of the quick-scale sync2 baseline (items=2)
run through the fabric's forked local workers, each on a socket pair
(``run_distributed_scan``) at 1, 2 and 4 workers, each checked
bit-for-bit against the serial ground truth (same ``CampaignResult``,
same CSV bytes).  Two count gates pin what a class costs on the wire
and in the coordinator's journal, and a chaos run SIGKILLs one of two
forked worker processes mid-campaign and asserts the surviving fabric
still converges to the identical result — the robustness the fabric
exists for, checked rather than assumed.

On a single-core container worker processes time-share one CPU, but
every assertion holds regardless: correctness properties must not
depend on the machine being generous.
"""

import os
import signal

from repro.campaign import (
    export_class_results_csv,
    record_golden,
    run_full_scan,
)
from repro.campaign.dist import run_distributed_scan
from repro.campaign.dist.coordinator import (DistCoordinator, LocalFabric,
                                             serve_scan)
from repro.programs import micro, sync2
from tests.campaign.fabric import ThreadFleet, serve_in_thread


def _serve_one_thread_worker(golden, **campaign):
    """Serve a scan of ``golden`` to one thread worker: ``(result,
    units the worker executed)``."""
    fleet = ThreadFleet()
    worker = fleet.add("w0")
    coordinator = DistCoordinator(fleet, shards=4)
    result = serve_in_thread(coordinator, golden,
                             **campaign).join_result(120)
    fleet.join()
    assert not fleet.errors
    return result, worker.executed


def test_dist_scan_matches_serial(tmp_path):
    """1, 2 and 4 forked workers: same result, records and CSV bytes
    as the serial scan."""
    golden = record_golden(sync2.baseline(2))
    serial = run_full_scan(golden, keep_records=True)
    serial_csv = tmp_path / "serial.csv"
    export_class_results_csv(serial, serial_csv)
    for workers in (1, 2, 4):
        dist = run_distributed_scan(golden, workers=workers,
                                    keep_records=True)
        assert dist == serial, workers
        assert dist.records == serial.records, workers
        dist_csv = tmp_path / f"dist{workers}.csv"
        export_class_results_csv(dist, dist_csv)
        assert dist_csv.read_bytes() == serial_csv.read_bytes(), workers


def _count_frames(monkeypatch) -> dict:
    """Count, at the coordinator's one frame handler, the ``results``
    frames it reads and the ``lease`` frames it grants."""
    frames = {"results": 0, "lease": 0}
    answer = DistCoordinator._answer

    def counted(coordinator, name, frame):
        if frame.get("type") == "results":
            frames["results"] += 1
        reply = answer(coordinator, name, frame)
        if reply is not None and reply.get("type") == "lease":
            frames["lease"] += 1
        return reply

    monkeypatch.setattr(DistCoordinator, "_answer", counted)
    return frames


def test_send_window_gate(monkeypatch):
    """Result frames are paid per send window, not per class:
    ``results`` frames ≤ classes / 8 + 2 × leases on a ``memcopy`` ×
    register scan (66 classes; a frame per class would be 66).

    A count, so it repeats exactly and needs no ratio floor.  The lease
    term is what flushing before every ``lease_done`` costs — a window
    never spans two leases.  Leases are counted as the coordinator
    grants them (``lease`` frames answered): it may hang up before it
    reads the last ``lease_done``.
    """
    golden = record_golden(micro.memcopy(6))
    serial = run_full_scan(golden, domain="register", keep_records=True)
    frames = _count_frames(monkeypatch)
    result, executed = _serve_one_thread_worker(golden, domain="register",
                                                keep_records=True)
    assert executed == len(serial.class_outcomes)
    assert result == serial
    assert result.records == serial.records
    classes, leases = len(serial.class_outcomes), frames["lease"]
    assert frames["results"] > 0 and leases > 0
    print(f"\nsend window on {golden.program.name} × register: "
          f"{frames['results']} results frames for {classes} classes "
          f"over {leases} leases")
    assert frames["results"] <= classes / 8 + 2 * leases


def test_merge_window_gate(monkeypatch, tmp_path):
    """The lease board is the coordinator's one duplicate filter: on a
    ``memcopy`` × register scan (66 classes), serving asks the journal
    no existence ``SELECT`` on ``class_results`` (one per window, or per
    class, would be a second filter), while the trace does see the
    classes written (the positive control).

    Counts, from the journal connection's ``set_trace_callback``.
    """
    from repro.campaign.journal import ExperimentJournal

    golden = record_golden(micro.memcopy(6))
    serial = run_full_scan(golden, domain="register", keep_records=True)
    statements: list[str] = []
    connect = ExperimentJournal._connect

    def traced(journal):
        conn = connect(journal)
        conn.set_trace_callback(statements.append)
        return conn

    monkeypatch.setattr(ExperimentJournal, "_connect", traced)
    frames = _count_frames(monkeypatch)
    result, executed = _serve_one_thread_worker(
        golden, domain="register", journal=tmp_path / "gate.sqlite",
        keep_records=True)
    assert executed == len(serial.class_outcomes)
    assert result == serial
    assert result.records == serial.records
    classes = len(serial.class_outcomes)
    selects = [sql for sql in statements
               if sql.lstrip().upper().startswith("SELECT")
               and "class_results" in sql and "outcome" not in sql]
    writes = [sql for sql in statements
              if sql.lstrip().upper().startswith("INSERT")
              and "class_results" in sql]
    print(f"\nmerge window on {golden.program.name} × register: "
          f"{len(selects)} existence SELECTs and {len(writes)} class "
          f"writes for {frames['results']} results frames, {classes} "
          f"classes")
    assert writes  # the trace sees the journal's statements
    assert frames["results"] > 0 and frames["lease"] > 0
    assert selects == []


def test_dist_scan_survives_sigkill(tmp_path):
    """Two forked workers, one SIGKILLed mid-campaign: identical CSV
    anyway (the fleet's one replacement joins the survivor)."""
    golden = record_golden(sync2.baseline(2))
    serial = run_full_scan(golden, keep_records=True)
    serial_csv = tmp_path / "serial.csv"
    export_class_results_csv(serial, serial_csv)

    fabric = LocalFabric(2)
    killed = []

    def progress(done, total):
        if done >= 2 and not killed:
            victim = fabric._procs[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(10)
            killed.append(victim)

    result = serve_scan(fabric, golden, keep_records=True,
                        progress=progress)
    (victim,) = killed
    assert victim.exitcode == -signal.SIGKILL
    assert result == serial
    assert result.execution.complete
    chaos_csv = tmp_path / "chaos.csv"
    export_class_results_csv(result, chaos_csv)
    assert chaos_csv.read_bytes() == serial_csv.read_bytes()
