"""Journal crash-tolerance smoke: interrupt, kill, resume, verify.

Not a paper figure — this exercises the durable experiment journal the
way a real long campaign would hit it: a scan is interrupted partway
(and, separately, a worker process is killed mid-shard), then resumed
from the journal.  The resumed result must be bit-for-bit identical to
an uninterrupted run, and the resume must re-execute only the missing
work units.

Also reports the resume-time saving to ``output/journal_resume.txt``:
the fraction of experiments replayed from the journal is the fraction
of campaign wall-clock a crash no longer costs.

The last test is the journal's price tag: a journaled serial scan
against the same scan un-journaled, as a ratio inside one process.
"""

import os
import time

from repro.campaign import (RetryPolicy, export_class_results_csv,
                            record_golden, run_full_scan)
from repro.programs import hi, sync2

#: Journaled / un-journaled wall-clock a serial scan may cost.  With a
#: commit (an fsync) per class the ratio was ≈ 2.3; group commit leaves
#: the row inserts themselves, ≈ 1.2 on this program.
JOURNAL_OVERHEAD_CEILING = 1.3


def _program():
    if os.environ.get("REPRO_BENCH_JOURNAL_SCALE") == "full":
        return sync2.baseline(items=4)
    return hi.baseline()


class _Interrupt(Exception):
    pass


def test_interrupted_scan_resumes_bit_for_bit(tmp_path, output_dir):
    golden = record_golden(_program())
    baseline = run_full_scan(golden, keep_records=True)
    total = baseline.execution.total_units
    journal = tmp_path / "journal.sqlite"
    kill_after = max(1, total // 2)

    def bomb(done, _total):
        if done >= kill_after:
            raise _Interrupt

    start = time.perf_counter()
    try:
        run_full_scan(golden, journal=journal, keep_records=True,
                      progress=bomb)
        raise AssertionError("interrupt never fired")
    except _Interrupt:
        pass
    first_leg = time.perf_counter() - start

    start = time.perf_counter()
    resumed = run_full_scan(golden, journal=journal, keep_records=True)
    second_leg = time.perf_counter() - start

    assert resumed == baseline
    assert resumed.execution.resumed >= kill_after
    assert resumed.execution.executed \
        == total - resumed.execution.resumed

    lines = [
        "journal crash-tolerance smoke",
        "=============================",
        f"work units              {total}",
        f"interrupted after       {kill_after}",
        f"resumed from journal    {resumed.execution.resumed}",
        f"re-executed             {resumed.execution.executed}",
        f"first leg (crashed)     {first_leg:.3f} s",
        f"resume leg              {second_leg:.3f} s",
    ]
    (output_dir / "journal_resume.txt").write_text("\n".join(lines) + "\n")


def test_killed_worker_is_retried_and_result_unchanged(tmp_path):
    """SIGKILL a shard worker mid-campaign; retry must restore exactness."""
    golden = record_golden(_program())
    baseline = run_full_scan(golden, keep_records=True)
    os.environ["REPRO_CHAOS"] = \
        '{"die": [[0, 0]], "die_delay": 0.2}'
    try:
        survived = run_full_scan(
            golden, jobs=2, keep_records=True,
            journal=tmp_path / "chaos.sqlite",
            policy=RetryPolicy(backoff=0.05))
    finally:
        del os.environ["REPRO_CHAOS"]
    assert survived == baseline
    assert survived.execution.shard_retries >= 1
    assert survived.execution.complete


def test_journaling_costs_a_fraction_not_a_multiple(tmp_path):
    """Journaled serial scan ≤ 1.3× the un-journaled one, CSV equal.

    A ratio of two times taken back to back in one process, best of
    three alternating pairs, so the host's speed cancels.  The program
    is the smallest registered one whose classes cost enough (~0.45 ms)
    for a ratio to say anything: ``hi`` has two classes and measures
    only the price of creating a database file.
    """
    golden = record_golden(sync2.baseline())
    partition = golden.partition()
    best = {False: float("inf"), True: float("inf")}
    scans = {}
    for attempt in range(3):
        for journaled in (False, True):
            journal = tmp_path / f"ab{attempt}.sqlite" if journaled else None
            start = time.perf_counter()
            scans[journaled] = run_full_scan(golden, partition=partition,
                                             journal=journal)
            best[journaled] = min(best[journaled],
                                  time.perf_counter() - start)
    assert scans[True] == scans[False]
    assert scans[True].execution.executed \
        == scans[True].execution.total_units
    for journaled, scan in scans.items():
        export_class_results_csv(scan, tmp_path / f"{journaled}.csv")
    assert (tmp_path / "True.csv").read_bytes() \
        == (tmp_path / "False.csv").read_bytes()
    ratio = best[True] / best[False]
    assert ratio <= JOURNAL_OVERHEAD_CEILING, (
        f"journaled scan {best[True]:.3f}s is {ratio:.2f}x the "
        f"un-journaled {best[False]:.3f}s")
