"""Journal crash-tolerance smoke: interrupt, kill, resume, verify.

Not a paper figure — this exercises the durable experiment journal the
way a real long campaign would hit it: a scan is interrupted partway
(and, separately, a worker process is killed mid-lease), then resumed
from the journal.  The resumed result must be bit-for-bit identical to
an uninterrupted run, and the resume must re-execute only the missing
work units.

Also reports the resume-time saving to ``output/journal_resume.txt``:
the fraction of experiments replayed from the journal is the fraction
of campaign wall-clock a crash no longer costs.

The last test is the journal's price tag: the commits (an fsync each)
a journaled serial scan makes, counted on a clock stepped by hand.
"""

import os
import time

from repro.campaign import (RetryPolicy, export_class_results_csv,
                            journal as journal_module, record_golden,
                            run_full_scan)
from repro.campaign.dist.chaos import PLAN_ENV, ChaosPlan
from repro.campaign.journal import COMMIT_WINDOW_S, ExperimentJournal
from repro.programs import hi, sync2


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


def test_killed_worker_is_retried_and_result_unchanged(tmp_path,
                                                       monkeypatch):
    """Kill each fabric worker at its first result (``os._exit``, as
    under SIGKILL); the lease retry on its replacement must restore
    exactness."""
    golden = record_golden(_program())
    baseline = run_full_scan(golden, keep_records=True)
    monkeypatch.setenv(PLAN_ENV, ChaosPlan(die_after_results=0).to_json())
    survived = run_full_scan(
        golden, jobs=2, keep_records=True,
        journal=tmp_path / "chaos.sqlite",
        policy=RetryPolicy(backoff=0.05))
    assert survived == baseline
    assert survived.execution.shard_retries >= 1
    assert survived.execution.complete


def test_journaling_costs_a_fraction_not_a_multiple(tmp_path, monkeypatch):
    """A journaled serial scan commits per window, not per class; CSV
    equal to the un-journaled scan's.

    A count, not a time: the ``BEGIN IMMEDIATE`` statements (each ends
    in a commit, an fsync) SQLite sees during the scan, with the commit
    window's clock stepped by hand — frozen, then one window per 50
    classes.  Frozen, what is left is what the scan commits on its own
    account (a read through the writer per section, open, close): under
    a tenth of a commit a class.  Stepped, each elapsed window adds
    one.  With a commit per class this program made 2 384 more; the
    ratio of wall times this gate used to take (≈ 1.2–1.4 against a
    1.3 ceiling) rose whenever the executor got faster.
    """
    per_window = 50
    golden = record_golden(sync2.baseline())
    partition = golden.partition()
    classes = len(partition.live_classes())
    plain = run_full_scan(golden, partition=partition)
    export_class_results_csv(plain, tmp_path / "plain.csv")
    now = [0.0]
    monkeypatch.setattr(journal_module, "_clock", lambda: now[0])

    def commits(step):
        def tick(_done, _total):
            now[0] += step

        statements = []
        with ExperimentJournal(tmp_path / f"step{step}.sqlite") as journal:
            journal._conn.set_trace_callback(statements.append)
            scan = run_full_scan(golden, partition=partition,
                                 journal=journal, progress=tick)
        assert scan == plain
        assert scan.execution.executed == scan.execution.total_units
        export_class_results_csv(scan, tmp_path / "journaled.csv")
        assert (tmp_path / "journaled.csv").read_bytes() \
            == (tmp_path / "plain.csv").read_bytes()
        return statements.count("BEGIN IMMEDIATE")

    frozen = commits(0.0)
    stepped = commits(COMMIT_WINDOW_S / per_window)
    print(f"\njournal commits over {classes} classes: {frozen} with the "
          f"window never expiring, {stepped} at {per_window} classes a "
          f"window")
    assert frozen <= classes // 10, (
        f"{frozen} commits with the window never expiring: the scan "
        f"itself flushes more than once per 10 of its {classes} classes")
    assert stepped - frozen <= classes // per_window + 1, (
        f"{stepped - frozen} commits for {classes // per_window} "
        f"elapsed windows: the window is not batching")
