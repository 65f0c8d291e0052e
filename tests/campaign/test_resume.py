"""Differential crash/kill-and-resume tests.

The journal contract is that a resumed campaign produces a result
*bit-for-bit identical* to an uninterrupted one — same outcome dicts,
same record lists, same sample sequences, same CSV export.  These tests
interrupt campaigns at every layer the real world does:

* mid-campaign ``KeyboardInterrupt``-style aborts in the serial runner
  (simulated by a progress callback that raises),
* fabric workers killed outright (a :class:`ChaosPlan` the forked
  workers run, which makes a worker ``os._exit`` mid-lease like the OOM
  killer would, at a unit count or on a class key),
* the campaign *driver* itself SIGKILLed (a real ``repro scan
  --journal`` subprocess, serial and with fabric workers), which loses
  the journal's last commit window and nothing else,

and then assert the resumed result equals the uninterrupted baseline,
for both fault domains and across serial and parallel (jobs ∈ {1, 2, 4})
engines.
"""

import os
import signal
import sqlite3
import subprocess
import sys
import time

import pytest

from repro.campaign import (
    ExperimentJournal,
    export_class_results_csv,
    record_golden,
    run_full_scan,
    run_sampling,
)
from repro.campaign.journal import _valid_run
from repro.faultspace.domain import get_domain
from repro.programs import all_programs, hi, micro

from .chaos import ChaosPlan, chaotic_fleet
from .journal_rows import class_experiments

JOBS = [1, 2, 4]

#: Every started fabric worker dies (``os._exit``) on its first result;
#: its replacement runs no plan.
DIE_AT_ONCE = ChaosPlan(die_after_results=0)


def _dying_key(golden) -> ChaosPlan:
    """A plan whose middle live class drops every worker's connection."""
    keys = sorted(get_domain("memory").class_key(interval) for interval
                  in golden.partition().live_classes())
    return ChaosPlan(die_on_keys=(keys[len(keys) // 2],))


class Interrupt(Exception):
    """Stands in for the user's ^C / the scheduler's SIGKILL."""


def interrupt_after(n: int):
    """A progress callback that dies once ``n`` units completed."""

    def callback(done: int, total: int) -> None:
        if done >= n:
            raise Interrupt

    return callback


@pytest.fixture(scope="module")
def memory_golden():
    return record_golden(micro.memcopy(6))


@pytest.fixture(scope="module")
def register_golden():
    return record_golden(hi.baseline())


@pytest.fixture(scope="module")
def memory_baseline(memory_golden):
    return run_full_scan(memory_golden, keep_records=True)


@pytest.fixture(scope="module")
def register_baseline(register_golden):
    return run_full_scan(register_golden, keep_records=True,
                         domain="register")


def _golden_and_baseline(domain, memory_golden, memory_baseline,
                         register_golden, register_baseline):
    if domain == "memory":
        return memory_golden, memory_baseline
    return register_golden, register_baseline


class TestFullScanResume:
    @pytest.mark.parametrize("domain", ["memory", "register"])
    @pytest.mark.parametrize("jobs", [None] + JOBS)
    def test_interrupted_scan_resumes_bit_for_bit(
            self, domain, jobs, tmp_path, memory_golden, memory_baseline,
            register_golden, register_baseline):
        """Kill a serial journaled scan after 3 classes; finish it with
        every engine; the merged result must equal the uninterrupted one."""
        golden, baseline = _golden_and_baseline(
            domain, memory_golden, memory_baseline, register_golden,
            register_baseline)
        journal = tmp_path / "journal.sqlite"
        with pytest.raises(Interrupt):
            run_full_scan(golden, domain=domain, journal=journal,
                          keep_records=True, progress=interrupt_after(3))
        resumed = run_full_scan(golden, domain=domain, journal=journal,
                                keep_records=True, jobs=jobs)
        assert resumed == baseline
        assert resumed.execution.resumed == 3
        assert resumed.execution.executed \
            == resumed.execution.total_units - 3
        assert resumed.execution.complete

    def test_resumed_csv_export_is_byte_identical(
            self, tmp_path, memory_golden, memory_baseline):
        journal = tmp_path / "journal.sqlite"
        with pytest.raises(Interrupt):
            run_full_scan(memory_golden, journal=journal,
                          progress=interrupt_after(4))
        resumed = run_full_scan(memory_golden, journal=journal, jobs=2)
        baseline_csv = tmp_path / "baseline.csv"
        resumed_csv = tmp_path / "resumed.csv"
        export_class_results_csv(memory_baseline, baseline_csv)
        export_class_results_csv(resumed, resumed_csv)
        assert resumed_csv.read_bytes() == baseline_csv.read_bytes()

    def test_complete_campaign_resumes_without_executing(
            self, tmp_path, memory_golden, memory_baseline):
        journal = tmp_path / "journal.sqlite"
        run_full_scan(memory_golden, journal=journal)
        again = run_full_scan(memory_golden, journal=journal,
                              keep_records=True)
        assert again == memory_baseline
        assert again.execution.executed == 0
        assert again.execution.resumed == again.execution.total_units

    def test_complete_campaign_forks_no_worker(
            self, tmp_path, monkeypatch, memory_golden, memory_baseline):
        """The coordinator plans before it starts the fleet: a fabric
        rerun on a complete journal leaves the board empty and forks
        nothing, and the report's fabric fields are still written."""
        from repro.campaign.dist.coordinator import LocalFabric

        journal = tmp_path / "journal.sqlite"
        run_full_scan(memory_golden, journal=journal)
        started = []
        monkeypatch.setattr(LocalFabric, "_start",
                            lambda fleet, name: started.append(name))
        again = run_full_scan(memory_golden, journal=journal, jobs=2,
                              keep_records=True)
        assert started == []
        assert again == memory_baseline
        assert again.execution.executed == 0
        assert again.execution.complete
        assert again.execution.shard_retries == 0
        assert again.execution.failed_shards == 0
        assert again.execution.workers == ()

    def test_resume_false_discards_the_journal(self, tmp_path,
                                               memory_golden):
        """resume=False drops the campaign's own rows, but the shared
        section store survives the clear, so the rerun composes its
        results instead of re-executing them (bit-for-bit equal)."""
        journal = tmp_path / "journal.sqlite"
        baseline = run_full_scan(memory_golden, journal=journal)
        fresh = run_full_scan(memory_golden, journal=journal,
                              resume=False)
        assert fresh == baseline
        assert fresh.execution.executed == 0
        assert fresh.execution.composed_hits > 0
        assert fresh.execution.resumed == fresh.execution.total_units

    def test_fresh_journal_file_executes_everything(self, tmp_path,
                                                    memory_golden):
        journal = tmp_path / "journal.sqlite"
        run_full_scan(memory_golden, journal=journal)
        cold = run_full_scan(memory_golden,
                             journal=tmp_path / "other.sqlite")
        assert cold.execution.resumed == 0
        assert cold.execution.composed_hits == 0
        assert cold.execution.executed == cold.execution.total_units

    def test_journal_survives_cross_engine_resume(
            self, tmp_path, memory_golden, memory_baseline):
        """A campaign journaled by the parallel engine finishes serially
        (and vice versa) — the journal key is engine-independent."""
        journal = tmp_path / "journal.sqlite"
        with pytest.raises(Interrupt):
            run_full_scan(memory_golden, journal=journal, jobs=2,
                          progress=interrupt_after(2))
        resumed = run_full_scan(memory_golden, journal=journal,
                                keep_records=True)
        assert resumed == memory_baseline
        assert resumed.execution.resumed >= 2


class TestSamplingResume:
    @pytest.mark.parametrize("jobs", [None] + JOBS)
    def test_interrupted_sampling_resumes_bit_for_bit(
            self, jobs, tmp_path, memory_golden):
        baseline = run_sampling(memory_golden, 40, seed=7)
        journal = tmp_path / "journal.sqlite"
        with pytest.raises(Interrupt):
            run_sampling(memory_golden, 40, seed=7, journal=journal,
                         progress=interrupt_after(5))
        resumed = run_sampling(memory_golden, 40, seed=7,
                               journal=journal, jobs=jobs)
        assert resumed == baseline
        assert resumed.samples == baseline.samples
        assert resumed.experiments_conducted \
            == baseline.experiments_conducted
        assert resumed.execution.resumed == 5

    def test_register_sampling_resumes(self, tmp_path, register_golden):
        baseline = run_sampling(register_golden, 30, seed=3,
                                domain="register")
        journal = tmp_path / "journal.sqlite"
        with pytest.raises(Interrupt):
            run_sampling(register_golden, 30, seed=3, domain="register",
                         journal=journal, progress=interrupt_after(1))
        resumed = run_sampling(register_golden, 30, seed=3,
                               domain="register", journal=journal, jobs=2)
        assert resumed == baseline
        assert resumed.samples == baseline.samples


class TestInProcessInterrupt:
    """``jobs=1`` *is* the in-process transport: it streams unit by unit
    exactly as ``jobs=None`` does, so an interrupt after *n* units
    leaves exactly *n* journaled."""

    def test_full_scan(self, tmp_path, memory_golden, memory_baseline):
        journal = tmp_path / "journal.sqlite"
        with pytest.raises(Interrupt):
            run_full_scan(memory_golden, jobs=1, journal=journal,
                          progress=interrupt_after(3))
        resumed = run_full_scan(memory_golden, journal=journal,
                                keep_records=True)
        assert resumed == memory_baseline
        assert resumed.execution.resumed == 3
        assert resumed.execution.complete

    def test_sampling(self, tmp_path, memory_golden):
        baseline = run_sampling(memory_golden, 40, seed=7)
        journal = tmp_path / "journal.sqlite"
        with pytest.raises(Interrupt):
            run_sampling(memory_golden, 40, seed=7, jobs=1,
                         journal=journal, progress=interrupt_after(5))
        resumed = run_sampling(memory_golden, 40, seed=7, journal=journal)
        assert resumed == baseline
        assert resumed.samples == baseline.samples
        assert resumed.execution.resumed == 5


class TestWorkerDeath:
    """Fabric workers killed mid-lease: a :class:`ChaosPlan` handed to
    the workers ``jobs=2`` forks."""

    @pytest.mark.parametrize("domain", ["memory", "register"])
    def test_dead_worker_is_retried_to_an_identical_result(
            self, domain, monkeypatch, memory_golden, memory_baseline,
            register_golden, register_baseline):
        golden, baseline = _golden_and_baseline(
            domain, memory_golden, memory_baseline, register_golden,
            register_baseline)
        chaotic_fleet(monkeypatch, DIE_AT_ONCE)
        result = run_full_scan(golden, domain=domain, jobs=2,
                               keep_records=True)
        assert result == baseline
        assert result.execution.shard_retries >= 1
        assert result.execution.complete

    def test_exhausted_retries_degrade_to_partial_result(
            self, monkeypatch, memory_golden, memory_baseline):
        chaotic_fleet(monkeypatch, _dying_key(memory_golden))
        result = run_full_scan(memory_golden, jobs=2, max_retries=1)
        execution = result.execution
        assert not execution.complete
        assert execution.failed_shards == 1
        assert execution.missing
        assert 0.0 < execution.completeness < 1.0
        # The surviving shard's classes are still present and correct.
        for key, outcomes in result.class_outcomes.items():
            assert outcomes == memory_baseline.class_outcomes[key]
        # Weighted counts cover only the completed part of the space.
        assert sum(result.weighted_counts().values()) \
            < result.fault_space_size

    def test_degraded_campaign_resumes_to_completion(
            self, monkeypatch, tmp_path, memory_golden, memory_baseline):
        """Journal + a key that kills its worker + exhausted retries,
        then a clean rerun: the rerun resumes the survivors and equals
        the uninterrupted run."""
        journal = tmp_path / "journal.sqlite"
        chaotic_fleet(monkeypatch, _dying_key(memory_golden))
        partial = run_full_scan(memory_golden, jobs=2, journal=journal,
                                max_retries=1)
        assert not partial.execution.complete
        monkeypatch.undo()
        resumed = run_full_scan(memory_golden, jobs=2, journal=journal,
                                keep_records=True)
        assert resumed == memory_baseline
        assert resumed.execution.complete
        assert resumed.execution.resumed \
            == partial.execution.total_units - len(partial.execution.missing)

    def test_sampling_survives_worker_death(self, monkeypatch,
                                            memory_golden):
        baseline = run_sampling(memory_golden, 40, seed=7)
        chaotic_fleet(monkeypatch, DIE_AT_ONCE)
        result = run_sampling(memory_golden, 40, seed=7, jobs=2)
        assert result == baseline
        assert result.execution.shard_retries >= 1

    def test_killed_worker_resume_differential(
            self, monkeypatch, tmp_path, register_golden):
        """A worker killed at its first result with no retry to spare
        loses its shard; the journal keeps the rest, and a healthy rerun
        on it is the serial result bit for bit."""
        def run(**kw):
            return run_sampling(register_golden, 30, seed=3,
                                sampler="live-only", **kw)

        baseline = run()
        journal = tmp_path / "journal.sqlite"
        chaotic_fleet(monkeypatch, DIE_AT_ONCE)
        partial = run(jobs=2, journal=journal, max_retries=0)
        execution = partial.execution
        assert not execution.complete
        assert execution.failed_shards >= 1
        monkeypatch.undo()
        resumed = run(jobs=2, journal=journal)
        assert resumed == baseline
        assert resumed.execution.complete
        assert resumed.execution.resumed \
            == execution.total_units - len(execution.missing)
        assert resumed.execution.executed == len(execution.missing)


class TestSigintMidClass:
    """^C in the middle of a class — between two of its per-bit
    experiments, inside the executor's per-experiment core — must leave
    the journal with whole classes only."""

    @pytest.mark.parametrize("domain", ["memory", "register"])
    def test_interrupt_between_bits_leaves_no_torn_class(
            self, domain, tmp_path, memory_golden, memory_baseline,
            register_golden, register_baseline):
        from repro.campaign import ExecutorConfig
        from repro.faultspace.domain import get_domain

        golden, baseline = _golden_and_baseline(
            domain, memory_golden, memory_baseline, register_golden,
            register_baseline)
        dom = get_domain(domain)
        journal = tmp_path / "journal.sqlite"
        # No pre-skip, so that every experiment runs through _finish.
        executor = ExecutorConfig(domain=domain,
                                  use_convergence=False).build(golden)
        real_finish = executor._finish
        calls = 0
        # Die three experiments into the third class: the journal must
        # then hold classes 1 and 2 in full and nothing of class 3.
        limit = 2 * dom.bits + 3

        def finish_then_sigint(machine, coordinate):
            nonlocal calls
            calls += 1
            if calls > limit:
                raise KeyboardInterrupt
            return real_finish(machine, coordinate)

        executor._finish = finish_then_sigint
        with pytest.raises(KeyboardInterrupt):
            run_full_scan(golden, domain=domain, executor=executor,
                          journal=journal)
        # The torn third class was not journaled.
        assert list(class_experiments(journal).values()) == [dom.bits] * 2
        resumed = run_full_scan(golden, domain=domain, journal=journal,
                                keep_records=True)
        assert resumed == baseline
        assert resumed.records == baseline.records
        assert resumed.execution.resumed == 2
        assert resumed.execution.complete


def _repro_cli(*args):
    """``(command, env)`` of a ``python -m repro`` child on this tree."""
    import repro

    src_root = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src_root] + ([os.environ["PYTHONPATH"]]
                      if os.environ.get("PYTHONPATH") else [])))
    return [sys.executable, "-m", "repro", *map(str, args)], env


class TestDriverSigkill:
    """``kill -9`` of the campaign driver — no ``finally`` runs, the
    buffered commit window is gone.  The crash contract: the file is sound,
    it holds whole classes only, and the resumed scan equals the
    uninterrupted one bit for bit.  The interpreter engine keeps the
    victim running long after its first commit; results do not depend
    on the engine, so baseline and resume use the default one."""

    PROGRAMS = {"memory": "chain", "register": "prio"}

    @pytest.fixture(scope="class")
    def baselines(self):
        out = {}
        for domain, name in self.PROGRAMS.items():
            golden = record_golden(all_programs()[name]())
            out[domain] = (golden, run_full_scan(
                golden, domain=domain, keep_records=True))
        return out

    @staticmethod
    def _journaled_classes(path) -> int:
        if not path.exists():  # never create the victim's file for it
            return 0
        conn = sqlite3.connect(path)
        try:
            return conn.execute(
                "SELECT COUNT(*) FROM (SELECT DISTINCT axis, first_slot "
                "FROM class_results)").fetchone()[0]
        except sqlite3.OperationalError:
            return 0  # schema not committed yet
        finally:
            conn.close()

    @pytest.mark.parametrize("domain", ["memory", "register"])
    @pytest.mark.parametrize("jobs", [None, 2])
    def test_killed_driver_resumes_bit_for_bit(self, jobs, domain,
                                               baselines, tmp_path):
        golden, baseline = baselines[domain]
        journal = tmp_path / "journal.sqlite"
        command, env = _repro_cli(
            "scan", self.PROGRAMS[domain], "--domain", domain,
            "--engine", "interp", "--journal", journal,
            *([] if jobs is None else ["--jobs", jobs]))
        # Its own process group, so the fabric workers the kill orphans
        # can be reaped afterwards.
        victim = subprocess.Popen(
            command, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, start_new_session=True)
        try:
            deadline = time.monotonic() + 120.0
            while (victim.poll() is None and time.monotonic() < deadline
                   and not self._journaled_classes(journal)):
                time.sleep(0.01)
            victim.kill()
            victim.wait(30.0)
        finally:
            try:
                os.killpg(victim.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        assert victim.returncode == -signal.SIGKILL  # died mid-campaign

        dom = get_domain(domain)
        expected = {dom.class_key(interval): dom.experiment_count(interval)
                    for interval in baseline.partition.live_classes()}
        # Opening runs quick_check and raises on a damaged file.
        with ExperimentJournal(journal) as handle:
            (listed,) = handle.campaigns()
            assert listed["status"] == "running"
            survived = handle.campaign(
                fingerprint=listed["fingerprint"], domain=listed["domain"],
                kind=listed["kind"], params=listed["params"],
                cycles=listed["cycles"]).completed_classes()
        assert 0 < len(survived) < len(expected)
        assert set(survived) <= set(expected)
        assert all(_valid_run(stored, expected[key])
                   for key, stored in survived.items())

        resumed = run_full_scan(golden, domain=domain, journal=journal,
                                keep_records=True)
        assert resumed == baseline
        assert resumed.records == baseline.records
        assert resumed.execution.resumed == len(survived)
        assert resumed.execution.complete
        export_class_results_csv(baseline, tmp_path / "baseline.csv")
        export_class_results_csv(resumed, tmp_path / "resumed.csv")
        assert (tmp_path / "resumed.csv").read_bytes() \
            == (tmp_path / "baseline.csv").read_bytes()


@pytest.mark.os_smoke
class TestTwoDriversOneJournal:
    """One journal file holds many campaigns, and nothing says they
    run one after the other: two ``repro scan --journal`` processes
    write the same file at the same time.  Neither may hold the
    database's write lock across its commit window — the other one
    would die of ``database is locked``."""

    def test_concurrent_scans_both_finish_and_agree(self, tmp_path):
        journal = tmp_path / "journal.sqlite"
        drivers = {}
        for domain in ("memory", "register"):
            command, env = _repro_cli("scan", "sync2", "--domain", domain,
                                      "--journal", journal)
            drivers[domain] = subprocess.Popen(
                command, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True)
        try:
            for domain, driver in drivers.items():
                _, stderr = driver.communicate(timeout=300.0)
                assert driver.returncode == 0, stderr[-2000:]
        finally:
            for driver in drivers.values():
                if driver.poll() is None:
                    driver.kill()
                    driver.wait(30.0)

        with ExperimentJournal(journal) as handle:
            assert [entry["status"] for entry in handle.campaigns()] \
                == ["complete", "complete"]
        golden = record_golden(all_programs()["sync2"]())
        for domain in drivers:
            baseline = run_full_scan(golden, domain=domain,
                                     keep_records=True)
            replayed = run_full_scan(golden, domain=domain,
                                     journal=journal, keep_records=True)
            assert replayed == baseline
            assert replayed.records == baseline.records
            assert replayed.execution.executed == 0
            assert replayed.execution.complete
