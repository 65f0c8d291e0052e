"""Campaign-level engine equivalence: the acceptance gate for the
compiled execution core.

The same campaign (full scan, brute force, sampling; every registered
fault domain; convergence and slicing on and off) run under the
``interp``, ``compiled`` and ``auto`` engines must produce
bit-for-bit identical results: equal outcome maps and records, equal
journal rows, and byte-identical exported CSV files.  The engine knob
is a pure optimization — any observable difference is a bug.  ``auto``
exercises the planner on top: whichever engine it picks per
(golden, domain) must land on the same bits as the rest.
"""

import sqlite3

import pytest

from repro.campaign import (
    ExecutorConfig,
    record_golden,
    run_brute_force,
    run_full_scan,
    run_sampling,
)
from repro.campaign.database import export_class_results_csv
from repro.programs import hi, micro

ENGINE_NAMES = ["interp", "compiled", "auto"]


@pytest.fixture(scope="module")
def hi_golden():
    return record_golden(hi.baseline())


@pytest.fixture(scope="module")
def counter_golden():
    return record_golden(micro.counter(2))


def scan_signature(result):
    return (result.class_outcomes, result.weighted_counts(),
            result.weighted_failure_count())


class TestFullScanEquivalence:
    @pytest.mark.parametrize(
        "domain", ["memory", "register", "burst2", "stuck", "pc"])
    def test_scan_identical_across_engines(self, hi_golden, domain,
                                           tmp_path):
        results = {}
        for engine in ENGINE_NAMES:
            results[engine] = run_full_scan(
                hi_golden, domain=domain, keep_records=True,
                config=ExecutorConfig(engine=engine))
        base = results["interp"]
        for engine in ENGINE_NAMES[1:]:
            other = results[engine]
            assert scan_signature(other) == scan_signature(base)
            assert other.records == base.records

        # Exported CSVs are byte-identical.
        blobs = {}
        for engine, result in results.items():
            path = tmp_path / f"{domain}-{engine}.csv"
            export_class_results_csv(result, path)
            blobs[engine] = path.read_bytes()
        for engine in ENGINE_NAMES[1:]:
            assert blobs[engine] == blobs["interp"], engine

    def test_scan_without_convergence_or_snapshots(self, counter_golden):
        """The slow paths (no early-exit, no fast-forward) agree too."""
        base = None
        for engine in ENGINE_NAMES:
            result = run_full_scan(
                counter_golden,
                config=ExecutorConfig(engine=engine,
                                      use_convergence=False,
                                      use_snapshots=False,
                                      early_stop=False))
            if base is None:
                base = result
            else:
                assert scan_signature(result) == scan_signature(base)

    def test_parallel_scan_matches_serial(self, hi_golden):
        serial = run_full_scan(
            hi_golden, config=ExecutorConfig(engine="compiled"))
        parallel = run_full_scan(
            hi_golden, jobs=2, config=ExecutorConfig(engine="compiled"))
        assert scan_signature(parallel) == scan_signature(serial)

    def test_journal_rows_identical(self, counter_golden, tmp_path):
        """Journaled campaigns leave identical class-result rows."""
        dumps = {}
        for engine in ENGINE_NAMES:
            path = tmp_path / f"journal-{engine}.sqlite"
            run_full_scan(counter_golden,
                          config=ExecutorConfig(engine=engine),
                          journal=path)
            conn = sqlite3.connect(path)
            try:
                tables = sorted(
                    name for (name,) in conn.execute(
                        "SELECT name FROM sqlite_master "
                        "WHERE type = 'table'")
                    if "class" in name or "result" in name)
                assert tables, "no result tables journaled"
                dump = []
                for table in tables:
                    columns = [row[1] for row in conn.execute(
                        f"PRAGMA table_info({table})")]
                    keep = [c for c in columns
                            if c not in ("id", "campaign_id")]
                    dump.append((table, sorted(
                        conn.execute(
                            f"SELECT {', '.join(keep)} FROM {table}")
                        .fetchall())))
                dumps[engine] = dump
            finally:
                conn.close()
        for engine in ENGINE_NAMES[1:]:
            assert dumps[engine] == dumps["interp"], engine

    def test_engine_resume_interoperates(self, counter_golden, tmp_path):
        """A journal written under one engine resumes under another —
        the engine is deliberately not part of the campaign key."""
        path = tmp_path / "switch.sqlite"
        first = run_full_scan(counter_golden,
                              config=ExecutorConfig(engine="interp"),
                              journal=path)
        second = run_full_scan(counter_golden,
                               config=ExecutorConfig(engine="compiled"),
                               journal=path)
        assert scan_signature(second) == scan_signature(first)


class TestBruteForceEquivalence:
    @pytest.mark.parametrize(
        "domain", ["memory", "register", "burst2", "stuck", "pc"])
    def test_brute_force_identical(self, counter_golden, domain):
        base = None
        for engine in ENGINE_NAMES:
            result = run_brute_force(
                counter_golden, domain=domain,
                config=ExecutorConfig(engine=engine))
            if base is None:
                base = result
            else:
                assert result.outcomes == base.outcomes
                assert result.counts() == base.counts()

    def test_brute_force_agrees_with_scan_per_engine(self,
                                                     counter_golden):
        """Each engine independently satisfies the pruning invariant."""
        for engine in ENGINE_NAMES:
            config = ExecutorConfig(engine=engine)
            scan = run_full_scan(counter_golden, config=config)
            brute = run_brute_force(counter_golden, config=config)
            assert scan.weighted_counts() == brute.counts()


class TestSamplingEquivalence:
    def test_sampling_identical_across_engines(self, hi_golden):
        base = None
        for engine in ENGINE_NAMES:
            result = run_sampling(hi_golden, 64, seed=7,
                                  config=ExecutorConfig(engine=engine))
            if base is None:
                base = result
            else:
                assert result.counts() == base.counts()
                assert result.failure_count() == base.failure_count()


class TestCLIEngineFlag:
    def test_scan_command_accepts_engine(self, tmp_path, capsys):
        from repro.cli import main

        outputs = {}
        for engine in ENGINE_NAMES:
            main(["scan", "hi", "--engine", engine])
            outputs[engine] = capsys.readouterr().out
        for engine in ENGINE_NAMES[1:]:
            assert outputs[engine] == outputs["interp"], engine

    def test_unknown_engine_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["scan", "hi", "--engine", "turbo"])
