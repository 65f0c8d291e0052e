"""Tests for the command-line interface."""

import re

import pytest

from repro.campaign import ExperimentJournal
from repro.cli import build_parser, main

from .campaign.chaos import ChaosPlan, chaotic_fleet


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "P(k faults)" in out

    def test_list(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert "hi" in out
        assert "bin_sem2" in out
        assert "sync2-sumdmr" in out

    def test_scan_hi(self, capsys):
        main(["scan", "hi"])
        out = capsys.readouterr().out
        assert "62.50%" in out
        assert "F: 48" in out

    def test_scan_parallel_matches_serial(self, capsys):
        main(["scan", "hi"])
        serial = capsys.readouterr().out
        main(["scan", "hi", "--jobs", "2"])
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_scan_emits_progress_eta(self, capsys):
        main(["scan", "hi"])
        err = capsys.readouterr().err
        assert "ETA" in err and "classes:" in err

    def test_scan_sampling_mode(self, capsys):
        main(["scan", "counter", "--samples", "50", "--seed", "1"])
        captured = capsys.readouterr()
        assert "sampled 50 faults" in captured.out
        assert "estimated failure count" in captured.out
        assert "experiments:" in captured.err

    def test_scan_register_domain(self, capsys):
        main(["scan", "hi", "--domain", "register"])
        out = capsys.readouterr().out
        assert "[register domain]" in out
        assert "register faults" in out
        assert "weighted coverage" in out
        assert "failure count F" in out

    def test_scan_register_parallel_matches_serial(self, capsys):
        main(["scan", "hi", "--domain", "register"])
        serial = capsys.readouterr().out
        main(["scan", "hi", "--domain", "register", "--jobs", "2"])
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_scan_register_sampling_mode(self, capsys):
        main(["scan", "hi", "--domain", "register", "--samples", "60",
              "--seed", "2"])
        out = capsys.readouterr().out
        assert "[register domain]" in out
        assert "sampled 60 faults" in out
        assert "estimated failure count" in out

    #: ``F̂  (95% Wilson interval [low, high])``, all whole numbers.
    ESTIMATE = re.compile(r"estimated failure count F̂: (\d+)  "
                          r"\(95% Wilson interval \[(\d+), (\d+)\]\)")

    @pytest.mark.parametrize("argv, failing", [
        (["counter", "--samples", "50", "--seed", "1"], True),
        # No failure among five register samples of hi.
        (["hi", "--domain", "register", "--samples", "5", "--seed", "1"],
         False)])
    def test_scan_sampling_prints_the_error_bar(self, capsys, argv,
                                                failing):
        main(["scan", *argv])
        [(estimate, low, high)] = self.ESTIMATE.findall(
            capsys.readouterr().out)
        estimate, low, high = int(estimate), int(low), int(high)
        assert low <= estimate <= high
        assert (estimate > 0) is failing
        assert high > 0  # seeing no failure bounds F, it is no proof of 0

    def test_scan_defaults_to_memory_domain(self, capsys):
        main(["scan", "hi"])
        out = capsys.readouterr().out
        assert "[memory domain]" in out

    def test_scan_rejects_unknown_domain(self):
        with pytest.raises(SystemExit):
            main(["scan", "hi", "--domain", "cache"])

    def test_list_sizes_shows_every_registered_domain(self, capsys):
        from repro.faultspace import DOMAINS

        main(["list", "--sizes"])
        out = capsys.readouterr().out
        for line in out.strip().splitlines():
            for name in DOMAINS:
                assert f"w_{name}=" in line, (name, line)

    def test_list_sizes_match_domain_fault_spaces(self, capsys):
        from repro.campaign import record_golden
        from repro.faultspace import DOMAINS
        from repro.programs import hi

        main(["list", "--sizes"])
        out = capsys.readouterr().out
        line = next(ln for ln in out.splitlines()
                    if ln.startswith("hi "))
        golden = record_golden(hi.baseline())
        for name, domain in DOMAINS.items():
            expected = domain.fault_space(golden).size
            assert f"w_{name}={expected}" in line

    def test_render_hi(self, capsys):
        main(["render", "hi"])
        out = capsys.readouterr().out
        assert "W##R" in out
        assert "memory w=" in out and "register w=" in out

    def test_fig3(self, capsys):
        main(["fig3"])
        out = capsys.readouterr().out
        assert "62.5%" in out and "75.0%" in out

    def test_unknown_program_exits_with_hint(self):
        with pytest.raises(SystemExit, match="unknown program"):
            main(["scan", "nonsense"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_removed_batch_engine_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as usage:
            main(["scan", "hi", "--engine", "batch"])
        assert usage.value.code == 2
        assert "'compiled', 'interp')" in capsys.readouterr().err


class TestCliJournal:
    """The scan --journal surface (a rerun resumes) and its listing."""

    def test_scan_with_journal_then_resume_skips_work(self, capsys,
                                                      tmp_path):
        journal = str(tmp_path / "j.sqlite")
        main(["scan", "hi", "--journal", journal])
        first = capsys.readouterr().out
        main(["scan", "hi", "--journal", journal])
        second = capsys.readouterr().out
        assert "resumed from journal" in second
        assert "0 executed" in second
        # The campaign numbers themselves are identical either way.
        assert first.splitlines()[-2:] == second.splitlines()[-2:]

    def test_scan_fresh_composes_from_section_store(self, capsys,
                                                    tmp_path):
        """--fresh discards the campaign's journal rows, but the shared
        section store survives, so the rerun composes instead of
        re-executing (and says so)."""
        journal = str(tmp_path / "j.sqlite")
        main(["scan", "hi", "--journal", journal])
        capsys.readouterr()
        main(["scan", "hi", "--journal", journal, "--fresh"])
        out = capsys.readouterr().out
        assert "composed from section store" in out

    def test_journal_lists_both_styles(self, capsys, tmp_path):
        journal = str(tmp_path / "j.sqlite")
        main(["scan", "hi", "--journal", journal])
        main(["scan", "hi", "--journal", journal, "--domain", "register",
              "--samples", "40"])
        capsys.readouterr()
        assert main(["journal", "--journal", journal]) == 0
        out = capsys.readouterr().out
        assert "2 campaign(s)" in out
        assert "full-scan" in out and "sampling" in out
        assert "[memory domain]" in out and "[register domain]" in out

    def test_resume_with_program_continues_the_campaign(self, capsys,
                                                        tmp_path):
        """Resuming is rerunning the scan, on fabric workers too: the
        second run executes nothing and prints serial's numbers."""
        journal = str(tmp_path / "j.sqlite")
        main(["scan", "hi", "--jobs", "2", "--journal", journal])
        baseline = capsys.readouterr().out
        main(["scan", "hi", "--jobs", "2", "--journal", journal])
        out = capsys.readouterr().out
        assert "resumed from journal" in out and " 0 executed, " in out
        assert baseline.splitlines()[-2:] == out.splitlines()[-2:]

    def test_journal_lists_an_empty_journal(self, capsys, tmp_path):
        journal = tmp_path / "empty.sqlite"
        ExperimentJournal(journal).close()
        assert main(["journal", "--journal", str(journal)]) == 0
        assert "no campaigns" in capsys.readouterr().out

    @pytest.mark.parametrize("salvage", [[], ["--salvage"]])
    def test_journal_refuses_a_missing_path(self, salvage, capsys,
                                            tmp_path):
        """Inspecting is read-only: a mistyped path is refused by name
        and no empty journal appears there."""
        journal = tmp_path / "typo.sqlite"
        with pytest.raises(SystemExit, match="typo.sqlite") as refused:
            main(["journal", "--journal", str(journal), *salvage])
        assert refused.value.code not in (0, None)
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []

    def test_journal_requires_journal(self):
        with pytest.raises(SystemExit):
            main(["journal"])

    def test_unopenable_journal_is_one_line_not_corrupt(self, tmp_path):
        """A journal path whose directory does not exist cannot be
        opened; nothing there is corrupt, so nothing advises salvage."""
        path = tmp_path / "missing" / "j.sqlite"
        with pytest.raises(SystemExit) as refused:
            main(["scan", "hi", "--journal", str(path)])
        message = str(refused.value.code)
        assert message.startswith("repro: cannot open journal")
        assert "salvage" not in message and "\n" not in message

    def test_corrupt_journal_is_one_line_naming_salvage(self, tmp_path):
        path = tmp_path / "garbage.sqlite"
        path.write_bytes(b"not a database, " * 512)
        with pytest.raises(SystemExit) as refused:
            main(["scan", "hi", "--journal", str(path)])
        message = str(refused.value.code)
        assert message.startswith("repro: ") and "--salvage" in message

    def test_robustness_flags_are_accepted(self, capsys):
        main(["scan", "hi", "--jobs", "2", "--max-retries", "1"])
        out = capsys.readouterr().out
        assert "weighted coverage" in out


class TestCliCompare:
    """The `compare` incremental sweep and `journal` maintenance."""

    ARGS = ["compare", "hi", "hi-dft4", "hi-mem2"]

    def test_compare_prints_the_table(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "variant" in out and "ratio" in out
        assert "baseline" in out
        assert "hi-dft4" in out and "hi-mem2" in out

    def test_compare_warm_sweep_is_identical(self, capsys, tmp_path):
        journal = str(tmp_path / "j.sqlite")
        cold_csv = tmp_path / "cold.csv"
        warm_csv = tmp_path / "warm.csv"
        assert main(self.ARGS + ["--journal", journal,
                                 "--csv", str(cold_csv)]) == 0
        cold = capsys.readouterr().out
        assert main(self.ARGS + ["--journal", journal,
                                 "--csv", str(warm_csv)]) == 0
        warm = capsys.readouterr().out
        assert warm_csv.read_bytes() == cold_csv.read_bytes()
        # The comparison tables agree line for line.
        table = [line for line in cold.splitlines()
                 if line.startswith(("variant", "hi"))]
        assert table and all(line in warm for line in table)

    def test_compare_rejects_sampling(self, capsys):
        """compare needs full scans, so it has no sampling flags at all:
        argparse refuses them (a flag a subcommand accepts is a flag it
        reads)."""
        with pytest.raises(SystemExit) as usage:
            main(["compare", "hi", "hi-dft4", "--samples", "10"])
        assert usage.value.code == 2
        assert "--samples" in capsys.readouterr().err

    def test_compare_rejects_duplicates(self):
        with pytest.raises(SystemExit, match="duplicate"):
            main(["compare", "hi", "hi"])

    def test_compare_unknown_variant_exits_with_hint(self):
        with pytest.raises(SystemExit, match="unknown program"):
            main(["compare", "hi", "nonsense"])

    def test_guarded_family_is_registered(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        for name in ("guarded", "guarded-sum", "guarded-sumdmr",
                     "guarded-tmr"):
            assert name in out

    def test_journal_lists_campaigns_and_sections(self, capsys,
                                                  tmp_path):
        journal = str(tmp_path / "j.sqlite")
        main(["scan", "hi", "--journal", journal])
        capsys.readouterr()
        assert main(["journal", "--journal", journal]) == 0
        out = capsys.readouterr().out
        assert "1 campaign(s)" in out
        assert "section store:" in out
        assert "fingerprint=" in out
        assert "bytes on disk" in out

    def test_journal_gc_reports_freed_sections(self, capsys, tmp_path):
        journal = str(tmp_path / "j.sqlite")
        main(["scan", "hi", "--journal", journal])
        capsys.readouterr()
        assert main(["journal", "--journal", journal, "--gc"]) == 0
        out = capsys.readouterr().out
        assert "gc: dropped 0 orphaned section(s)" in out


class TestCliParallelCombos:
    def test_register_sampling_parallel_matches_serial(self, capsys):
        """scan --domain register --samples --jobs, previously untested."""
        main(["scan", "hi", "--domain", "register", "--samples", "60",
              "--seed", "2"])
        serial = capsys.readouterr().out
        main(["scan", "hi", "--domain", "register", "--samples", "60",
              "--seed", "2", "--jobs", "2"])
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_memory_sampling_parallel_matches_serial(self, capsys):
        main(["scan", "counter", "--samples", "50", "--seed", "1"])
        serial = capsys.readouterr().out
        main(["scan", "counter", "--samples", "50", "--seed", "1",
              "--jobs", "2"])
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_register_scan_journal_parallel_resume(self, capsys,
                                                   tmp_path):
        journal = str(tmp_path / "j.sqlite")
        main(["scan", "hi", "--domain", "register"])
        baseline = capsys.readouterr().out
        main(["scan", "hi", "--domain", "register", "--journal", journal])
        capsys.readouterr()
        main(["scan", "hi", "--domain", "register", "--journal", journal,
              "--jobs", "2"])
        resumed = capsys.readouterr().out
        assert "resumed from journal" in resumed
        assert baseline.splitlines()[-2:] == resumed.splitlines()[-2:]


class TestCliDist:
    """`scan --jobs N` on the fabric of forked workers, and incomplete
    exit codes."""

    def test_scan_dist_matches_serial_histogram(self, capsys):
        """A full scan on two fabric workers prints serial's table."""
        assert main(["scan", "hi"]) == 0
        serial = capsys.readouterr().out
        assert main(["scan", "hi", "--jobs", "2"]) == 0
        dist = capsys.readouterr().out

        def histogram(text):
            skip = ("execution:", "  complete:")
            return [line for line in text.splitlines()
                    if not line.startswith(skip)]

        assert histogram(dist) == histogram(serial)

    @pytest.mark.parametrize("flag,value", [
        ("--seed", "7"), ("--sampler", "biased-class")])
    @pytest.mark.parametrize("mode", [[], ["--jobs", "2"],
                                      ["--samples", "0"]])
    def test_scan_sampling_flags_need_samples(self, flag, value, mode,
                                              monkeypatch):
        """Only a sampled scan reads these flags: a full scan refuses
        them by name before recording the golden run, instead of
        printing the output it prints without them."""
        import repro.cli

        def no_golden(*args, **kwargs):
            raise AssertionError("golden run recorded")

        with monkeypatch.context() as patched:
            patched.setattr(repro.cli, "record_golden", no_golden)
            with pytest.raises(SystemExit, match=flag) as refused:
                main(["scan", "hi", *mode, flag, value])
        assert refused.value.code not in (0, None)
        if not mode:
            assert main(["scan", "hi", "--samples", "10", flag, value]) == 0

    @pytest.mark.parametrize("argv", [
        ["scan", "hi", "--jobs", "2", "--chaos", "{}"],
        ["scan", "hi", "--jobs", "2", "--chaos-seed", "0"],
        ["compare", "hi", "hi-dft4", "--chaos", "{}"],
    ])
    def test_chaos_is_not_a_cli_flag(self, argv, capsys):
        """Fault injection into the fabric is a test fixture: its flags
        are usage errors."""
        with pytest.raises(SystemExit) as usage:
            main(argv)
        assert usage.value.code == 2
        assert argv[-2] in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["scan", "memcopy", "--jobs", "-1"],
        ["scan", "hi", "--jobs", "2", "--shards", "0"],
        ["scan", "hi", "--jobs", "2", "--crosscheck", "1"],
        ["scan", "hi", "--jobs", "2", "--shards", "-1"],
        ["scan", "hi", "--checkpoint-stride", "-1"],
        ["scan", "hi", "--samples", "-5"],
        ["scan", "hi", "--max-retries", "-1"],
        ["scan", "hi", "--shard-timeout", "-1"],
        ["compare", "hi", "hi-dft4", "--shard-timeout", "0"],
        ["coordinator", "hi"],
        ["worker", "--connect=h:1"],
        ["fig2", "--rounds", "0"],
        ["fig2", "--items", "0"],
        ["render", "hi", "--max-cycles", "-1"],
        ["render", "hi", "--max-bytes", "0"],
        ["scan", "hi", "--jobs", "2", "--shards", "4"],
    ])
    def test_fabric_arguments_are_checked_at_parse_time(self, argv, capsys):
        """A number out of its range — a negative job, sample or retry
        count — is a usage error before anything runs: not a serial
        scan, not a traceback.  So are the removed hand-started fleet
        (``coordinator``, ``worker``), its ``--crosscheck`` audit, the
        ``--shards`` lease knob and the ``--shard-timeout`` lease
        deadline."""
        with pytest.raises(SystemExit) as usage:
            main(argv)
        assert usage.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert argv[-2] in captured.err

    def test_an_unwritable_csv_exits_with_one_line(self, capsys, tmp_path):
        """``compare --csv`` into a directory that does not exist: the
        table prints, then one ``repro:`` line, not a traceback."""
        path = tmp_path / "missing" / "c.csv"
        with pytest.raises(SystemExit) as refused:
            main(["compare", "hi", "hi-dft4", "--csv", str(path)])
        assert str(refused.value.code).startswith(
            f"repro: cannot write --csv {path}: ")
        assert "hi-dft4" in capsys.readouterr().out

    def test_incomplete_scan_exits_nonzero(self, monkeypatch, capsys):
        """A campaign that lost shards for good must not exit 0 — CI
        pipelines gate on the exit code, not on parsing the report.
        Here every fabric worker dies at its first result, and no lease
        may be retried."""
        chaotic_fleet(monkeypatch, ChaosPlan(die_after_results=0))
        status = main(["scan", "memcopy", "--jobs", "2",
                       "--max-retries", "0"])
        out = capsys.readouterr().out
        assert status == 3
        assert "INCOMPLETE" in out

    def test_journal_lists_an_incomplete_campaign_with_exit_3(
            self, monkeypatch, capsys, tmp_path):
        """The same lost campaign, journaled: the listing shows it
        incomplete and exits 3 until a rerun finishes it."""
        journal = str(tmp_path / "j.sqlite")
        chaotic_fleet(monkeypatch, ChaosPlan(die_after_results=0))
        assert main(["scan", "memcopy", "--jobs", "2", "--max-retries",
                     "0", "--journal", journal]) == 3
        capsys.readouterr()
        assert main(["journal", "--journal", journal]) == 3
        assert "1 campaign(s) incomplete" in capsys.readouterr().out
        monkeypatch.undo()
        assert main(["scan", "memcopy", "--jobs", "2", "--journal",
                     journal]) == 0
        assert main(["journal", "--journal", journal]) == 0
