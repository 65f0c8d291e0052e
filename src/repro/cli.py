"""Command-line interface: ``python -m repro <command>``.

Commands:

``table1``
    Print the Poisson fault-count table (Table I).
``scan <program> [--domain D] [--jobs N] [--samples N] [--journal P]``
    Run a def/use-pruned full fault-space scan of a registered program
    and print its outcome histogram, coverage and failure count; with
    ``--samples`` run a sampled campaign instead.  ``--domain`` picks
    the fault model (memory bits by default, ``register`` for the
    Section VI-B register file).  ``--jobs N`` runs the campaign on N
    forked fabric workers (0 = one per usable CPU; 1 = in process) and
    a live progress/ETA line is printed to stderr.  ``--journal PATH``
    journals every completed work unit to a SQLite file: a scan rerun
    against the same journal resumes where it left off (``--fresh``
    discards the journaled campaign first).  ``--max-retries`` is each
    fabric shard's budget of re-grants after its worker died: once it
    is spent, the shard's units are reported missing — never invented.
    ``--seed`` /
    ``--sampler`` configure a sampled scan and are refused on a full
    one.  ``--engine interp`` runs the reference
    interpreter instead of the template JIT.  ``--no-convergence`` /
    ``--checkpoint-stride`` control the early exits (golden checkpoint
    ladder + state memo; a pure optimization, outcomes are identical
    either way), counted as "early exits (ladder + state memo)".
``compare <baseline> <variant>... [--journal P] [--csv P]``
    Run baseline + N hardened variants as one comparison sweep and
    print the side-by-side table of the sound failure-count ratio and
    the pitfall metrics.  With ``--journal`` the sweep is incremental:
    a variant the journal already holds whole resumes without executing
    anything, and sections shared with earlier campaigns (a previous
    sweep, or other variants) compose from the section store instead of
    re-executing.  The journal stores each scan's results, never a
    summary: the table is recomputed from them.
``journal --journal PATH [--gc] [--salvage]``
    List an existing journal's campaigns with their progress and
    fabric event log (shape rejections, salvage prunes, and whatever
    kinds an older coordinator wrote), its section store
    (stored results and referencing campaigns per section) and a size
    report; exits ``3`` when any campaign is incomplete.  ``--gc``
    drops section results no campaign references.  ``--salvage``
    rebuilds a corrupt journal from its readable rows first (the
    original is kept at ``PATH.corrupt``); a journal another process
    holds locked is busy, not corrupt, and is never salvaged.
``fig3``
    Run the Section IV dilution experiment and print the table.
``fig2 [--rounds N] [--items N]``
    Run the four Figure 2 campaigns (reduced sizes by default) and
    print the panels and verdicts.
``list [--sizes]``
    List the registered benchmark programs; ``--sizes`` records each
    golden run and prints every registered domain's fault-space size.
``render <program>``
    Print the ASCII fault-space diagram of a (small) program.

Exit codes: ``0`` success; ``3`` when a scan finished *incomplete*
(shards abandoned after their retry budget — the printed report lists
the missing units), so scripted campaigns can detect degraded results;
``1`` with one ``repro: …`` line for a path that cannot be used.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .analysis import (
    completeness_report,
    fig2_data,
    fig2_report,
    fig3_report,
    outcome_histogram,
    render_fault_space,
    table1_report,
    verdict_report,
)
from .campaign import (
    CampaignSummary,
    ExecutorConfig,
    ExperimentJournal,
    JournalError,
    record_golden,
    run_full_scan,
    run_sampling,
)
from .campaign.pipeline import DEFAULT_MAX_RETRIES
from .campaign.runner import SAMPLERS
from .engine import ENGINES
from .faultspace import DOMAINS, REGISTER, get_domain
from .metrics import (
    extrapolated_failure_interval,
    weighted_coverage,
    weighted_failure_count,
)
from .programs import all_programs, bin_sem2, hi, sync2


#: Exit status of a scan whose result is incomplete (missing units).
EXIT_INCOMPLETE = 3


def _count_arg(least: int):
    """An argparse type: an int of at least ``least``."""
    def count(value: str) -> int:
        number = int(value)
        if number < least:
            raise argparse.ArgumentTypeError(
                f"must be >= {least}, got {number}")
        return number
    return count


def _eta_progress(label: str):
    """Progress callback printing a live ``done/total`` + ETA line."""
    start = time.monotonic()

    def callback(done: int, total: int) -> None:
        elapsed = time.monotonic() - start
        remaining = elapsed / done * (total - done) if done else 0.0
        end = "\n" if done >= total else ""
        print(f"\r{label}: {done}/{total} ({100.0 * done / total:3.0f}%)"
              f"  elapsed {elapsed:5.1f}s  ETA {remaining:5.1f}s",
              end=end, file=sys.stderr, flush=True)

    return callback


def _resolve(name: str):
    programs = all_programs()
    if name not in programs:
        available = ", ".join(sorted(programs))
        raise SystemExit(f"unknown program {name!r}; available: "
                         f"{available}")
    return programs[name]()


def cmd_table1(_args) -> None:
    print(table1_report())


def cmd_list(args) -> None:
    for name, thunk in sorted(all_programs().items()):
        program = thunk()
        line = (f"{name:20s} rom={program.rom_size:4d} "
                f"ram={program.ram_size:5d}B")
        if args.sizes:
            golden = record_golden(program)
            line += f" Δt={golden.cycles:6d}"
            # Every registered fault model, not just memory/register:
            # a new domain must show up here without a CLI change.
            for domain_name in sorted(DOMAINS):
                domain = DOMAINS[domain_name]
                size = domain.fault_space(golden).size
                line += f" w_{domain_name}={size}"
        print(line)


def cmd_render(args) -> None:
    golden = record_golden(_resolve(args.program))
    print(f"{golden.program.name}: Δt={golden.cycles} cycles, "
          f"memory w={golden.fault_space.size}, "
          f"register w={REGISTER.fault_space(golden).size}")
    print(render_fault_space(golden, max_cycles=args.max_cycles,
                             max_bytes=args.max_bytes))


def _campaign_setup(args, name: str):
    """What every campaign command derives from its flags:
    ``(program, golden run, executor config)``."""
    program = _resolve(name)
    golden = record_golden(program,
                           checkpoint_stride=args.checkpoint_stride)
    config = ExecutorConfig(use_convergence=not args.no_convergence,
                            engine=args.engine)
    return program, golden, config


def _list_campaigns(path, campaigns) -> int:
    """Print a journal's campaign list, each with its fabric event log;
    return how many campaigns are incomplete."""
    if not campaigns:
        print(f"journal {path}: no campaigns")
        return 0
    print(f"journal {path}: {len(campaigns)} campaign(s)")
    for entry in campaigns:
        print(f"  #{entry['id']} {entry['kind']:11s} "
              f"[{entry['domain']} domain] {entry['status']:8s} "
              f"{entry['journaled_experiments']:8d} experiments "
              f"journaled  fingerprint={entry['fingerprint'][:12]} "
              f"build={entry['params'].get('build', '-')[:12]}")
        if entry["events"]:
            print(f"    events: {len(entry['events'])}")
            for event in entry["events"]:
                worker = f" [{event['worker']}]" if event["worker"] else ""
                print(f"      {event['kind']:20s}{worker} {event['detail']}")
    return sum(entry["status"] != "complete" for entry in campaigns)


def _print_execution(execution) -> None:
    """Print the completeness report when there is anything to say."""
    if execution is None:
        return
    if (execution.resumed or execution.shard_retries or execution.convergence_hits
            or execution.slice_hits or execution.composed_hits
            or execution.integrity_rejected or execution.discarded_results
            or execution.workers or not execution.complete):
        print(completeness_report(execution))


def _exit_status(execution) -> int:
    """0 for a complete campaign, :data:`EXIT_INCOMPLETE` otherwise."""
    if execution is not None and not execution.complete:
        return EXIT_INCOMPLETE
    return 0


def _print_scan(scan) -> int:
    """Print a full-scan result; return the process exit status."""
    _print_execution(scan.execution)
    print(outcome_histogram(scan))
    print(f"\nweighted coverage: {100 * weighted_coverage(scan):.2f}%")
    print(f"absolute failure count F: "
          f"{weighted_failure_count(scan).total:.0f}")
    return _exit_status(scan.execution)


def cmd_scan(args) -> int:
    # Flags only a sampled scan reads; a full scan would lose them.
    for flag, value in (("--seed", args.seed), ("--sampler", args.sampler)):
        if not args.samples and value is not None:
            raise SystemExit(f"{flag} configures a sampled scan "
                             f"(--samples N); drop {flag}")
    program, golden, config = _campaign_setup(args, args.program)
    domain = get_domain(args.domain)
    space = domain.fault_space(golden)
    resume = not args.fresh
    print(f"{program.name} [{domain.name} domain]: "
          f"Δt={golden.cycles} cycles, w={space.size}")
    if args.samples:
        result = run_sampling(golden, args.samples, seed=args.seed or 0,
                              sampler=args.sampler or "uniform",
                              jobs=args.jobs,
                              domain=domain, journal=args.journal,
                              resume=resume, max_retries=args.max_retries,
                              config=config,
                              progress=_eta_progress("experiments"))
        _print_execution(result.execution)
        scale = result.population / result.n_samples
        print(f"sampled {result.n_samples} faults "
              f"({result.experiments_conducted} experiments conducted, "
              f"sampler={result.sampler})")
        for outcome, count in sorted(result.counts().items(),
                                     key=lambda kv: -kv[1]):
            print(f"  {outcome.value:24s} {count:8d}  "
                  f"(extrapolated {count * scale:14.0f})")
        interval = extrapolated_failure_interval(result)
        print(f"estimated failure count F̂: "
              f"{result.failure_count() * scale:.0f}  "
              f"(95% Wilson interval [{interval.low:.0f}, "
              f"{interval.high:.0f}])")
        return _exit_status(result.execution)
    return _print_scan(run_full_scan(
        golden, jobs=args.jobs, domain=domain, journal=args.journal,
        resume=resume, max_retries=args.max_retries, config=config,
        progress=_eta_progress("classes")))


def cmd_compare(args) -> int:
    """Sweep baseline + N variants as one incremental comparison."""
    from .metrics import (
        comparison_report,
        comparison_table,
        export_comparison_csv,
    )

    domain = get_domain(args.domain)
    names = [args.baseline] + args.variants
    duplicates = {n for n in names if names.count(n) > 1}
    if duplicates:
        raise SystemExit(f"duplicate variant(s): "
                         f"{', '.join(sorted(duplicates))}")
    status = 0
    results = {}
    for name in names:
        _, golden, config = _campaign_setup(args, name)
        print(f"{name} [{domain.name} domain]: Δt={golden.cycles} "
              f"cycles, w={domain.fault_space(golden).size}")
        scan = run_full_scan(golden, jobs=args.jobs, domain=domain,
                             journal=args.journal,
                             max_retries=args.max_retries, config=config,
                             progress=_eta_progress("classes"))
        _print_execution(scan.execution)
        status = status or _exit_status(scan.execution)
        results[name] = scan
    if status:
        print("comparison skipped: at least one campaign is incomplete; "
              "rerun with the same journal to finish")
        return status
    reports = [comparison_report(name, results[args.baseline],
                                 results[name])
               for name in args.variants]
    print()
    print(comparison_table(reports))
    if args.csv:
        try:
            export_comparison_csv(reports, args.csv)
        except OSError as exc:
            raise SystemExit(f"repro: cannot write --csv {args.csv}: {exc}")
        print(f"\ncomparison CSV written to {args.csv}")
    return status


def cmd_journal(args) -> int:
    """Inspect and maintain a journal's campaigns and section store."""
    if not os.path.exists(args.journal):  # opening one would create it
        raise SystemExit(f"no journal at {args.journal!r}")
    with ExperimentJournal(args.journal, salvage=args.salvage) as journal:
        salvaged = journal.salvage_report
        if salvaged is not None:
            print(f"salvage: journal failed its integrity check; "
                  f"rebuilt from {salvaged.total_rows} readable row(s) "
                  f"(original kept at {salvaged.source})")
            if salvaged.truncated:
                print(f"salvage: table(s) truncated by page damage: "
                      f"{', '.join(salvaged.truncated)}")
        if args.gc:
            freed = journal.gc_sections()
            print(f"gc: dropped {freed} orphaned section(s)")
        incomplete = _list_campaigns(args.journal, journal.fabric_report())
        sections = journal.sections()
        print(f"section store: {len(sections)} section(s)")
        for entry in sections:
            print(f"  #{entry['id']} {entry['program']:20s} "
                  f"[{entry['domain']} domain] slots "
                  f"{entry['first_slot']}-{entry['last_slot']}: "
                  f"{entry['stored_results']:6d} stored result(s), "
                  f"{entry['campaigns']} campaign(s)  "
                  f"fingerprint={entry['fingerprint'][:12]}")
        sizes = journal.size_report()
        file_bytes = sizes.pop("file_bytes")
        per_result = sizes.pop("bytes_per_result")
        counts = ", ".join(f"{table}={count}"
                           for table, count in sorted(sizes.items())
                           if count)
        print(f"size: {file_bytes} bytes on disk ({counts or 'empty'})")
        if per_result:
            print(f"      {per_result:.0f} bytes per stored experiment")
    if incomplete:
        print(f"{incomplete} campaign(s) incomplete — rerun with the "
              f"same journal to finish")
        return EXIT_INCOMPLETE
    return 0


def cmd_fig3(_args) -> None:
    summaries = {}
    for name, thunk in (("hi", hi.baseline),
                        ("hi-dft4", lambda: hi.dft_variant(4)),
                        ("hi-dftprime4", lambda: hi.dft_prime_variant(4)),
                        ("hi-mem2", lambda: hi.memory_diluted_variant(2))):
        summaries[name] = CampaignSummary.from_result(
            run_full_scan(record_golden(thunk())))
    print(fig3_report(summaries))


def cmd_fig2(args) -> None:
    variants = {
        "bin_sem2": bin_sem2.baseline(args.rounds),
        "bin_sem2-sumdmr": bin_sem2.hardened(args.rounds),
        "sync2": sync2.baseline(args.items),
        "sync2-sumdmr": sync2.hardened(args.items),
    }
    summaries = {}
    for name, program in variants.items():
        print(f"scanning {name}...", file=sys.stderr, flush=True)
        summaries[name] = CampaignSummary.from_result(
            run_full_scan(record_golden(program), jobs=args.jobs))
    print(fig2_report(fig2_data(summaries)))
    print()
    print(verdict_report(summaries["bin_sem2"],
                         summaries["bin_sem2-sumdmr"], "bin_sem2"))
    print()
    print(verdict_report(summaries["sync2"], summaries["sync2-sumdmr"],
                         "sync2"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DSN'15 fault-injection pitfalls reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print Table I").set_defaults(
        func=cmd_table1)
    listing = sub.add_parser("list", help="list registered programs")
    listing.add_argument("--sizes", action="store_true",
                         help="record golden runs and print every "
                              "registered domain's fault-space size")
    listing.set_defaults(func=cmd_list)

    render = sub.add_parser("render", help="ASCII fault-space diagram")
    render.add_argument("program")
    render.add_argument("--max-cycles", type=_count_arg(1), default=64)
    render.add_argument("--max-bytes", type=_count_arg(1), default=8)
    render.set_defaults(func=cmd_render)

    def add_jobs_arg(cmd) -> None:
        cmd.add_argument("--jobs", "-j", type=_count_arg(0), default=None,
                         help="worker processes (0 = one per CPU this "
                              "process may use; "
                              "default: serial)")

    def add_sampling_args(cmd) -> None:
        cmd.add_argument("--samples", type=_count_arg(0), default=0,
                         help="run a sampled campaign of N faults instead "
                              "of the full scan")
        cmd.add_argument("--seed", type=int, default=None,
                         help="sampling RNG seed (with --samples; "
                              "default: 0)")
        cmd.add_argument("--sampler", choices=SAMPLERS, default=None,
                         help="sampling strategy (with --samples; "
                              "default: uniform)")

    def add_campaign_args(cmd, *, journal_required: bool) -> None:
        """The flags every campaign command reads (_campaign_setup)."""
        cmd.add_argument("--domain", choices=sorted(DOMAINS),
                         default="memory",
                         help="fault model to scan (default: memory)")
        cmd.add_argument("--journal", metavar="PATH",
                         required=journal_required, default=None,
                         help="SQLite experiment journal: completed work "
                              "units are recorded durably and a rerun "
                              "resumes instead of restarting")
        cmd.add_argument("--max-retries", type=_count_arg(0),
                         default=DEFAULT_MAX_RETRIES, metavar="N",
                         help="re-grants per fabric shard after its "
                              "worker died before degrading to a "
                              "partial result (default: "
                              f"{DEFAULT_MAX_RETRIES})")
        cmd.add_argument("--no-convergence", action="store_true",
                         help="disable the early exits (ladder + "
                              "state memo): classify every "
                              "post-injection tail by running it to "
                              "completion; outcomes are identical "
                              "either way")
        cmd.add_argument("--engine", choices=sorted(ENGINES),
                         default="compiled",
                         help="execution engine: the template-JIT "
                              "'compiled' core (default) or the "
                              "reference 'interp' interpreter; results "
                              "are bit-identical for either")
        cmd.add_argument("--checkpoint-stride", type=_count_arg(0),
                         metavar="K",
                         help="golden checkpoint-digest stride in cycles "
                              "(default: auto-tuned from the runtime; "
                              "0 disables the ladder)")

    scan = sub.add_parser("scan", help="full fault-space scan")
    scan.add_argument("program")
    add_campaign_args(scan, journal_required=False)
    add_jobs_arg(scan)
    add_sampling_args(scan)
    scan.add_argument("--fresh", action="store_true",
                      help="discard the journaled campaign and restart "
                           "(with --journal)")
    scan.set_defaults(func=cmd_scan)

    compare = sub.add_parser(
        "compare",
        help="incremental baseline-vs-variants comparison sweep")
    compare.add_argument("baseline",
                         help="baseline program the ratios divide by")
    compare.add_argument("variants", nargs="+",
                         help="hardened variant program(s) to compare")
    add_campaign_args(compare, journal_required=False)
    add_jobs_arg(compare)
    compare.add_argument("--csv", metavar="PATH", default=None,
                         help="also export the comparison table as CSV")
    compare.set_defaults(func=cmd_compare)

    journal = sub.add_parser(
        "journal",
        help="inspect a journal's campaigns, fabric state and section "
             "store")
    journal.add_argument("--journal", metavar="PATH", required=True,
                         help="SQLite experiment journal to inspect")
    journal.add_argument("--gc", action="store_true",
                         help="drop section results no campaign "
                              "references before reporting")
    journal.add_argument("--salvage", action="store_true",
                         help="rebuild a corrupt journal from its "
                              "readable rows first (original kept at "
                              "PATH.corrupt)")
    journal.set_defaults(func=cmd_journal)

    sub.add_parser("fig3", help="Section IV dilution table").set_defaults(
        func=cmd_fig3)

    fig2 = sub.add_parser("fig2", help="Figure 2 campaigns")
    fig2.add_argument("--rounds", type=_count_arg(1), default=2,
                      help="bin_sem2 rounds (paper scale: 4)")
    fig2.add_argument("--items", type=_count_arg(1), default=4,
                      help="sync2 items (paper scale: 10)")
    add_jobs_arg(fig2)
    fig2.set_defaults(func=cmd_fig2)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Commands return their exit status; informational ones return None.
    try:
        return args.func(args) or 0
    except JournalError as exc:  # corrupt, mismatch, other schema, unopenable
        raise SystemExit(f"repro: {exc}") from None


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
