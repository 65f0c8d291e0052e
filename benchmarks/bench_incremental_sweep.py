"""Incremental hardening sweep: cold vs. warm variant comparison.

The compositional result store's payoff: re-sweeping the four-variant
``guarded`` family (baseline, detect-only checksum, SUM+DMR, TMR)
against a warm section store executes nothing — every class composes
from stored sections — while remaining *bit-for-bit identical*: same
campaign results, same comparison table, byte-identical comparison CSV.

What "composition pays" stands for is asserted as counts, not as a
ratio of wall times: nothing executed, every experiment composed, at
most three commits, no result row written (a composed campaign reads
the rows its sections hold and stores nothing), and — over the
composed variants and their summaries —
no ``Outcome(...)`` construction and no ``Enum.__hash__`` call on an
outcome (the summary counts classes with ``tuple.count``).  The
prologue is counted too: a plain resume of the swept family builds no
section map (the journal holds every campaign whole, so there is
nothing to compose), and the section maps of a
``resume=False`` sweep execute no interpreter instruction (their entry
digests come off the golden checkpoint ladder).  Four prologue costs
every variant pays are counted as well: a golden run hashes RAM afresh
at most once per store it executed (plus the first rung) and takes one
rung per block-boundary crossing (where an engine's probe can stop),
the assembler parses each distinct instruction statement once, and a
warm variant — resumed or composed — checks each distinct outcome
string of its campaign against the outcome values once.  A warm
variant reads its stored runs once as well: it checks each distinct
run in full once (one end-cycle ``fullmatch`` per distinct run, not
per class), and its scan, summary and ΔF attribution call
``class_key`` at most once per live class, all counted from the
assembly's one walk.  No wall time is taken:
both sweeps of this small family are mostly the fixed cost of a campaign
(open + ``quick_check``, golden bookkeeping, commits), so their ratio
would measure the executor as much as the store.

Writes the counts to ``benchmarks/output/incremental_sweep.txt``.
"""

import enum

from repro.campaign import ExperimentJournal, record_golden, run_full_scan
from repro.campaign import compose as compose_module
from repro.campaign import golden as golden_module
from repro.campaign import journal as journal_module
from repro.campaign.database import CampaignSummary
from repro.analysis.report import failure_attribution
from repro.campaign.outcomes import Outcome
from repro.campaign.runner import ScanStyle
from repro.faultspace import sections as sections_module
from repro.faultspace.domain import FaultDomain
from repro.isa import STORE_OPS
from repro.isa.assembler import Assembler
from repro.isa.blocks import block_leaders
from repro.metrics import comparison_report, export_comparison_csv
from repro.programs import guarded

VARIANTS = guarded.VARIANT_NAMES
#: Loop count for the swept family: long enough that every variant has
#: several sections and a few hundred classes to compose.
ITERATIONS = 10
#: Commits a composed (``resume=False``) variant may make: the clear,
#: the section links, and the completion mark.
MAX_COMMITS = 3


def _sweep(goldens, journal, *, resume):
    """One full sweep over the family; returns the results by variant."""
    return {name: run_full_scan(goldens[name], journal=journal,
                                resume=resume, keep_records=True)
            for name in VARIANTS}


def _reports(results):
    baseline = results[VARIANTS[0]]
    return [comparison_report(name, baseline, results[name])
            for name in VARIANTS[1:]]


def _counting_section_maps(patch, counts):
    """Count, under ``patch``, the section maps built
    (``counts["section_maps"]``) and the instructions their replay
    machines execute (``counts["section_cycles"]``)."""
    build = compose_module.build_section_map
    machine = sections_module.Machine

    def counted_build(*args, **kwargs):
        counts["section_maps"] += 1
        return build(*args, **kwargs)

    class CountedMachine(machine):
        def run_to_cycle(self, target_cycle):
            before = self.cycle
            super().run_to_cycle(target_cycle)
            counts["section_cycles"] += self.cycle - before

    patch.setattr(compose_module, "build_section_map", counted_build)
    patch.setattr(sections_module, "Machine", CountedMachine)


class _CountedOutcomes(frozenset):
    """The journal's valid outcome values, counting the outcome strings
    checked against them (``checks``)."""

    def issuperset(self, values):
        self.checks += 1
        return super().issuperset(values)


def _counting_outcome_checks(patch):
    """Under ``patch``, the outcome checks of ``_valid_run``: the
    returned set's ``checks``."""
    counted = _CountedOutcomes(journal_module._OUTCOME_VALUES)
    counted.checks = 0
    patch.setattr(journal_module, "_OUTCOME_VALUES", counted)
    return counted


def _distinct_outcome_strings(result) -> int:
    """Distinct outcome strings of a campaign: one per distinct outcome
    tuple of its classes."""
    return len(set(result.class_outcomes.values()))


class _CountedEndCycles:
    """The journal's end-cycle pattern, counting its ``fullmatch``
    calls (``checks``): one per run ``_valid_run`` checks in full."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.checks = 0

    def fullmatch(self, string):
        self.checks += 1
        return self.pattern.fullmatch(string)


def _counting_reads(patch):
    """Under ``patch``, the end-cycle checks of ``_valid_run`` and the
    calls that a walk over the classes makes per class unless it can
    help it: the returned ``(pattern, calls)``, ``pattern.checks`` and
    ``calls[name]`` — ``"class_key"``, ``"weights"`` (the per-class
    hooks ``FaultDomain.experiment_count`` and
    ``experiment_slot_weights``, together) and ``"decode"``
    (``ScanStyle.keep``, and ``ScanStyle._decode``, which decodes an
    outcome string the campaign meets for the first time)."""
    pattern = _CountedEndCycles(journal_module._END_CYCLES)
    patch.setattr(journal_module, "_END_CYCLES", pattern)
    calls = {"class_key": 0, "weights": 0, "decode": 0}

    def counted(owner, name, count):
        method = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[count] += 1
            return method(*args, **kwargs)

        patch.setattr(owner, name, wrapper)

    counted(FaultDomain, "class_key", "class_key")
    counted(FaultDomain, "experiment_count", "weights")
    counted(FaultDomain, "experiment_slot_weights", "weights")
    counted(ScanStyle, "keep", "decode")
    counted(ScanStyle, "_decode", "decode")
    return pattern, calls


def _distinct_runs(result) -> int:
    """Distinct runs ``(outcomes, end_cycles, traps)`` of a campaign's
    classes, read off its records (kept class by class, in order)."""
    records = result.records
    width = result.domain.bits
    return len({tuple((record.outcome, record.end_cycle, record.trap)
                      for record in records[start:start + width])
                for start in range(0, len(records), width)})


def _read_counts(result, pattern, calls) -> tuple[int, int, int, int]:
    """``(end-cycle checks, class_key calls, per-class weight hook
    calls, decodes)`` a warm variant made, its summary and ΔF
    attribution included."""
    CampaignSummary.from_result(result)
    failure_attribution(result)
    return (pattern.checks, calls["class_key"], calls["weights"],
            calls["decode"])


def _resumed_sweep(goldens, path, monkeypatch):
    """A plain resume of the family against the filled journal; returns
    (results, section maps built, outcome checks per variant, and per
    variant its :func:`_read_counts`)."""
    counts = {"section_maps": 0, "section_cycles": 0}
    results, checks, reads = {}, {}, {}
    with monkeypatch.context() as patch:
        _counting_section_maps(patch, counts)
        for name in VARIANTS:
            outcomes = _counting_outcome_checks(patch)
            pattern, calls = _counting_reads(patch)
            results[name] = run_full_scan(goldens[name], journal=path,
                                          keep_records=True)
            checks[name] = outcomes.checks
            reads[name] = _read_counts(results[name], pattern, calls)
    return results, counts["section_maps"], checks, reads


def _golden_ram_hashes(factories, monkeypatch):
    """``name → (RAM hashes built, stores executed)`` of each variant's
    golden run: the hashes through a wrapper on the constructor
    ``record_golden`` uses, the stores off its executed-pc trace."""
    blake2b = golden_module.blake2b
    counts = {}

    def counted(*args, **kwargs):
        counts[name][0] += 1
        return blake2b(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(golden_module, "blake2b", counted)
        for name, factory in factories.items():
            counts[name] = [0, 0]
            golden = record_golden(factory(ITERATIONS))
            rom = golden.program.rom
            counts[name][1] = sum(rom[pc].op in STORE_OPS
                                  for pc in golden.pc_trace)
    return {name: tuple(pair) for name, pair in counts.items()}


def _boundary_crossings(golden) -> int:
    """Live block-boundary crossings of a golden run, off its
    executed-pc trace: a slot whose next pc does not follow it, or
    starts a block."""
    program = golden.program
    leaders = set(block_leaders(program.rom, program.entry))
    trace = golden.pc_trace
    return sum(after != before + 1 or after in leaders
               for before, after in zip(trace, trace[1:]))


def _statement_parses(factories, monkeypatch):
    """``name → (instruction statements parsed, distinct, in all)`` of
    each variant's assembly: the parses through a wrapper on
    ``Assembler._instruction``, the text statements through one on
    ``Assembler._parse_statement``."""
    parse = Assembler._parse_statement
    instruction = Assembler._instruction
    counts = {}

    def counted_statement(self, stmt, lineno):
        if self.segment == "text" and not stmt.startswith("."):
            statements.append(stmt)
        parse(self, stmt, lineno)

    def counted_instruction(self, mnemonic, rest, stmt, lineno):
        parsed.append(stmt)
        instruction(self, mnemonic, rest, stmt, lineno)

    with monkeypatch.context() as patch:
        patch.setattr(Assembler, "_parse_statement", counted_statement)
        patch.setattr(Assembler, "_instruction", counted_instruction)
        for name, factory in factories.items():
            statements, parsed = [], []
            factory(ITERATIONS)
            counts[name] = (len(parsed), len(set(statements)),
                            len(statements))
    return counts


def _counted_sweep(goldens, path, monkeypatch):
    """A ``resume=False`` sweep, each variant's summary included, under
    these counters: per variant the ``BEGIN IMMEDIATE`` statements
    SQLite sees (each ends in a commit, an fsync), with the commit
    window's clock frozen so that only the sweep's own flushes commit,
    and the result rows it writes (the trace sees every row an
    ``executemany`` binds); over the sweep the ``Outcome(value)``
    calls, the ``Enum.__hash__`` calls on outcomes, and the section
    maps built and the interpreter instructions they execute."""
    enum_type = type(Outcome)
    enum_call = enum_type.__call__
    enum_hash = enum.Enum.__hash__
    counts = {"constructed": 0, "hashed": 0, "section_maps": 0,
              "section_cycles": 0}

    def counting_call(cls, *args, **kwargs):
        if cls is Outcome:
            counts["constructed"] += 1
        return enum_call(cls, *args, **kwargs)

    def counting_hash(member):
        if type(member) is Outcome:
            counts["hashed"] += 1
        return enum_hash(member)

    results, commits, result_rows, statements = {}, {}, {}, []
    checks = counts["outcome_checks"] = {}
    reads = counts["reads"] = {}
    with monkeypatch.context() as patch, \
            ExperimentJournal(path) as journal:
        patch.setattr(journal_module, "_clock", lambda: 0.0)
        patch.setattr(enum_type, "__call__", counting_call)
        patch.setattr(enum.Enum, "__hash__", counting_hash)
        _counting_section_maps(patch, counts)
        journal._conn.set_trace_callback(statements.append)
        for name in VARIANTS:
            statements.clear()
            outcomes = _counting_outcome_checks(patch)
            pattern, calls = _counting_reads(patch)
            results[name] = run_full_scan(goldens[name], journal=journal,
                                          resume=False, keep_records=True)
            checks[name] = outcomes.checks
            reads[name] = _read_counts(results[name], pattern, calls)
            commits[name] = statements.count("BEGIN IMMEDIATE")
            result_rows[name] = sum(
                statement.lstrip().upper().startswith("INSERT")
                and "_results" in statement for statement in statements)
    return results, commits, result_rows, counts


def test_warm_sweep_composes_everything_bit_identical(tmp_path, output_dir,
                                                      monkeypatch):
    factories = {
        "guarded": guarded.baseline,
        "guarded-sum": guarded.sum_variant,
        "guarded-sumdmr": guarded.sumdmr_variant,
        "guarded-tmr": guarded.tmr_variant,
    }
    goldens = {name: record_golden(factory(ITERATIONS))
               for name, factory in factories.items()}
    ram_hashes = _golden_ram_hashes(factories, monkeypatch)
    parses = _statement_parses(factories, monkeypatch)
    rungs = {name: (len(golden.checkpoints.digests),
                    _boundary_crossings(golden))
             for name, golden in goldens.items()}
    journal = tmp_path / "sweep.sqlite"

    cold = _sweep(goldens, journal, resume=True)
    # resume=False discards each campaign's own rows, so the warm sweep
    # must rebuild every result purely by composing from the section
    # store — the hardest version of the warm path.
    warm = _sweep(goldens, journal, resume=False)
    counted, commits, result_rows, counts = _counted_sweep(
        goldens, journal, monkeypatch)
    constructed = counts["constructed"]
    resumed, resumed_maps, resumed_checks, resumed_reads = _resumed_sweep(
        goldens, journal, monkeypatch)

    composed = {}
    for name in VARIANTS:
        assert warm[name] == cold[name], name
        assert counted[name] == cold[name], name
        assert resumed[name] == cold[name], name
        assert resumed[name].execution.executed == 0, name
        for result in (warm[name], counted[name]):
            assert result.execution.executed == 0, name
            assert result.execution.composed_hits \
                == cold[name].experiments_conducted, name
        composed[name] = warm[name].execution.composed_hits
        assert commits[name] <= MAX_COMMITS, (
            f"{name}: {commits[name]} commits to compose one variant, "
            f"expected <= {MAX_COMMITS}")
        # A composed campaign stores nothing: its sections hold it.
        assert result_rows[name] == 0, (
            f"{name}: {result_rows[name]} result rows written by a "
            f"composed re-sweep, expected none")
    assert constructed == 0, (
        f"{constructed} Outcome(value) constructions on the warm path: "
        f"stored values are looked up in OUTCOME_BY_VALUE")
    assert counts["hashed"] == 0, (
        f"{counts['hashed']} Enum.__hash__ calls on outcomes on the warm "
        f"path: classes are counted with tuple.count")
    assert counts["section_maps"] == len(VARIANTS)
    assert counts["section_cycles"] == 0, (
        f"{counts['section_cycles']} interpreter instructions executed "
        f"by the section maps: entry digests come off the golden ladder")
    assert resumed_maps == 0, (
        f"{resumed_maps} section maps built by a plain resume of a "
        f"complete family: nothing is left to compose")
    for name, (hashes, stores) in ram_hashes.items():
        assert 0 < hashes <= stores + 1, (
            f"{name}: the golden run hashed RAM {hashes} times for "
            f"{stores} stores: RAM is re-hashed only after a store")
    for name, (taken, crossings) in rungs.items():
        assert taken == crossings, (
            f"{name}: {taken} ladder rungs for {crossings} block-boundary "
            f"crossings: a golden run takes one rung per crossing")
    for name, (parsed, distinct, statements) in parses.items():
        assert parsed == distinct < statements, (
            f"{name}: {parsed} statement parses for {distinct} distinct "
            f"instruction statements (of {statements}): each distinct "
            f"statement is parsed once")
    distinct = {name: _distinct_outcome_strings(cold[name])
                for name in VARIANTS}
    assert resumed_checks == distinct, (
        f"outcome strings checked by a warm resume {resumed_checks}, "
        f"distinct per campaign {distinct}: each is checked once")
    assert counts["outcome_checks"] == distinct, (
        f"outcome strings checked while composing "
        f"{counts['outcome_checks']}, distinct per campaign {distinct}")
    runs = {name: _distinct_runs(cold[name]) for name in VARIANTS}
    live = {name: len(cold[name].class_outcomes) for name in VARIANTS}
    counts_per_class = {
        name: len({result.domain.experiment_count(interval)
                   for interval in result.partition.live_classes()})
        for name, result in cold.items()}
    for sweep, reads in (("resumed", resumed_reads),
                         ("composed", counts["reads"])):
        for name, (checked, keyed, weighed, decoded) in reads.items():
            assert checked == runs[name] < live[name], (
                f"{name} {sweep}: {checked} runs checked in full for "
                f"{runs[name]} distinct runs at {live[name]} classes: "
                f"each distinct run is checked once")
            assert keyed <= live[name], (
                f"{name} {sweep}: {keyed} class_key calls for "
                f"{live[name]} live classes: the scan, its summary and "
                f"its ΔF attribution read the assembly's one walk")
            assert weighed <= counts_per_class[name], (
                f"{name} {sweep}: {weighed} experiment_count and "
                f"experiment_slot_weights calls for "
                f"{counts_per_class[name]} distinct experiment counts: "
                f"a def/use domain's classes weigh alike, said once")
            assert decoded <= distinct[name], (
                f"{name} {sweep}: {decoded} keep/_decode calls for "
                f"{distinct[name]} distinct outcome strings: the walk "
                f"pairs each class with its run's decoded tuple")

    cold_csv = tmp_path / "cold.csv"
    warm_csv = tmp_path / "warm.csv"
    export_comparison_csv(_reports(cold), cold_csv)
    export_comparison_csv(_reports(warm), warm_csv)
    assert warm_csv.read_bytes() == cold_csv.read_bytes()

    hashes = ram_hashes.items()
    lines = [
        "incremental hardening sweep (guarded family, memory domain)",
        "===========================================================",
        f"variants                {', '.join(VARIANTS)}",
        f"experiments composed    "
        f"{sum(composed.values())} "
        f"({', '.join(f'{k}: {v}' for k, v in composed.items())})",
        f"experiments executed    0",
        f"commits per variant     "
        f"{', '.join(f'{k}: {v}' for k, v in commits.items())} "
        f"(<= {MAX_COMMITS})",
        f"result rows per variant "
        f"{', '.join(f'{k}: {v}' for k, v in result_rows.items())} "
        f"(none)",
        f"Outcome(value) calls    {constructed}",
        f"golden RAM hashes       "
        f"{', '.join(f'{k}: {h} ({n} stores)' for k, (h, n) in hashes)}",
        f"ladder rungs            "
        f"{', '.join(f'{k}: {r} (= crossings)' for k, (r, _) in rungs.items())}",
        f"statement parses        "
        f"{', '.join(f'{k}: {p} of {n}' for k, (p, _, n) in parses.items())} "
        f"(= distinct)",
        f"outcome checks resumed  "
        f"{', '.join(f'{k}: {v}' for k, v in resumed_checks.items())} "
        f"(= distinct outcome strings)",
        f"runs checked resumed    "
        f"{', '.join(f'{k}: {c} of {live[k]} classes' for k, (c, *_) in resumed_reads.items())} "
        f"(= distinct runs)",
        f"class_key calls resumed "
        f"{', '.join(f'{k}: {n}' for k, (_, n, _, _) in resumed_reads.items())} "
        f"(<= live classes)",
        f"weight hooks resumed    "
        f"{', '.join(f'{k}: {n}' for k, (_, _, n, _) in resumed_reads.items())} "
        f"(<= distinct experiment counts)",
        f"decodes resumed         "
        f"{', '.join(f'{k}: {n}' for k, (_, _, _, n) in resumed_reads.items())} "
        f"(<= distinct outcome strings)",
        "comparison CSV          byte-identical cold vs. warm",
    ]
    (output_dir / "incremental_sweep.txt").write_text(
        "\n".join(lines) + "\n")


def test_variant_edit_recomputes_only_changed_sections(tmp_path):
    """The FastFlip scenario: after an edit to one section, the sweep
    composes the unchanged sections and re-executes only the classes
    the changed section owns.  Uses the entry-swap mutant (identical
    semantics, one changed section) in the register domain, where the
    mutated instruction's operand reads put live classes inside the
    changed section."""
    from repro.faultspace import build_section_map
    from repro.isa.assembler import assemble

    template = guarded.baseline(ITERATIONS).source.replace(
        "start:", "start: add  r4, r5, r6\n      ", 1)
    swapped = template.replace("add  r4, r5, r6", "add  r4, r6, r5", 1)
    golden_a = record_golden(assemble(template, name="edit-a",
                                      ram_size=4))
    golden_b = record_golden(assemble(swapped, name="edit-b",
                                      ram_size=4))
    journal = tmp_path / "edit.sqlite"
    run_full_scan(golden_a, domain="register", journal=journal)
    reference = run_full_scan(golden_b, domain="register",
                              keep_records=True)
    warm = run_full_scan(golden_b, domain="register", journal=journal,
                         keep_records=True)
    assert warm == reference
    changed_window = build_section_map(golden_b, "register") \
        .sections[0].last_slot
    changed = sum(1 for interval in warm.partition.live_classes()
                  if interval.injection_slot <= changed_window)
    assert warm.execution.executed == changed
    assert 0 < changed < warm.execution.total_units
    assert warm.execution.composed_hits \
        == (warm.execution.total_units - changed) * warm.domain.bits
