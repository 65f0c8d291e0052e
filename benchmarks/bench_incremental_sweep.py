"""Incremental hardening sweep: cold vs. warm variant comparison.

The compositional result store's payoff: re-sweeping the four-variant
``guarded`` family (baseline, detect-only checksum, SUM+DMR, TMR)
against a warm section store executes nothing — every class composes
from stored sections — while remaining *bit-for-bit identical*: same
campaign results, same comparison table, byte-identical comparison CSV.

What "composition pays" stands for is asserted as counts, not as a
ratio of wall times: nothing executed, every experiment composed, at
most three commits, one ``class_results`` row written per live class
(not per bit), and — over the composed variants and their summaries —
no ``Outcome(...)`` construction and no ``Enum.__hash__`` call on an
outcome (the summary counts classes with ``tuple.count``).  The
prologue is counted too: a plain resume of the swept family builds no
section map (the journal holds every campaign whole, so there is
nothing to compose), and the section maps of a
``resume=False`` sweep execute no interpreter instruction (their entry
digests come off the golden checkpoint ladder).  Two prologue costs
every variant pays are counted as well: a golden run hashes RAM afresh
at most once per store it executed (plus the first rung), and a warm
variant — resumed or composed — checks each distinct outcome string
of its campaign against the outcome values once.  No wall time is taken:
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
from repro.campaign.outcomes import Outcome
from repro.faultspace import sections as sections_module
from repro.isa import STORE_OPS
from repro.metrics import comparison_report, export_comparison_csv
from repro.programs import guarded

VARIANTS = guarded.VARIANT_NAMES
#: Loop count for the swept family: long enough that every variant has
#: several sections and a few hundred classes to compose.
ITERATIONS = 10
#: Commits a composed (``resume=False``) variant may make: the clear,
#: the section links, and the composed classes with the completion mark.
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


def _resumed_sweep(goldens, path, monkeypatch):
    """A plain resume of the family against the filled journal; returns
    (results, section maps built, outcome checks per variant)."""
    counts = {"section_maps": 0, "section_cycles": 0}
    results, checks = {}, {}
    with monkeypatch.context() as patch:
        _counting_section_maps(patch, counts)
        for name in VARIANTS:
            outcomes = _counting_outcome_checks(patch)
            results[name] = run_full_scan(goldens[name], journal=path,
                                          keep_records=True)
            checks[name] = outcomes.checks
    return results, counts["section_maps"], checks


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


def _counted_sweep(goldens, path, monkeypatch):
    """A ``resume=False`` sweep, each variant's summary included, under
    these counters: per variant the ``BEGIN IMMEDIATE`` statements
    SQLite sees (each ends in a commit, an fsync), with the commit
    window's clock frozen so that only the sweep's own flushes commit,
    and the rows it writes to ``class_results`` (the trace sees every
    row an ``executemany`` binds); over the sweep the ``Outcome(value)``
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

    results, commits, class_rows, statements = {}, {}, {}, []
    checks = counts["outcome_checks"] = {}
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
            results[name] = run_full_scan(goldens[name], journal=journal,
                                          resume=False, keep_records=True)
            checks[name] = outcomes.checks
            CampaignSummary.from_result(results[name])
            commits[name] = statements.count("BEGIN IMMEDIATE")
            class_rows[name] = sum(
                statement.startswith("INSERT OR REPLACE INTO class_results")
                for statement in statements)
    return results, commits, class_rows, counts


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
    journal = tmp_path / "sweep.sqlite"

    cold = _sweep(goldens, journal, resume=True)
    # resume=False discards each campaign's own rows, so the warm sweep
    # must rebuild every result purely by composing from the section
    # store — the hardest version of the warm path.
    warm = _sweep(goldens, journal, resume=False)
    counted, commits, class_rows, counts = _counted_sweep(
        goldens, journal, monkeypatch)
    constructed = counts["constructed"]
    resumed, resumed_maps, resumed_checks = _resumed_sweep(
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
        # A journal row is a class, not a bit.
        assert class_rows[name] == cold[name].execution.total_units, (
            f"{name}: {class_rows[name]} class_results rows written for "
            f"{cold[name].execution.total_units} live classes")
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
    distinct = {name: _distinct_outcome_strings(cold[name])
                for name in VARIANTS}
    assert resumed_checks == distinct, (
        f"outcome strings checked by a warm resume {resumed_checks}, "
        f"distinct per campaign {distinct}: each is checked once")
    assert counts["outcome_checks"] == distinct, (
        f"outcome strings checked while composing "
        f"{counts['outcome_checks']}, distinct per campaign {distinct}")

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
        f"class rows per variant  "
        f"{', '.join(f'{k}: {v}' for k, v in class_rows.items())} "
        f"(= live classes)",
        f"Outcome(value) calls    {constructed}",
        f"golden RAM hashes       "
        f"{', '.join(f'{k}: {h} ({n} stores)' for k, (h, n) in hashes)}",
        f"outcome checks resumed  "
        f"{', '.join(f'{k}: {v}' for k, v in resumed_checks.items())} "
        f"(= distinct outcome strings)",
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
