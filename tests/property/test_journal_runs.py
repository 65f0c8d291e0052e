"""Property-based tests of the journal's run rows.

A ``class_results`` / ``section_results`` row holds a run of bits, its
per-bit values space-separated (``repro.campaign.journal``).  A class
is trusted only as one valid run from bit 0, read back as stored and
written back as it was read.  These properties pin that: a class of any
width, with any outcomes, end cycles and (empty or named) traps,
round-trips; a section fed any interleaving of sampled single bits and
whole classes composes a class exactly when it was stored whole and a
bit exactly when it was stored; and whatever mix of whole, torn,
gapped, short, shifted, per-bit and malformed rows a journal holds, a
campaign resumed and composed from it equals the journal-free one, a
class resuming or composing exactly when its stored run from bit 0 is
valid.
"""

import random

import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from repro.campaign import (ExperimentJournal, record_golden, run_full_scan,
                            run_sampling)
from repro.campaign.compose import SectionComposer
from repro.campaign.journal import _OUTCOME_VALUES, _valid_run, open_campaign
from repro.campaign.outcomes import OUTCOME_BY_VALUE
from repro.campaign.runner import ScanStyle
from repro.faultspace import get_domain
from repro.programs import micro

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

VALUES = sorted(OUTCOME_BY_VALUE)
TRAPS = ["", "memory-fault", "alignment-fault", "illegal-pc",
         "arithmetic-trap"]


def _campaign(journal, **identity):
    spec = dict(fingerprint="probe", domain="memory", kind="full-scan",
                params={}, cycles=100)
    spec.update(identity)
    return journal.campaign(**spec)


def _run(rows) -> tuple[str, str, str]:
    """Per-bit ``(bit, outcome, end_cycle, trap)`` rows from bit 0 as
    the run that stores them."""
    return tuple(" ".join(map(str, column)) for column in
                 list(zip(*rows))[1:])


@st.composite
def classes(draw):
    """``(axis, first_slot) → per-bit rows`` of 8-, 16- or 32-bit
    classes, outcomes by value."""
    out = {}
    for key in draw(st.sets(st.tuples(st.integers(0, 40),
                                      st.integers(1, 500)),
                            min_size=1, max_size=4)):
        width = draw(st.sampled_from([8, 16, 32]))
        out[key] = [(bit, draw(st.sampled_from(VALUES)),
                     draw(st.integers(0, 10 ** 7)),
                     draw(st.sampled_from(TRAPS)))
                    for bit in range(width)]
    return out


class TestClassRoundTrip:
    @SETTINGS
    @given(stored=classes())
    def test_record_class_then_completed_classes(self, stored):
        with ExperimentJournal(":memory:") as journal:
            campaign = _campaign(journal)
            for (axis, first_slot), rows in stored.items():
                campaign.record_class(axis, first_slot, _run(rows))
            assert campaign.completed_classes() == {
                key: _run(rows) for key, rows in sorted(stored.items())}
            assert journal.campaigns()[0]["journaled_experiments"] \
                == sum(map(len, stored.values()))


_SECTIONS: dict = {}


def _section(domain_name: str):
    """``(golden, domain, params, intervals)``: up to four live classes
    of the section of ``counter(2)`` that owns the most of them."""
    if domain_name not in _SECTIONS:
        golden = record_golden(micro.counter(2))
        style = ScanStyle(golden, get_domain(domain_name))
        domain, params = style.domain, style.params
        with ExperimentJournal(":memory:") as journal:
            owner = SectionComposer(_campaign(journal), golden, domain,
                                    params).map.owner
        by_section: dict = {}
        for interval in style.partition.live_classes():
            by_section.setdefault(owner(interval.injection_slot).index,
                                  []).append(interval)
        intervals = max(by_section.values(), key=len)[:4]
        _SECTIONS[domain_name] = (golden, domain, params, intervals)
    return _SECTIONS[domain_name]


def _row(slot: int, axis: int, bit: int) -> tuple[int, str, int, str]:
    """The one result experiment ``(slot, axis, bit)`` has: any fixed
    function will do, since the store's premise is determinism."""
    return (bit, VALUES[(7 * slot + 3 * axis + bit) % len(VALUES)],
            1000 * slot + 40 * axis + bit, TRAPS[(slot + bit) % len(TRAPS)])


@st.composite
def store_sequences(draw):
    """A domain and an interleaving of stores into one section: whole
    classes (``None`` bit) and sampled single bits."""
    domain = draw(st.sampled_from(["memory", "stuck", "register"]))
    count = len(_section(domain)[3])
    ops = draw(st.lists(
        st.tuples(st.integers(0, count - 1),
                  st.none() | st.integers(0, 31)),
        max_size=14))
    return domain, ops


class TestSectionInterleaving:
    @SETTINGS
    @given(sequence=store_sequences())
    # The case the longer-run rule exists for: a sampled campaign
    # stored a class's first bit before a full scan stored the class.
    @example(sequence=("memory", [(0, 0), (0, None)]))
    @example(sequence=("register", [(1, 0), (1, 5), (1, None), (1, 0)]))
    def test_composes_exactly_what_was_stored(self, sequence):
        domain_name, ops = sequence
        golden, domain, params, intervals = _section(domain_name)
        stored = [set() for _ in intervals]
        whole = [False for _ in intervals]
        with ExperimentJournal(":memory:") as journal:
            writer = SectionComposer(_campaign(journal), golden, domain,
                                     params)
            for index, bit in ops:
                interval = intervals[index]
                slot = interval.injection_slot
                axis = domain.axis_of(interval)
                width = domain.experiment_count(interval)
                if bit is None:
                    writer.store_class(interval, _run([
                        _row(slot, axis, b) for b in range(width)]))
                    stored[index].update(range(width))
                    whole[index] = True
                else:
                    bit %= width
                    writer.store_runs([(slot, axis, bit,
                                        _run([_row(slot, axis, bit)]))])
                    stored[index].add(bit)
            reader = SectionComposer(_campaign(journal, kind="sampling"),
                                     golden, domain, params)
            for interval, bits, is_whole in zip(intervals, stored, whole):
                slot = interval.injection_slot
                axis = domain.axis_of(interval)
                width = domain.experiment_count(interval)
                full = [_row(slot, axis, b) for b in range(width)]
                # Every bit sampled one at a time is not a class.
                assert reader.compose_class(interval) \
                    == (_run(full) if is_whole else None)
                for bit in range(width):
                    assert reader.compose_experiment(slot, axis, bit) \
                        == (full[bit][1:] if bit in bits else None)


#: What a journal may hold for one class, in the class table or the
#: section store (see :func:`_shape_runs`); a whole class, what this
#: build writes, is drawn twice as often.
SHAPES = ("absent", "whole", "whole", "per-bit", "torn", "gapped", "short",
          "shifted", "sampled", "overlap", "bad-outcome", "bad-cycle")

_GOLDENS: dict = {}


def _shape_runs(shape: str, run: tuple[str, str, str],
                rng: random.Random) -> list[tuple]:
    """The rows ``(first_bit, outcomes, end_cycles, traps)`` one class's
    ``shape`` stores, from the class's executed ``run``: every value the
    true one, but for a spoiled value and the bit past a shifted run's
    class, so a run read at the wrong bit shows in the result."""
    values = list(zip(*(column.split(" ") for column in run)))
    width = len(values)  # 8 or 32 here

    def stored(bits, spoil=None):
        columns = [list(column) for column in zip(
            *(values[bit] if bit < width else ("sdc", "99999999", "")
              for bit in bits))]
        if spoil is not None:
            column, value = spoil
            columns[column][rng.randrange(len(bits))] = value
        return (bits[0], *(" ".join(column) for column in columns))

    every = list(range(width))
    cut = rng.randrange(1, width)
    if shape == "absent":
        return []
    if shape == "whole":
        return [stored(every)]
    if shape == "per-bit":  # what a version-3 build wrote
        return [stored([bit]) for bit in every]
    if shape == "torn":  # whole, in two runs
        return [stored(every[:cut]), stored(every[cut:])]
    if shape == "gapped":  # bit ``cut`` lost
        return [stored(every[:cut])] + ([stored(every[cut + 1:])]
                                        if cut + 1 < width else [])
    if shape == "short":
        return [stored(every[:-1])]
    if shape == "shifted":
        return [stored([bit + 1 for bit in every])]
    if shape == "sampled":
        return [stored([bit]) for bit in sorted(rng.sample(every, 3))]
    if shape == "overlap":  # a sampled bit beside the whole class
        return [stored(every), stored([cut])]
    if shape == "bad-outcome":
        return [stored(every, (0, "bogus"))]
    return [stored(every, (1, "x6"))]  # bad-cycle


def _golden(domain_name: str):
    """``(golden, domain, params, live classes, class key → executed
    run, journal-free sampling, journal-free scan)`` of ``counter(2)``."""
    if domain_name not in _GOLDENS:
        golden = record_golden(micro.counter(2))
        style = ScanStyle(golden, get_domain(domain_name))
        domain, live = style.domain, style.partition.live_classes()
        runs = dict(ScanStyle.execute(style.config.build(golden), live))
        _GOLDENS[domain_name] = (
            golden, domain, style.params, live, runs,
            run_sampling(golden, 40, seed=3, sampler="live-only",
                         domain=domain),
            run_full_scan(golden, domain=domain, keep_records=True))
    return _GOLDENS[domain_name]


@st.composite
def journal_states(draw):
    """A domain, per live class of ``counter(2)`` a shape for the class
    table and one for the section store, a seed for the shapes' cuts
    and spoiled bits, and whether the scan resumes."""
    domain_name = draw(st.sampled_from(["memory", "register"]))
    count = len(_golden(domain_name)[3])
    shapes = st.lists(st.sampled_from(SHAPES), min_size=count,
                      max_size=count)
    return (domain_name, draw(shapes), draw(shapes),
            draw(st.integers(0, 2 ** 16)), draw(st.booleans()))


class TestRunFormReaders:
    @SETTINGS
    @given(state=journal_states())
    def test_resumed_and_composed_campaigns_equal_the_plain_ones(
            self, state):
        """Sample, then scan, against a journal holding ``state``: both
        equal their journal-free runs, records included, and a class
        resumes exactly when its class-table row at bit 0 is a valid
        run of the class, composes exactly when it did not resume and
        its section-store row at bit 0 is, and is discarded exactly
        when it resumes from an invalid row."""
        domain_name, class_shapes, section_shapes, seed, resume = state
        golden, domain, params, live, runs, plain_sampled, plain = \
            _golden(domain_name)
        rng = random.Random(seed)
        expected = dict(executed=0, resumed=0, composed_hits=0,
                        discarded_results=0)
        with ExperimentJournal(":memory:") as journal:
            handle = open_campaign(journal, golden, domain, "full-scan",
                                   params)
            composer = SectionComposer(handle, golden, domain, params)
            class_rows, section_rows = [], []
            for interval, in_class, in_section in zip(live, class_shapes,
                                                      section_shapes):
                slot, axis = interval.injection_slot, domain.axis_of(interval)
                key = domain.class_key(interval)
                section = composer._ids[composer.map.owner(slot).index]
                in_class = _shape_runs(in_class, runs[key], rng)
                in_section = _shape_runs(in_section, runs[key], rng)
                class_rows += [(handle.campaign_id, *key, *run)
                               for run in in_class]
                section_rows += [(section, slot, axis, *run)
                                 for run in in_section]
                width = domain.experiment_count(interval)
                resumed = composed = False
                if resume and in_class and in_class[0][0] == 0:
                    resumed = _valid_run(in_class[0][1:], width)
                    expected["discarded_results"] += not resumed
                if not resumed and in_section and in_section[0][0] == 0:
                    composed = _valid_run(in_section[0][1:], width)
                # A composed class counts as resumed too: it was not
                # executed.
                expected["resumed"] += resumed or composed
                expected["composed_hits"] += width * composed
                expected["executed"] += not (resumed or composed)
            marks = ", ".join("?" * 7)
            with journal._conn:
                journal._conn.executemany(
                    f"INSERT INTO class_results VALUES ({marks})",
                    class_rows)
                journal._conn.executemany(
                    f"INSERT INTO section_results VALUES ({marks})",
                    section_rows)
            sampled = run_sampling(golden, 40, seed=3, sampler="live-only",
                                   domain=domain, journal=journal)
            scanned = run_full_scan(golden, domain=domain, journal=journal,
                                    resume=resume, keep_records=True)
        assert sampled == plain_sampled
        assert sampled.execution.executed \
            + sampled.execution.composed_hits \
            == plain_sampled.execution.executed
        assert scanned == plain
        assert scanned.records == plain.records
        execution = scanned.execution
        assert {name: getattr(execution, name) for name in expected} \
            == expected


def _reference_valid_run(run, count: int) -> bool:
    """``_valid_run`` as it was written field by field in Python, kept
    verbatim as the oracle for the one-pass version."""
    outcomes, end_cycles, traps = run
    cycles = end_cycles.split(" ")
    return (len(cycles) == outcomes.count(" ") + 1 == traps.count(" ") + 1
            == count
            and _OUTCOME_VALUES.issuperset(outcomes.split(" "))
            and end_cycles.isascii() and all(map(str.isdigit, cycles)))


#: Values a column of a stored run may hold, honest and not: outcomes
#: by another name, digits of other scripts (Arabic-Indic, superscript,
#: full-width), signs, separators and empty fields.
_OUTCOME_TOKENS = VALUES * 4 + ["bogus", "", "SDC", "no_effect", "sdc\n"]
_CYCLE_TOKENS = ["0", "7", "12", "007", "4096", "9" * 12] * 3 + [
    "", "٣", "²", "１", "1x", "-1", "+1", "1_0", "1.0", "1\n", "\t1"]
_TRAP_TOKENS = TRAPS * 2 + ["with space", " ", "x"]


def _column(rng, tokens, width: int) -> str:
    """``width`` tokens, mostly single-space-joined; now and then a
    double, leading or trailing space."""
    text = " ".join(rng.choice(tokens) for _ in range(width))
    shape = rng.random()
    if shape < 0.04:
        text = " " + text
    elif shape < 0.08:
        text += " "
    elif shape < 0.12 and " " in text:
        text = text.replace(" ", "  ", 1)
    return text


def _fuzzed_run(rng):
    """A run of 1-33 bits and its count.  Half are honest (an outcome
    string of one value, so strings repeat across runs as they do in a
    campaign); the other half draw each column apart from the tokens
    above, give one column a bit too many or too few, or miscount."""
    width = rng.choice([1, 2, 3, 8, 16, 32, 33])
    if rng.random() < 0.5:
        return (" ".join([rng.choice(VALUES[:3])] * width),
                " ".join(rng.choice(_CYCLE_TOKENS[:6]) for _ in range(width)),
                " ".join(rng.choice(TRAPS) for _ in range(width))), width
    widths = [width] * 3
    if rng.random() < 0.2:
        widths[rng.randrange(3)] += rng.choice([-1, 1])
    run = (_column(rng, _OUTCOME_TOKENS, max(widths[0], 1)),
           _column(rng, _CYCLE_TOKENS, max(widths[1], 1)),
           _column(rng, _TRAP_TOKENS, max(widths[2], 1)))
    return run, width + rng.choice([0, 0, 0, 0, -1, 1])


class TestValidRunOracle:
    """The one-pass ``_valid_run`` gives the verdict of the field-by-
    field reference on every run, with and without the outcome strings
    a campaign already found valid."""

    EDGES = [
        (("sdc", "٣", ""), 1),
        (("sdc", "²", ""), 1),
        (("sdc", "１", ""), 1),
        (("sdc no-effect", "1 ٣", " "), 2),
        (("sdc", "", ""), 1),
        (("", "1", ""), 1),
        (("sdc sdc", "1  ", " "), 2),
        (("sdc sdc", " 1", " "), 2),
        (("sdc sdc", "1 ", " "), 2),
        (("sdc sdc sdc", "1  2", "  "), 3),
        ((" sdc", "1 2", " "), 2),
        (("sdc ", "1 2", " "), 2),
        (("sdc  sdc", "1 2 3", "  "), 3),
        (("bogus", "1", ""), 1),
        (("sdc no-effect", "1 2", "with space"), 2),
        (("sdc no-effect", "1 2", " "), 3),
        (("sdc no-effect", "1 2", " "), 1),
        (("sdc no-effect", "1 2", " "), 2),
        (("sdc", "1\n", ""), 1),
        (("sdc", "-1", ""), 1),
    ]

    @pytest.mark.parametrize("run, count", EDGES)
    def test_edge_cases(self, run, count):
        assert _valid_run(run, count) == _reference_valid_run(run, count)
        known = {run[0]} if _reference_valid_run(run, count) else ()
        assert _valid_run(run, count, known) \
            == _reference_valid_run(run, count)

    def test_seeded_runs(self):
        rng = random.Random(20151)
        known: dict = {}  # as ScanStyle keeps it: valid strings only
        verdicts, known_hits = [0, 0], 0
        for _ in range(12_000):
            run, count = _fuzzed_run(rng)
            expected = _reference_valid_run(run, count)
            known_hits += run[0] in known
            assert _valid_run(run, count) == expected, (run, count)
            assert _valid_run(run, count, known) == expected, (run, count)
            if expected:
                known[run[0]] = None
            verdicts[expected] += 1
        # Both verdicts are well represented, and so are known strings.
        assert min(verdicts) > 3_000, verdicts
        assert known_hits > 3_000, known_hits

    @SETTINGS
    @given(run=st.tuples(*[st.text(alphabet=" 0123456789٣²sdcno-efftx",
                                   max_size=12)] * 3),
           count=st.integers(0, 6))
    def test_any_text(self, run, count):
        assert _valid_run(run, count) == _reference_valid_run(run, count)
