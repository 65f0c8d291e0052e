"""Property-based tests of the journal's run rows.

A ``class_results`` / ``section_results`` row holds a run of bits, its
per-bit values space-separated (``repro.campaign.journal``).  The
writers take per-bit rows and the readers return them, so the format is
invisible from outside — which is what these properties pin: a class of
any width, with any outcomes, end cycles and (empty or named) traps,
round-trips; and a section fed any interleaving of sampled single bits
and whole classes composes exactly what was stored, each bit once.
"""

from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from repro.campaign import ExperimentJournal, record_golden
from repro.campaign.compose import SectionComposer
from repro.campaign.outcomes import OUTCOME_BY_VALUE
from repro.campaign.pipeline import InProcess
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
                campaign.record_class(axis, first_slot, rows)
            assert campaign.completed_classes() == {
                key: [(bit, OUTCOME_BY_VALUE[value], end_cycle, trap)
                      for bit, value, end_cycle, trap in rows]
                for key, rows in sorted(stored.items())}
            assert journal.campaigns()[0]["journaled_experiments"] \
                == sum(map(len, stored.values()))


_SECTIONS: dict = {}


def _section(domain_name: str):
    """``(golden, domain, params, intervals)``: up to four live classes
    of the section of ``counter(2)`` that owns the most of them."""
    if domain_name not in _SECTIONS:
        golden = record_golden(micro.counter(2))
        domain = get_domain(domain_name)
        params = InProcess(golden, domain).params
        with ExperimentJournal(":memory:") as journal:
            owner = SectionComposer(_campaign(journal), golden, domain,
                                    params).map.owner
        by_section: dict = {}
        for interval in domain.build_partition(golden).live_classes():
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
        with ExperimentJournal(":memory:") as journal:
            writer = SectionComposer(_campaign(journal), golden, domain,
                                     params)
            for index, bit in ops:
                interval = intervals[index]
                slot = interval.injection_slot
                axis = domain.axis_of(interval)
                width = domain.experiment_count(interval)
                if bit is None:
                    writer.store_class(interval, [
                        _row(slot, axis, b) for b in range(width)])
                    stored[index].update(range(width))
                else:
                    bit %= width
                    writer.store_experiment(slot, axis,
                                            *_row(slot, axis, bit))
                    stored[index].add(bit)
            reader = SectionComposer(_campaign(journal, kind="sampling"),
                                     golden, domain, params)
            for interval, bits in zip(intervals, stored):
                slot = interval.injection_slot
                axis = domain.axis_of(interval)
                width = domain.experiment_count(interval)
                full = [_row(slot, axis, b) for b in range(width)]
                assert reader.compose_class(interval) \
                    == (full if len(bits) == width else None)
                for bit in range(width):
                    assert reader.compose_experiment(slot, axis, bit) \
                        == (full[bit][1:] if bit in bits else None)
