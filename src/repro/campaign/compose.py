"""A campaign is its sections: linking it to the cross-campaign
section store, and storing its fresh runs there.

The section store (the journal's ``sections`` and ``section_results``)
is where every campaign's results live; ``campaign_sections`` says
which sections a campaign reads (:mod:`repro.campaign.journal`).  This
module is the campaign's side of that store:

* :func:`link_sections` — run by the pipeline's prologue when a
  campaign has no links (its first open, or after ``clear()``):
  fingerprint the golden run's sections
  (:mod:`repro.faultspace.sections`), intern them in the journal and
  link them to the campaign.  The prologue then reads the rows of the
  linked sections in one ``SELECT``
  (:meth:`~.journal.CampaignJournal.stored_runs`): whatever **any**
  previous campaign — typically a different program variant or an
  earlier sweep — stored there is *composed* into this one, by the
  read a plain resume makes.
* :class:`SectionComposer` — the slot → section-id map of a campaign
  that has work left: every transport stores a batch of fresh runs
  through :meth:`SectionComposer.store_runs` as one unit, first-wins
  per key (a longer run replaces a shorter one stored at the same
  first bit, nothing else is overwritten), so concurrent or repeated
  campaigns agree.

Soundness rests on the section fingerprint (see
``faultspace/sections.py``): equal fingerprints imply identical entry
state, identical reachable code, identical absolute cycle window and
identical executor budget, so every (slot, axis, bit) experiment in
the window has identical outcome, end cycle and trap.  Every row a
campaign's sink accepts is one the simulator produced (a worker that
dies yields a retry, never a row), so all of them are stored.  The brute-force oracle
(:func:`~repro.campaign.runner.run_brute_force`) is no campaign: it
never opens a journal, so it can neither read nor write the store, and
its validation of the def/use pruning cannot turn circular.
"""

from __future__ import annotations

import json
from bisect import bisect_right

from ..faultspace.sections import build_section_map
from .journal import CampaignJournal


def link_sections(handle: CampaignJournal, golden, domain,
                  params: dict | None) -> list[tuple[int, int, int]]:
    """Intern the golden run's sections in the journal and link every
    one of them to the campaign (the links in one commit); returns them
    as :meth:`~.journal.CampaignJournal.linked_sections` does."""
    journal = handle.journal
    # Intern every section before linking any: interning is a read (and
    # a write, committed at once, only for a section no campaign has
    # seen), and a read commits whatever the window holds.
    sections = [
        (journal.section(
            fingerprint=section.fingerprint,
            program=golden.program.name, domain=domain.name,
            first_slot=section.first_slot, last_slot=section.last_slot,
            detail=json.dumps({
                "slots": section.slots,
                "blocks": len(section.leaders),
                "escape": section.escape,
            }, sort_keys=True)), section.first_slot, section.last_slot)
        for section in build_section_map(golden, domain, params)]
    handle.link_sections([section_id for section_id, _, _ in sections])
    handle.flush()
    return sections


class SectionComposer:
    """Where one campaign's fresh runs go: the section each injection
    slot belongs to, from the campaign's linked sections
    ``(section_id, first_slot, last_slot)`` (ascending, contiguous:
    :meth:`~.journal.CampaignJournal.linked_sections`)."""

    def __init__(self, handle: CampaignJournal,
                 sections: list[tuple[int, int, int]]):
        self.journal = handle.journal
        self._ids = [section_id for section_id, _, _ in sections]
        self._starts = [first_slot for _, first_slot, _ in sections]

    def store_runs(self, runs) -> None:
        """Write freshly executed runs into the section store as one
        unit.

        ``runs`` holds ``(slot, axis, first_bit, run)``, each run
        ``(outcomes, end_cycles, traps)`` as a style's ``execute``
        yields it: a class from bit 0 at its injection slot, or a
        sampled experiment as a run of one at its bit.
        """
        ids, starts = self._ids, self._starts
        self.journal.merge_section_runs([
            (ids[bisect_right(starts, slot) - 1], slot, axis, bit, *run)
            for slot, axis, bit, run in runs])

    # Named by benchmarks/e2e/trace.py TARGETS only; the [benchmark] PR
    # that drops that entry deletes these stubs.
    def compose_class(self, *args, **kwargs) -> None:
        pass

    def store_class(self, *args, **kwargs) -> None:
        pass
