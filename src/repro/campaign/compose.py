"""Composing campaign results from the cross-campaign section store.

:class:`SectionComposer` is the bridge between one campaign run and the
journal's section store (schema v2).  On construction it fingerprints
the golden run's sections (:mod:`repro.faultspace.sections`), interns
them in the journal and links them to the campaign; during the run it
answers two questions:

* *compose*: does the store already hold this equivalence class whole
  — one valid run from bit 0, written by **any** previous campaign,
  typically a different program variant or an earlier sweep?  If so,
  that run is returned without executing anything and the runner
  merges it exactly as it merges a resumed journal run.  A sampled
  experiment composes from a single-bit run stored at its bit or from
  its value in a run stored from bit 0.
* *store*: a freshly executed class/experiment is written back as the
  run its style's ``execute`` yielded, first-wins per key (a longer run
  replaces a shorter one stored at the same first bit, nothing else is
  overwritten), so concurrent or repeated campaigns agree.  Every
  transport stores a batch as one unit, as it journals it
  (:meth:`SectionComposer.store_runs`).

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

from ..faultspace.sections import build_section_map
from .journal import CampaignJournal, _valid_run


class SectionComposer:
    """Section-store view of one campaign: compose hits, store misses."""

    def __init__(self, handle: CampaignJournal, golden, domain,
                 params: dict | None):
        self.handle = handle
        self.journal = handle.journal
        self.domain = domain
        self.map = build_section_map(golden, domain, params)
        # Intern every section before linking any: interning is a read
        # (and a write, committed at once, only for a section no
        # campaign has seen), and a read commits whatever the window
        # holds — interleaved, each buffered link cost a commit of its
        # own.
        self._ids: dict[int, int] = {
            section.index: self.journal.section(
                fingerprint=section.fingerprint,
                program=golden.program.name, domain=domain.name,
                first_slot=section.first_slot,
                last_slot=section.last_slot,
                detail=json.dumps({
                    "slots": section.slots,
                    "blocks": len(section.leaders),
                    "escape": section.escape,
                }, sort_keys=True))
            for section in self.map}
        for section_id in self._ids.values():
            handle.link_section(section_id)
        handle.flush()  # one commit for all the links
        self._rows: dict[int, dict] = {}
        #: Outcome strings of runs :meth:`compose_class` found valid.
        self._valid_outcomes: set[str] = set()

    # -- store access ---------------------------------------------------------

    def _section_rows(self, index: int) -> dict:
        """Stored rows of one section, loaded lazily once per run."""
        cached = self._rows.get(index)
        if cached is None:
            cached = self.journal.section_rows(self._ids[index])
            self._rows[index] = cached
        return cached

    # -- full-scan classes ----------------------------------------------------

    def compose_class(self, interval):
        """One live class from the store as its run ``(outcomes,
        end_cycles, traps)`` from bit 0 — stored form, what
        :meth:`~.journal.CampaignJournal.record_classes` takes — or
        ``None``.

        A class composes only from a stored run from bit 0 that holds
        exactly its experiments, each a valid value
        (:func:`~.journal._valid_run`, the fabric's check): a class
        stored in pieces (a sampled campaign stores single bits) or
        malformed re-executes whole, preserving the class-atomic
        crash-tolerance unit.
        """
        slot = interval.injection_slot
        run = self._section_rows(self.map.owner(slot).index).get(
            (slot, self.domain.axis_of(interval), 0))
        if run is None or not _valid_run(
                run, self.domain.experiment_count(interval),
                self._valid_outcomes):
            return None
        self._valid_outcomes.add(run[0])
        return run

    def store_class(self, interval, run) -> None:
        """Write one freshly executed class, its run ``(outcomes,
        end_cycles, traps)`` from bit 0, into the section store."""
        self.store_runs([(interval.injection_slot,
                          self.domain.axis_of(interval), 0, run)])

    def store_runs(self, runs) -> None:
        """Write freshly executed runs into the section store as one
        unit.

        ``runs`` holds ``(slot, axis, first_bit, run)``, each run
        ``(outcomes, end_cycles, traps)`` as a style's ``execute``
        yields it: a class from bit 0, or a sampled experiment as a run
        of one at its bit.
        """
        owner, ids = self.map.owner, self._ids
        self.journal.merge_section_runs([
            (ids[owner(slot).index], slot, axis, bit, *run)
            for slot, axis, bit, run in runs])

    # -- sampled experiments --------------------------------------------------

    def compose_experiment(self, slot: int, axis: int, bit: int):
        """One experiment's stored ``(outcome_value, end_cycle, trap)``
        or ``None``: the single-bit run stored at ``bit``, else the
        ``bit``-th value of the run stored from bit 0 (a class stored
        whole or in part); a malformed value does not compose."""
        rows = self._section_rows(self.map.owner(slot).index)
        value = rows.get((slot, axis, bit))
        if value is None or " " in value[0]:  # not a single-bit run
            columns = [column.split(" ")
                       for column in rows.get((slot, axis, 0), ())]
            if not columns or any(len(column) <= bit
                                  for column in columns):
                return None
            value = tuple(column[bit] for column in columns)
        if not _valid_run(value, 1):
            return None
        outcome, end_cycle, trap = value
        return outcome, int(end_cycle), trap
