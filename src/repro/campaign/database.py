"""Campaign summaries, program fingerprints and per-class CSV files.

A :class:`CampaignSummary` is derived from a full scan's result and
never stored: the experiment journal (:mod:`repro.campaign.journal`) is
the one result store, keyed by program fingerprint, fault domain and
every campaign parameter, so a summary is cached by journaling the
scan and resuming it — a resumed complete campaign executes nothing.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from pathlib import Path

from ..isa.assembler import Program
from .outcomes import Outcome
from .runner import CampaignResult


@dataclass(frozen=True)
class CampaignSummary:
    """Everything the metrics layer needs from a full-scan campaign.

    ``domain`` names the fault domain the campaign scanned, one of
    :data:`~repro.faultspace.domain.DOMAINS` (``"memory"``,
    ``"register"``, ...).
    """

    program_name: str
    cycles: int
    ram_bytes: int
    fault_space_size: int
    experiments: int
    weighted_counts: dict[str, int]
    raw_counts: dict[str, int]
    known_no_effect_weight: int
    domain: str

    @classmethod
    def from_result(cls, result: CampaignResult) -> "CampaignSummary":
        """The summary of a full scan: its counts from one
        :meth:`~.runner.CampaignResult.tally`, keyed by outcome value
        (what :meth:`~.runner.CampaignResult.weighted_counts` and
        ``raw_counts`` give, without a ``Counter`` in between)."""
        golden = result.golden
        tally = result.tally()
        known = result.partition.known_no_effect_weight
        weighted = {outcome.value: count
                    for outcome, count, _ in tally if count}
        no_effect = Outcome.NO_EFFECT.value
        weighted[no_effect] = weighted.get(no_effect, 0) + known
        return cls(
            program_name=golden.program.name,
            cycles=golden.cycles,
            ram_bytes=golden.program.ram_size,
            fault_space_size=result.fault_space_size,
            experiments=result.experiments_conducted,
            weighted_counts=weighted,
            raw_counts={outcome.value: raw for outcome, _, raw in tally},
            known_no_effect_weight=known,
            domain=result.domain.name,
        )

    def weighted(self) -> dict[Outcome, int]:
        return {Outcome(k): v for k, v in self.weighted_counts.items()}

    def raw(self) -> dict[Outcome, int]:
        return {Outcome(k): v for k, v in self.raw_counts.items()}


def program_fingerprint(program: Program) -> str:
    """Content hash identifying a program variant for caching."""
    digest = hashlib.sha256()
    digest.update(program.name.encode())
    digest.update(str(program.ram_size).encode())
    digest.update(program.source.encode())
    digest.update(program.data)
    for instr in program.rom:
        digest.update(
            f"{instr.op}|{instr.rd}|{instr.rs1}|{instr.rs2}|{instr.imm}"
            .encode())
    return digest.hexdigest()[:24]


def export_class_results_csv(result: CampaignResult,
                             path: str | Path) -> None:
    """Write per-class experiment results to a CSV file.

    Columns: spatial axis index (byte address or register number),
    interval bounds, lifetime weight, and the domain's per-bit outcomes
    (8 columns for memory, 32 for registers).
    """
    domain = result.domain
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["addr", "first_slot", "last_slot", "length"]
                        + [f"bit{b}" for b in range(domain.bits)])
        for interval, outcomes in result.class_records():
            writer.writerow(
                [domain.axis_of(interval), interval.first_slot,
                 interval.last_slot, interval.length]
                + [o.value for o in outcomes])
