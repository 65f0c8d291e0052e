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
from math import gcd, lcm
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
    #: What a ``BiasedClassSampler`` campaign estimates on average — the
    #: Pitfall 2 number — as an exact ``(numerator, denominator)`` in
    #: lowest terms: :attr:`biased_class_estimate`.
    biased_class_terms: tuple[int, int]

    @classmethod
    def from_result(cls, result: CampaignResult) -> "CampaignSummary":
        """The summary of a full scan, read off its one walk
        (:meth:`~.runner.CampaignResult.class_tally`): its counts keyed
        by outcome value (what :meth:`~.runner.CampaignResult.
        weighted_counts` and ``raw_counts`` give, without a ``Counter``
        in between), and the biased-class estimate ``w · (1/L) · Σ
        members · failing / width`` over the walk's outcome groups and
        the ``L`` live classes, summed over a common denominator."""
        golden = result.golden
        walk = result.class_tally()
        known = result.partition.known_no_effect_weight
        weighted = {outcome.value: count
                    for outcome, count, _ in walk.counts if count}
        no_effect = Outcome.NO_EFFECT.value
        weighted[no_effect] = weighted.get(no_effect, 0) + known
        common = lcm(*{width for _, _, width in walk.groups})
        numerator = result.fault_space_size * sum(
            members * fails * (common // width)
            for members, fails, width in walk.groups)
        # No live class: nothing fails, and nothing could be drawn.
        denominator = common * len(result.partition.live_classes()) or 1
        divisor = gcd(numerator, denominator)
        return cls(
            program_name=golden.program.name,
            cycles=golden.cycles,
            ram_bytes=golden.program.ram_size,
            fault_space_size=result.fault_space_size,
            experiments=result.experiments_conducted,
            weighted_counts=weighted,
            raw_counts={outcome.value: raw for outcome, _, raw in walk.counts},
            known_no_effect_weight=known,
            domain=result.domain.name,
            biased_class_terms=(numerator // divisor,
                                denominator // divisor),
        )

    @property
    def biased_class_estimate(self):
        """:attr:`biased_class_terms` as a ``fractions.Fraction``:
        :func:`~repro.metrics.failure_counts.
        expected_biased_class_estimate` of the scan, exactly."""
        from fractions import Fraction  # loaded where used

        return Fraction(*self.biased_class_terms)

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
    (8 columns for memory, 32 for registers).  The bytes are
    ``csv.writer``'s (no value needs quoting: axes and slots are
    integers, outcome values plain words); each row is written as text,
    and the outcome columns of a tuple that classes share (a scan's
    classes with equal outcomes share one) are joined once.
    """
    domain = result.domain
    joined: dict[int, str] = {}  # id(outcomes) → its columns
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerow(
            ["addr", "first_slot", "last_slot", "length"]
            + [f"bit{b}" for b in range(domain.bits)])
        write = handle.write
        for interval, outcomes in result.class_records():
            columns = joined.get(id(outcomes))
            if columns is None:
                columns = joined[id(outcomes)] = ",".join(
                    [outcome.value for outcome in outcomes])
            write(f"{domain.axis_of(interval)},{interval.first_slot},"
                  f"{interval.last_slot},{interval.length},{columns}\r\n")
