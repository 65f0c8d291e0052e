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


def import_class_results_csv(path: str | Path) -> list[dict]:
    """Read back a CSV produced by :func:`export_class_results_csv`.

    Robust against files that went through a spreadsheet or another CSV
    tool: bit columns are matched strictly (``bit<N>``) and ordered by
    their *numeric* index — a lexicographic sort would put ``bit10``
    before ``bit2`` and silently permute 32-bit register outcomes — and
    the integer fields tolerate surrounding whitespace.  A missing
    header, a non-contiguous bit-column set or a malformed value raises
    :class:`ValueError` instead of producing a silently wrong import.
    """
    rows = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        fields = reader.fieldnames or []
        missing = [name for name in ("addr", "first_slot", "last_slot",
                                     "length") if name not in fields]
        if missing:
            raise ValueError(
                f"{path}: not a class-results CSV; missing column(s) "
                f"{', '.join(missing)}")
        bit_columns = sorted(
            (name for name in fields
             if name.startswith("bit") and name[3:].isdigit()),
            key=lambda name: int(name[3:]))
        if not bit_columns:
            raise ValueError(f"{path}: no bit<N> outcome columns")
        indices = [int(name[3:]) for name in bit_columns]
        if indices != list(range(len(indices))):
            raise ValueError(
                f"{path}: bit columns are not contiguous from bit0 "
                f"(got {', '.join(bit_columns)})")
        for line, row in enumerate(reader, start=2):
            try:
                rows.append({
                    "addr": int(row["addr"].strip()),
                    "first_slot": int(row["first_slot"].strip()),
                    "last_slot": int(row["last_slot"].strip()),
                    "length": int(row["length"].strip()),
                    "outcomes": tuple(Outcome(row[name].strip())
                                      for name in bit_columns),
                })
            except (AttributeError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"{path}: malformed row at line {line}: {exc}") \
                    from exc
    return rows


def export_class_rows_csv(rows: list[dict], path: str | Path) -> None:
    """Write rows in :func:`import_class_results_csv` form back to CSV.

    The inverse of the importer: re-exporting an imported file produces
    a byte-identical copy, which is what makes the CSV a faithful
    interchange format (and what the round-trip tests assert).
    """
    if not rows:
        raise ValueError("no rows to export")
    bits = len(rows[0]["outcomes"])
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["addr", "first_slot", "last_slot", "length"]
                        + [f"bit{b}" for b in range(bits)])
        for row in rows:
            if len(row["outcomes"]) != bits:
                raise ValueError(
                    "rows mix outcome widths; cannot export one CSV")
            writer.writerow(
                [row["addr"], row["first_slot"], row["last_slot"],
                 row["length"]] + [o.value for o in row["outcomes"]])
