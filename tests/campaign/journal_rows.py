"""What a journal file holds, read with plain ``sqlite3`` — the view a
second connection (a monitor, a crash survivor) has — counted in
experiments, not rows: a result row is a run of bits
(``repro.campaign.journal`` module docstring)."""

import sqlite3

from repro.campaign.journal import RUN_BITS


def class_experiments(path) -> dict[tuple[int, int], int]:
    """Experiments journaled per class ``(axis, first_slot)``, over all
    campaigns, in key order."""
    conn = sqlite3.connect(path)
    try:
        return {(axis, first_slot): bits
                for axis, first_slot, bits in conn.execute(
                    f"SELECT axis, first_slot, SUM({RUN_BITS}) FROM "
                    f"class_results GROUP BY axis, first_slot "
                    f"ORDER BY axis, first_slot")}
    finally:
        conn.close()


def stored_experiments(path, table: str) -> int:
    """Experiments a result table holds (``class_results`` or
    ``section_results``)."""
    conn = sqlite3.connect(path)
    try:
        return conn.execute(
            f"SELECT COALESCE(SUM({RUN_BITS}), 0) FROM {table}").fetchone()[0]
    finally:
        conn.close()


def per_bit_rows(run, first_bit: int = 0) \
        -> list[tuple[int, str, int, str]]:
    """A run ``(outcomes, end_cycles, traps)`` stored from ``first_bit``
    as per-bit ``(bit, outcome_value, end_cycle, trap)`` rows, end
    cycles as integers."""
    outcomes, end_cycles, traps = (column.split(" ") for column in run)
    return [(bit, outcome, int(end_cycle), trap)
            for bit, outcome, end_cycle, trap in zip(
                range(first_bit, first_bit + len(outcomes)), outcomes,
                end_cycles, traps)]


def truncate_first_class(path, keep: int) -> tuple[int, int]:
    """Cut the first journaled class down to its first ``keep`` bits —
    what losing the page that held the rest does to a file that stores a
    row per bit — and return its key."""
    conn = sqlite3.connect(path)
    try:
        with conn:
            axis, first_slot, outcomes, cycles, traps = conn.execute(
                "SELECT axis, first_slot, outcome, end_cycle, trap FROM "
                "class_results WHERE bit = 0 ORDER BY axis, first_slot "
                "LIMIT 1").fetchone()
            head = [" ".join(column.split(" ")[:keep])
                    for column in (outcomes, str(cycles), traps)]
            conn.execute(
                "UPDATE class_results SET outcome = ?, end_cycle = ?, "
                "trap = ? WHERE axis = ? AND first_slot = ? AND bit = 0",
                (*head, axis, first_slot))
        return axis, first_slot
    finally:
        conn.close()
