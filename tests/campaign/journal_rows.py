"""What a journal file holds, read with plain ``sqlite3`` — the view a
second connection (a monitor, a crash survivor) has — counted in
experiments, not rows: a result row is a run of bits
(``repro.campaign.journal`` module docstring)."""

import sqlite3

from repro.campaign.journal import RUN_BITS


def class_experiments(path) -> dict[tuple[int, int], int]:
    """Experiments stored per run ``(slot, axis)`` from bit 0 — a scan's
    class at its injection slot — over all sections, in key order."""
    conn = sqlite3.connect(path)
    try:
        return {(slot, axis): bits
                for slot, axis, bits in conn.execute(
                    f"SELECT slot, axis, SUM({RUN_BITS}) FROM "
                    f"section_results WHERE bit = 0 GROUP BY slot, axis "
                    f"ORDER BY slot, axis")}
    finally:
        conn.close()


def stored_experiments(path) -> int:
    """Experiments the section store holds."""
    conn = sqlite3.connect(path)
    try:
        return conn.execute(
            f"SELECT COALESCE(SUM({RUN_BITS}), 0) FROM "
            f"section_results").fetchone()[0]
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


def truncate_first_class(path, keep: int, columns: int = 3) \
        -> tuple[int, int]:
    """Cut the first stored class (a run from bit 0, in key order) down
    to its first ``keep`` bits — what losing the page that held the rest
    does to a file that stores a row per bit — and return its ``(slot,
    axis)``.  ``columns < 3`` cuts only the first ``columns`` value
    columns, which tears the run: its columns disagree on its length."""
    conn = sqlite3.connect(path)
    try:
        with conn:
            section, slot, axis, *run = conn.execute(
                "SELECT section_id, slot, axis, outcome, end_cycle, trap "
                "FROM section_results WHERE bit = 0 "
                "ORDER BY section_id, slot, axis LIMIT 1").fetchone()
            values = [str(column) for column in run]
            values[:columns] = [" ".join(column.split(" ")[:keep])
                                for column in values[:columns]]
            conn.execute(
                "UPDATE section_results SET outcome = ?, end_cycle = ?, "
                "trap = ? WHERE section_id = ? AND slot = ? AND axis = ? "
                "AND bit = 0", (*values, section, slot, axis))
        return slot, axis
    finally:
        conn.close()
