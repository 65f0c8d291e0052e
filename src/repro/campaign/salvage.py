"""Torn-write recovery (``ExperimentJournal(path, salvage=True)``,
``repro journal --salvage``): rebuild a corrupt journal from its
readable rows."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .journal import ExperimentJournal

if TYPE_CHECKING:
    import sqlite3


@dataclass(frozen=True)
class SalvageReport:
    """What :func:`salvage_journal` pulled out of a corrupt file."""

    #: Where the corrupt original was moved (``<path>.corrupt``).
    source: str
    #: Rows recovered per table.
    recovered: dict = field(default_factory=dict)
    #: Tables whose read hit corruption (recovery stopped mid-table,
    #: so their counts are lower bounds on what the file once held).
    truncated: tuple = ()

    @property
    def total_rows(self) -> int:
        return sum(self.recovered.values())


def salvage_journal(path: str | Path) -> SalvageReport:
    """Rebuild a corrupt journal in place from its readable rows.

    Torn-write recovery: a journal that fails ``quick_check`` (a crash
    mid-checkpoint, a truncated copy, disk corruption) is moved aside
    to ``<path>.corrupt`` and a fresh journal is rebuilt at ``path``
    by reading each of its tables (:func:`schema_tables`) row-by-row
    until the first unreadable page.  SQLite's transactionality means
    every recovered row was durably committed; what is *lost* is any
    row on a damaged page, and a recovered row can still hold a value
    no build wrote, so the pipeline's prologue validates every stored
    run it reads (:meth:`~.pipeline.CampaignStyle.trusted`), under every
    transport, instead of trusting recovered runs blindly.  Only the
    tables of this build's schema are read: a table the fresh journal
    does not have is left in the ``.corrupt`` copy.
    """
    import sqlite3  # loaded when a journal is first salvaged

    path = str(path)
    corrupt = path + ".corrupt"
    os.replace(path, corrupt)
    for suffix in ("-wal", "-shm"):
        try:
            os.replace(path + suffix, corrupt + suffix)
        except OSError:
            pass
    recovered: dict[str, int] = {}
    truncated: list[str] = []
    fresh = ExperimentJournal(path)
    try:
        source = sqlite3.connect(corrupt)
        try:
            for table, columns in schema_tables(fresh._conn):
                if table == "meta":
                    continue  # the fresh journal's version stamp wins
                rows, clean = _read_rows(source, table, columns)
                if not clean:
                    truncated.append(table)
                if rows:
                    cols = ", ".join(columns)
                    marks = ", ".join("?" * len(columns))
                    fresh._write(
                        f"INSERT OR IGNORE INTO {table} ({cols}) "
                        f"VALUES ({marks})", rows)
                recovered[table] = len(rows)
        finally:
            source.close()
    finally:
        fresh.close()
    return SalvageReport(source=corrupt, recovered=recovered,
                         truncated=tuple(truncated))


def schema_tables(conn: sqlite3.Connection) \
        -> list[tuple[str, tuple[str, ...]]]:
    """``(table, columns)`` of every table of ``conn``'s database in
    creation order: for a fresh journal, the schema's tables in
    dependency order."""
    return [(table, tuple(row[1] for row in conn.execute(
                f"PRAGMA table_info({table})")))
            for (table,) in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table' "
                "AND name NOT LIKE 'sqlite_%' ORDER BY rowid").fetchall()]


def _read_rows(conn: sqlite3.Connection, table: str,
               columns: tuple[str, ...]) -> tuple[list, bool]:
    """Read as many rows as the damaged file yields; False if it broke."""
    import sqlite3

    rows: list = []
    try:
        cursor = conn.execute(
            f"SELECT {', '.join(columns)} FROM {table}")
    except sqlite3.DatabaseError:
        return rows, False
    while True:
        try:
            row = cursor.fetchone()
        except sqlite3.DatabaseError:
            return rows, False
        if row is None:
            return rows, True
        rows.append(row)
