"""The build key: which code computed a stored outcome.

The journal is a cache of outcomes, and a cached outcome is only as
good as the code that produced it.  A campaign's key and a section's
fingerprint commit to the program, the fault domain and the executor
settings; :func:`build_key` adds the code: the sha256 of the source
bytes of every module an outcome can depend on.  A journal written by
another build then holds no campaign and no section this build can
resume or compose, so an edit to the simulator, the injector or the
classifier makes a journal cold instead of wrong.

The module set is not listed by hand, so a new dependency cannot be
missed: it is the closure, over relative ``import`` lines, of
:data:`ROOTS` — the executor, the fault domains and the classifier.
The closure is read with a regular expression, not by parsing: the key
is computed once per process, on the first journal opened, and costs
one read of each module.  Every relative import counts, at module
level or inside a function.
"""

from __future__ import annotations

import hashlib
import re
from functools import cache
from pathlib import Path

#: The package's source root.
_PACKAGE = Path(__file__).resolve().parent

#: Where an outcome is computed — the executor, the fault domains, the
#: classifier — and where a section's fingerprint is, which decides
#: whose outcomes a campaign may compose.
ROOTS = ("campaign/experiment.py", "faultspace/domain.py",
         "campaign/outcomes.py", "faultspace/sections.py")

#: ``from .a.b import c, d`` / ``from .. import (c, d)``: the leading
#: dots, the module path and the imported names.
_RELATIVE_IMPORT = re.compile(
    r"^[ \t]*from[ \t]+(\.+)([\w.]*)[ \t]+import[ \t]+(\([^)]*\)|[^\n]*)",
    re.MULTILINE)


def _module(path: Path) -> Path | None:
    """The source file of the module or package at ``path`` (no suffix)."""
    for source in (path.with_suffix(".py"), path / "__init__.py"):
        if source.is_file():
            return source
    return None


def _imports(source: Path, text: str) -> list[Path]:
    """The package modules ``text``, the source of ``source``, imports:
    a module, or a package's submodules by name — its ``__init__`` for
    a name that is none (a re-export)."""
    found = []
    for dots, dotted, names in _RELATIVE_IMPORT.findall(text):
        base = source.parent
        for _ in range(len(dots) - 1):
            base = base.parent
        target = base.joinpath(*dotted.split(".")) if dotted else base
        module = _module(target)
        if module is None:
            continue
        if module.name != "__init__.py":
            found.append(module)
            continue
        for name in re.findall(r"\w+", names):
            found.append(_module(target / name) or module)
    return found


def closure() -> dict[Path, bytes]:
    """Every module an outcome depends on, by path: its source bytes."""
    seen: dict[Path, bytes] = {}
    todo = [_PACKAGE / root for root in ROOTS]
    while todo:
        source = todo.pop()
        if source in seen:
            continue
        seen[source] = data = source.read_bytes()
        todo.extend(_imports(source, data.decode("utf-8")))
    return seen


@cache
def build_key() -> str:
    """sha256 over the relative path and source bytes of each module of
    :func:`closure`, in path order; computed once per process."""
    digest = hashlib.sha256()
    for source, data in sorted(closure().items()):
        digest.update(source.relative_to(_PACKAGE).as_posix().encode())
        digest.update(b"\0")
        digest.update(data)
        digest.update(b"\0")
    return digest.hexdigest()
