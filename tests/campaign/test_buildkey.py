"""A stored result is keyed on the build that produced it.

The journal caches outcomes; :func:`repro.buildkey.build_key` puts the
code that computed them — simulator, injector, classifier, section
recipe — into every campaign key and section fingerprint, so a journal
another build wrote resumes and composes nothing.
"""

import os
import shutil
import subprocess
import sys

import pytest

import repro
from repro import buildkey
from repro.campaign import record_golden, run_full_scan
from repro.campaign.journal import ExperimentJournal
from repro.programs import micro

_SOURCE = os.path.dirname(os.path.abspath(repro.__file__))


def _covered(directory: str) -> set[str]:
    return {path.relative_to(buildkey._PACKAGE).as_posix()
            for path in buildkey.closure()
            if path.parent.name == directory}


class TestClosure:
    def test_the_closure_covers_what_computes_an_outcome(self):
        """Every module of ``isa/`` (the simulator), the compiled engine,
        every fault domain's module and the classifier."""
        isa = {f"isa/{name}" for name in os.listdir(
            os.path.join(_SOURCE, "isa"))
            if name.endswith(".py") and name != "__init__.py"}
        assert isa and isa <= _covered("isa")
        assert "engine/compiled.py" in _covered("engine")
        assert {"faultspace/domain.py", "faultspace/registers.py",
                "faultspace/burst.py", "faultspace/stuckat.py",
                "faultspace/pcreg.py", "faultspace/sections.py"} \
            <= _covered("faultspace")
        assert {"campaign/experiment.py", "campaign/outcomes.py"} \
            <= _covered("campaign")

    def test_relative_imports_are_followed_in_every_form(self, tmp_path):
        """``from .m import x``, a parenthesised name list, ``from . import
        submodule``, an import inside a function and a package
        ``__init__``'s own imports all join the closure, and a name that
        is no module brings in the package's ``__init__`` (a re-export);
        an absolute import does not."""
        package = tmp_path / "pkg"
        (package / "sub").mkdir(parents=True)
        files = {
            "__init__.py": "",
            "root.py": ("import os\nfrom .a import thing\n"
                        "from . import (\n    b,\n    missing,\n)\n"
                        "def late():\n    from .sub import helper\n"),
            "a.py": "", "b.py": "", "c.py": "",
            "sub/__init__.py": "from ..c import value\n",
            "sub/helper.py": "",
        }
        for name, text in files.items():
            (package / name).write_text(text)
        found = buildkey._imports(package / "root.py",
                                  files["root.py"])
        assert sorted(path.relative_to(package).as_posix()
                      for path in found) == [
            "__init__.py", "a.py", "b.py", "sub/helper.py"]
        assert buildkey._imports(package / "sub/__init__.py",
                                 files["sub/__init__.py"]) \
            == [package / "c.py"]

    def test_the_key_is_computed_once(self):
        assert buildkey.build_key() is buildkey.build_key()
        assert len(buildkey.build_key()) == 64


def _patch_key(monkeypatch, key: str) -> None:
    """Make this process another build, as far as its journal sees."""
    import repro.campaign.journal as journal_mod
    import repro.faultspace.sections as sections_mod

    for module in (journal_mod, sections_mod):
        monkeypatch.setattr(module, "build_key", lambda: key)


class TestAnotherBuild:
    @pytest.fixture(scope="class")
    def golden(self):
        return record_golden(micro.memcopy(6))

    def test_a_same_build_rerun_resumes_every_class(self, tmp_path, golden):
        journal = tmp_path / "j.sqlite"
        first = run_full_scan(golden, journal=journal)
        again = run_full_scan(golden, journal=journal)
        assert again == first
        assert again.execution.executed == 0
        assert again.execution.resumed == again.execution.total_units

    def test_another_build_resumes_and_composes_nothing(
            self, tmp_path, monkeypatch, golden):
        """A campaign and its sections journaled under another build's
        key: this build's scan on the same journal neither resumes nor
        composes one class of them."""
        journal = tmp_path / "j.sqlite"
        _patch_key(monkeypatch, "0" * 64)
        run_full_scan(golden, journal=journal)
        monkeypatch.undo()
        scan = run_full_scan(golden, journal=journal)
        assert scan == run_full_scan(golden)
        assert scan.execution.resumed == 0
        assert scan.execution.composed_hits == 0
        assert scan.execution.executed == scan.execution.total_units
        with ExperimentJournal(journal) as log:
            builds = [entry["params"]["build"] for entry in log.campaigns()]
        assert builds == ["0" * 64, buildkey.build_key()]


def _run(tree, *args) -> str:
    env = dict(os.environ, PYTHONPATH=str(tree))
    done = subprocess.run([sys.executable, "-m", "repro", *map(str, args)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


def test_a_patched_classifier_resumes_nothing(tmp_path):
    """The reproduction: build A journals ``scan hi``; build B — its
    classifier calls every silent corruption a CPU exception — runs the
    same command on the same journal.  B resumes and composes nothing
    and prints what B prints without a journal, not A's table."""
    patched = tmp_path / "patched"
    shutil.copytree(_SOURCE, patched / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    experiment = patched / "repro" / "campaign" / "experiment.py"
    text = experiment.read_text()
    start = text.index("def _classify_diverged(")
    end = text.index("return Outcome.SDC", start)
    experiment.write_text(text[:end] + "return Outcome.CPU_EXCEPTION"
                          + text[end + len("return Outcome.SDC"):])
    journal = tmp_path / "j.sqlite"
    original = _run(os.path.dirname(_SOURCE), "scan", "hi",
                    "--journal", journal)
    fresh = _run(patched, "scan", "hi")
    rerun = _run(patched, "scan", "hi", "--journal", journal)
    assert "sdc" in original and "sdc" not in fresh
    assert "0 executed" not in rerun
    assert "resumed from journal" not in rerun
    assert "composed" not in rerun
    assert rerun == fresh
