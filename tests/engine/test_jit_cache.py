"""The whole-program dispatch function's code object is cached beside
the bytecode (``engine/compiled.py``, DESIGN.md §3e "The dispatch
function is cached beside the bytecode").

Every test points ``sys.pycache_prefix`` at its own directory and
clears ``sys.dont_write_bytecode``, so it starts from an empty cache
whatever the environment says, and leaves the checkout's
``__pycache__`` alone.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from repro.engine import compiled
from repro.engine.compiled import CompiledMachine, compile_program
from repro.isa import assemble
from repro.programs import all_programs, bin_sem2, hi


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """An empty cache directory that ``compile_program`` writes to."""
    monkeypatch.setattr(sys, "pycache_prefix", str(tmp_path / "pycache"))
    monkeypatch.setattr(sys, "dont_write_bytecode", False)
    return os.path.dirname(
        importlib.util.cache_from_source(compiled.__file__))


@pytest.fixture
def jit_compiles(monkeypatch):
    """The whole-program sources ``compile()`` is called on from here
    on (entrant twins are compiled per block and not cached)."""
    seen = []

    def counting(source, *args, **kwargs):
        if source.startswith("def _jit("):
            seen.append(source)
        return compile(source, *args, **kwargs)

    monkeypatch.setattr(compiled, "compile", counting, raising=False)
    return seen


def straight_line(first, name="fuzz"):
    """A program whose source clears the cache's line floor."""
    body = "\n".join(f"addi r1, r1, {first + k}"
                     for k in range(compiled._CACHE_MIN_LINES))
    return assemble(body + "\nhalt", name=name)


def cache_files(folder):
    if not os.path.isdir(folder):
        return []
    return sorted(name for name in os.listdir(folder)
                  if name.startswith("repro-jit."))


def final_digest(program):
    machine = CompiledMachine(program)
    machine.run(10_000_000)
    return machine.pc, machine.cycle, bytes(machine.serial), \
        machine.state_digest()


def key_of(source):
    return hashlib.sha256(importlib.util.MAGIC_NUMBER
                          + source.encode()).digest()


class TestHitAndMiss:
    def test_a_warm_process_compiles_nothing(self, cache_dir,
                                             jit_compiles):
        """A fresh ``Program`` finds its code on file: no ``compile()``
        of the dispatch function, the same source, the same run."""
        build = all_programs()["chain-sumdmr"]
        cold = compile_program(build())
        assert len(jit_compiles) == 1
        assert cache_files(cache_dir) == [
            f"repro-jit.chain-sumdmr.{sys.implementation.cache_tag}.bin"]
        program = build()
        warm = compile_program(program)
        assert len(jit_compiles) == 1
        assert warm.source == cold.source
        assert warm.run_fn is not cold.run_fn
        assert final_digest(program) == final_digest(build())

    def test_the_file_holds_the_key_of_the_source(self, cache_dir):
        code = compile_program(bin_sem2.baseline())
        (name,) = cache_files(cache_dir)
        data = open(os.path.join(cache_dir, name), "rb").read()
        assert data.startswith(compiled._CACHE_TAG + key_of(code.source))

    @pytest.mark.parametrize("damage", ["truncated", "other key",
                                        "garbage"])
    def test_a_damaged_file_is_recompiled_and_rewritten(
            self, cache_dir, jit_compiles, damage):
        compile_program(bin_sem2.baseline())
        (name,) = cache_files(cache_dir)
        path = os.path.join(cache_dir, name)
        good = open(path, "rb").read()
        head = len(compiled._CACHE_TAG) + 32
        bad = {
            "truncated": good[:head + (len(good) - head) // 2],
            "other key": good[:len(compiled._CACHE_TAG)]
            + bytes(32) + good[head:],
            "garbage": good[:head] + os.urandom(len(good) - head),
        }[damage]
        with open(path, "wb") as file:
            file.write(bad)
        program = bin_sem2.baseline()
        compile_program(program)
        assert len(jit_compiles) == 2
        assert open(path, "rb").read()[:head] == good[:head]
        assert final_digest(program) == final_digest(bin_sem2.baseline())
        compile_program(bin_sem2.baseline())
        assert len(jit_compiles) == 2  # the rewritten file is a hit

    def test_a_short_source_bypasses_the_cache(self, cache_dir,
                                               jit_compiles):
        """Below the line floor a compile is cheaper than the file."""
        assert compile_program(hi.baseline()).source.count("\n") \
            < compiled._CACHE_MIN_LINES
        compile_program(hi.baseline())
        assert len(jit_compiles) == 2
        assert cache_files(cache_dir) == []


class TestNothingWritten:
    def test_an_unwritable_directory_writes_and_raises_nothing(
            self, tmp_path, monkeypatch, jit_compiles):
        """A file stands where the cache directory would go: the
        directory cannot be made, so every process compiles."""
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"")
        monkeypatch.setattr(sys, "pycache_prefix", str(blocker / "pyc"))
        monkeypatch.setattr(sys, "dont_write_bytecode", False)
        compile_program(bin_sem2.baseline())
        compile_program(bin_sem2.baseline())
        assert len(jit_compiles) == 2
        assert os.listdir(tmp_path) == ["blocker"]

    def test_dont_write_bytecode_writes_nothing(self, cache_dir,
                                                monkeypatch, jit_compiles):
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        compile_program(bin_sem2.baseline())
        compile_program(bin_sem2.baseline())
        assert len(jit_compiles) == 2
        assert not os.path.exists(cache_dir)

    def test_dont_write_bytecode_still_reads(self, cache_dir, monkeypatch,
                                             jit_compiles):
        """Like ``.pyc`` files: the flag stops writes, not reads."""
        compile_program(bin_sem2.baseline())
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        compile_program(bin_sem2.baseline())
        assert len(jit_compiles) == 1


class TestBounded:
    def test_programs_of_one_name_share_one_file(self, cache_dir,
                                                 jit_compiles):
        """A mismatch overwrites: 50 distinct programs all named
        ``fuzz`` leave one file (and no temporary one), holding the
        last one's code."""
        for value in range(50):
            compile_program(straight_line(value))
        assert os.listdir(cache_dir) == [
            f"repro-jit.fuzz.{sys.implementation.cache_tag}.bin"]
        compile_program(straight_line(49))
        assert len(jit_compiles) == 50

    def test_a_name_is_never_a_path(self, cache_dir):
        compile_program(straight_line(0, name="../x/y z"))
        assert cache_files(cache_dir) == [
            f"repro-jit.___x_y_z.{sys.implementation.cache_tag}.bin"]


#: Builds ``argv[1]`` machines of programs named ``fuzz`` from two
#: sources in turn, and checks each one's final ``r1``.
RACER = (
    "import sys\n"
    "from repro.engine.compiled import CompiledMachine, _CACHE_MIN_LINES\n"
    "from repro.isa import assemble\n"
    "for turn in range(int(sys.argv[1])):\n"
    "    adds = [turn % 2 + k for k in range(_CACHE_MIN_LINES)]\n"
    "    machine = CompiledMachine(assemble('\\n'.join(\n"
    "        f'addi r1, r1, {a}' for a in adds) + '\\nhalt', name='fuzz'))\n"
    "    machine.run(10_000)\n"
    "    assert machine.halted and machine.regs[1] == sum(adds), turn\n")


def fresh_env(**extra):
    """This checkout's ``repro`` on the path, bytecode written unless
    ``extra`` says otherwise."""
    import repro

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__))))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return dict(env, **extra)


def test_processes_racing_on_one_file_load_only_whole_entries(tmp_path):
    """Four processes overwrite one name's file in turn: every machine
    runs its own program, and one file is left, no temporary one."""
    prefix = tmp_path / "pycache"
    env = fresh_env(PYTHONPYCACHEPREFIX=str(prefix))
    racers = [subprocess.Popen([sys.executable, "-c", RACER, "20"], env=env,
                               stderr=subprocess.PIPE, text=True)
              for _ in range(4)]
    for racer in racers:
        _, err = racer.communicate(timeout=120)
        assert racer.returncode == 0, err
    left = [name for _, _, names in os.walk(prefix) for name in names
            if not name.endswith(".pyc")]
    assert left == [f"repro-jit.fuzz.{sys.implementation.cache_tag}.bin"]


#: Prints the sha256 of every registry program's generated source.
SOURCES = (
    "import hashlib, json\n"
    "from repro.engine.compiled import compile_program\n"
    "from repro.programs import all_programs\n"
    "print(json.dumps({name: hashlib.sha256(compile_program(build())"
    ".source.encode()).hexdigest() for name, build in "
    "all_programs().items()}))\n")


def test_the_source_does_not_depend_on_the_hash_seed():
    """The key is the generated source, so it must be the same in every
    process: set and dict orders must not reach it."""
    digests = []
    for seed in ("0", "1"):
        env = fresh_env(PYTHONHASHSEED=seed, PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run([sys.executable, "-c", SOURCES], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        digests.append(json.loads(done.stdout.splitlines()[-1]))
    assert digests[0] == digests[1]
    assert sorted(digests[0]) == sorted(all_programs())
