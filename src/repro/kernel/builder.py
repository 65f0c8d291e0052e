"""A cooperative threading mini-kernel, generated as assembly.

This is the reproduction's substrate for the paper's eCos kernel-test
benchmarks: a small run-to-completion kernel with

* static threads with per-thread stacks and saved contexts (TCBs),
* a round-robin cooperative scheduler (``call __yield``),
* counting/binary semaphores, mutexes and event flags implemented as
  wait-loops around the scheduler,

all emitted as assembly for the project's RISC machine by
:class:`KernelBuilder`.  Passing ``protect=True`` applies the SUM+DMR
mechanism to all *kernel* objects — the current-thread word, every TCB,
and every synchronization object — mirroring the paper's hardening of
critical, long-lived data.  Application data (shared words, buffers) is
protected only on request; thread stacks are never protected.

Register conventions baked into the generated code:

==========  ==============================================================
r0          hardwired zero
r1–r7       thread context: saved/restored across ``__yield``; r1 (and
            r2) double as argument/result registers for kernel calls
r8          thread context, reserved: blocking kernel calls stash their
            return address here so it lives in the (protectable) TCB
            across yields rather than on the unprotected stack
r9          kernel temporary (clobbered by any kernel call)
r10–r13     guard scratch (clobbered by any kernel call; SUM+DMR/TMR)
r14 (ra)    link register
r15 (sp)    stack pointer (per-thread stacks)
==========  ==============================================================

Kernel subroutines never nest calls except the blocking primitives,
which stash ``ra`` in r8 around their ``call __yield``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..hardening.checksum import WORD
from ..hardening.sumdmr import ProtectedObject, SumDmrEmitter
from ..isa.assembler import Program, assemble

#: Words per thread control block: resume pc, sp, r1..r8 (the saved
#: context) plus reserved kernel bookkeeping space (priority, state,
#: wait-info, name — present in any real kernel's TCB and covered by the
#: object protection even though the scheduler fast path does not touch
#: it).
TCB_WORDS = 16
#: Of those, the first CONTEXT_WORDS hold the saved context.
CONTEXT_WORDS = 10
#: Words per synchronization object: count/bits, operation counter,
#: last-operating thread id, magic.
SYNC_WORDS = 4
#: Magic value marking initialized kernel sync objects.
SYNC_MAGIC = 0x5AFE
#: Default per-thread stack size in bytes.
DEFAULT_STACK_BYTES = 64


class KernelBuildError(ValueError):
    """The kernel specification is inconsistent."""


@dataclass
class _SyncObject:
    name: str
    kind: str  # "semaphore" | "mutex" | "flag"
    initial: int
    protected: bool


@dataclass
class _DataObject:
    name: str
    kind: str  # "word" | "buffer"
    n_words: int
    init: list[int]
    protected: bool


@dataclass
class _Thread:
    tid: int
    body: list[str] = field(default_factory=list)


class KernelBuilder:
    """Builds a complete threaded benchmark program.

    Typical use::

        kb = KernelBuilder(n_threads=2, protect=False)
        kb.add_semaphore("semA", initial=0)
        kb.set_thread_body(0, ["..."], main=True)
        kb.set_thread_body(1, ["..."])
        program = kb.build("bin_sem2")

    Thread 0 is started first; exactly one thread (the *main* thread)
    must end its body with ``halt`` — the builder appends an idle loop to
    every body so non-main threads that fall off their end keep yielding
    until the main thread halts the machine.
    """

    #: Guard granularities: "access" re-checks the object immediately
    #: before every member read group and refreshes it after every
    #: member write group (the GOP style — tighter windows, higher
    #: cost); "op" checks once at operation entry and updates once at
    #: exit (cheaper, larger residual windows).
    GRANULARITIES = ("access", "op")

    def __init__(self, n_threads: int, *, protect: bool = False,
                 stack_bytes: int = DEFAULT_STACK_BYTES,
                 sched_stats: bool = True,
                 guard_granularity: str = "access"):
        if n_threads < 1:
            raise KernelBuildError("need at least one thread")
        if stack_bytes < 8 or stack_bytes % WORD:
            raise KernelBuildError(
                "stack_bytes must be a word multiple >= 8")
        if guard_granularity not in self.GRANULARITIES:
            raise KernelBuildError(
                f"guard_granularity must be one of {self.GRANULARITIES}")
        self.n_threads = n_threads
        self.protect = protect
        self.stack_bytes = stack_bytes
        self.guard_granularity = guard_granularity
        #: Kernel instrumentation (as in eCos): a context-switch counter
        #: plus one switch-out counter per thread, updated on every
        #: yield.  Protected along with the other kernel objects.
        self.sched_stats = sched_stats
        self._sync: list[_SyncObject] = []
        self._data: list[_DataObject] = []
        self._threads = [_Thread(tid=i) for i in range(n_threads)]
        self._names: set[str] = set()
        self._emitter = SumDmrEmitter()

    # -- specification API -----------------------------------------------------

    def _claim_name(self, name: str) -> None:
        if not name or not name[0].isalpha():
            raise KernelBuildError(f"bad object name {name!r}")
        if name in self._names:
            raise KernelBuildError(f"duplicate object name {name!r}")
        self._names.add(name)

    def add_semaphore(self, name: str, *, initial: int = 0,
                      protected: bool | None = None) -> None:
        """A counting semaphore with ``<name>_wait``/``<name>_post``."""
        if initial < 0:
            raise KernelBuildError("semaphore initial count must be >= 0")
        self._claim_name(name)
        self._sync.append(_SyncObject(
            name=name, kind="semaphore", initial=initial,
            protected=self.protect if protected is None else protected))

    def add_mutex(self, name: str, *,
                  protected: bool | None = None) -> None:
        """A mutex with ``<name>_lock``/``<name>_unlock``."""
        self._claim_name(name)
        self._sync.append(_SyncObject(
            name=name, kind="mutex", initial=1,
            protected=self.protect if protected is None else protected))

    def add_flag(self, name: str, *,
                 protected: bool | None = None) -> None:
        """An event-flag word with ``<name>_set``/``<name>_wait``.

        ``<name>_set`` ORs the mask in r1 into the flag word;
        ``<name>_wait`` blocks until all mask bits in r1 are set, then
        atomically clears them.
        """
        self._claim_name(name)
        self._sync.append(_SyncObject(
            name=name, kind="flag", initial=0,
            protected=self.protect if protected is None else protected))

    def add_word(self, name: str, *, init: int = 0,
                 protected: bool = False) -> None:
        """A shared word with ``<name>_load``/``<name>_store`` (r1)."""
        self._claim_name(name)
        self._data.append(_DataObject(
            name=name, kind="word", n_words=1, init=[init],
            protected=protected))

    def add_buffer(self, name: str, n_words: int, *,
                   init: list[int] | None = None,
                   protected: bool = False) -> None:
        """A shared word array with ``<name>_get`` (r1=idx → r1) and
        ``<name>_put`` (r1=idx, r2=value)."""
        if n_words < 1:
            raise KernelBuildError("buffer needs at least one word")
        init = list(init) if init is not None else [0] * n_words
        if len(init) != n_words:
            raise KernelBuildError(
                f"buffer {name!r}: {len(init)} initializers for "
                f"{n_words} words")
        self._claim_name(name)
        self._data.append(_DataObject(
            name=name, kind="buffer", n_words=n_words, init=init,
            protected=protected))

    def set_thread_body(self, tid: int, lines: list[str]) -> None:
        """Set a thread's body (assembly lines, entry at the top)."""
        if not 0 <= tid < self.n_threads:
            raise KernelBuildError(f"thread id {tid} out of range")
        if self._threads[tid].body:
            raise KernelBuildError(f"thread {tid} body already set")
        self._threads[tid].body = list(lines)

    # -- generation --------------------------------------------------------------

    @property
    def _stats_words(self) -> int:
        """Scheduler statistics object size: total + one per thread."""
        return self.n_threads + 1

    @property
    def tcb_stride(self) -> int:
        """Bytes between consecutive TCBs."""
        words = 2 * TCB_WORDS + 1 if self.protect else TCB_WORDS
        return words * WORD

    def build(self, name: str) -> Program:
        """Assemble the complete program, sized exactly to its data."""
        for thread in self._threads:
            if not thread.body:
                raise KernelBuildError(
                    f"thread {thread.tid} has no body")
        # Assemble once with room to spare, then set the RAM footprint
        # Δm to exactly the data size: the assembler only stores
        # ``ram_size``, so the image is the one a second assembly at
        # that size would produce (``Program`` re-checks that it fits).
        probe = assemble(self.generate_source(), name=name,
                         ram_size=1 << 20)
        return replace(probe, ram_size=len(probe.data))

    def generate_source(self) -> str:
        lines: list[str] = []
        lines += self._emit_equs()
        lines.append("        .data")
        lines += self._emit_data()
        lines.append("        .text")
        lines += self._emit_start()
        lines += self._emit_yield()
        for sync in self._sync:
            lines += self._emit_sync_routines(sync)
        for data in self._data:
            lines += self._emit_data_routines(data)
        for thread in self._threads:
            lines += self._emit_thread(thread)
        return "\n".join(lines) + "\n"

    # -- data segment -------------------------------------------------------------

    def _emit_equs(self) -> list[str]:
        return [
            f"        .equ __NTHREADS, {self.n_threads}",
            f"        .equ __TCB_STRIDE, {self.tcb_stride}",
            f"        .equ __STACK_BYTES, {self.stack_bytes}",
        ]

    def _protected(self, name: str, n_words: int) -> ProtectedObject:
        return ProtectedObject(name=name, n_words=n_words)

    def _emit_data(self) -> list[str]:
        lines: list[str] = []
        # Current thread id.
        if self.protect:
            lines += self._emitter.data_lines(
                self._protected("__cur", 1), [0])
        else:
            lines.append("__cur:  .word 0")
        # TCB array (thread i's TCB labelled __tcb{i}).
        lines.append("        .align 4")
        lines.append("__tcbs:")
        for tid in range(self.n_threads):
            if self.protect:
                lines += self._emitter.data_lines(
                    self._protected(f"__tcb{tid}", TCB_WORDS),
                    [0] * TCB_WORDS)
            else:
                zeros = ", ".join(["0"] * TCB_WORDS)
                lines.append(f"__tcb{tid}: .word {zeros}")
        # Scheduler statistics: total switches + per-thread counters.
        if self.sched_stats:
            n = self._stats_words
            if self.protect:
                lines += self._emitter.data_lines(
                    self._protected("__sched_stats", n), [0] * n)
            else:
                zeros = ", ".join(["0"] * n)
                lines.append(f"__sched_stats: .word {zeros}")
        # Sync objects: count/bits, op counter, last thread id, magic.
        for sync in self._sync:
            init = [sync.initial, 0, 0, SYNC_MAGIC]
            if sync.protected:
                lines += self._emitter.data_lines(
                    self._protected(sync.name, SYNC_WORDS), init)
            else:
                words = ", ".join(str(v) for v in init)
                lines.append(f"{sync.name}: .word {words}")
        # Application data.
        for data in self._data:
            if data.protected:
                lines += self._emitter.data_lines(
                    self._protected(data.name, data.n_words), data.init)
            else:
                words = ", ".join(str(v & 0xFFFFFFFF) for v in data.init)
                lines.append(f"{data.name}: .word {words}")
        # Thread stacks (never protected — matches the paper's selective
        # protection of long-lived critical kernel data).
        for tid in range(self.n_threads):
            lines.append(f"__stack{tid}: .space __STACK_BYTES")
        return lines

    # -- guard helpers -----------------------------------------------------------

    def _check(self, name: str, n_words: int, protected: bool,
               base: str | None = None) -> list[str]:
        if not protected:
            return []
        return self._emitter.emit_check(self._protected(name, n_words),
                                        base=base)

    def _update(self, name: str, n_words: int, protected: bool,
                base: str | None = None) -> list[str]:
        if not protected:
            return []
        return self._emitter.emit_update(self._protected(name, n_words),
                                         base=base)

    # -- startup -----------------------------------------------------------------

    def _emit_start(self) -> list[str]:
        lines = ["start:"]
        for tid in range(1, self.n_threads):
            lines += [
                f"        lpc  r1, __thr{tid}_entry",
                f"        sw   r1, __tcb{tid}(zero)",
                f"        li   r2, __stack{tid}+__STACK_BYTES",
                f"        sw   r2, __tcb{tid}+4(zero)",
            ]
            lines += self._update(f"__tcb{tid}", TCB_WORDS, self.protect)
        lines += [
            "        li   sp, __stack0+__STACK_BYTES",
            "        j    __thr0_entry",
        ]
        return lines

    # -- scheduler ----------------------------------------------------------------

    def _emit_yield(self) -> list[str]:
        lines = ["__yield:"]
        # Locate the current TCB (r9 = &tcb[cur]); r10 is scratch.
        lines += self._check("__cur", 1, self.protect)
        lines.append("        lw   r9, __cur(zero)")
        if self.protect:
            lines += [
                "        sltiu r10, r9, __NTHREADS",
                "        bnez r10, __yield_tid_ok",
                f"        detect {0xF1:#x}",
                "        halt",
                "__yield_tid_ok:",
            ]
        lines += [
            "        addi r10, zero, __TCB_STRIDE",
            "        mul  r10, r9, r10",
            "        addi r9, r10, __tcbs",
            # Save the outgoing context: resume pc (= ra), sp, r1..r8.
            "        sw   ra, 0(r9)",
            "        sw   sp, 4(r9)",
        ]
        for reg in range(1, 9):
            lines.append(f"        sw   r{reg}, {4 + 4 * reg}(r9)")
        lines += self._update("__tcb", TCB_WORDS, self.protect, base="r9")
        # Kernel instrumentation: bump the total and per-thread switch
        # counters (the outgoing context is saved, so r1-r8 are free).
        per_access = self.guard_granularity == "access"
        if self.sched_stats:
            lines += self._check("__sched_stats", self._stats_words,
                                 self.protect)
            lines += [
                "        lw   r3, __sched_stats(zero)",
                "        addi r3, r3, 1",
                "        sw   r3, __sched_stats(zero)",
            ]
            if per_access:
                lines += self._check("__cur", 1, self.protect)
            lines += [
                "        lw   r4, __cur(zero)",
                "        slli r4, r4, 2",
                "        lw   r3, __sched_stats+4(r4)",
                "        addi r3, r3, 1",
                "        sw   r3, __sched_stats+4(r4)",
            ]
            lines += self._update("__sched_stats", self._stats_words,
                                  self.protect)
        # Advance to the next thread, round-robin.
        if per_access:
            lines += self._check("__cur", 1, self.protect)
        lines += [
            "        lw   r1, __cur(zero)",
            "        addi r1, r1, 1",
            "        addi r2, zero, __NTHREADS",
            "        bltu r1, r2, __yield_nowrap",
            "        addi r1, zero, 0",
            "__yield_nowrap:",
            "        sw   r1, __cur(zero)",
        ]
        lines += self._update("__cur", 1, self.protect)
        lines += [
            "        addi r10, zero, __TCB_STRIDE",
            "        mul  r10, r1, r10",
            "        addi r9, r10, __tcbs",
        ]
        # Verify the incoming context before trusting it.
        lines += self._check("__tcb", TCB_WORDS, self.protect, base="r9")
        lines += [
            "        lw   ra, 0(r9)",
            "        lw   sp, 4(r9)",
        ]
        for reg in range(1, 9):
            lines.append(f"        lw   r{reg}, {4 + 4 * reg}(r9)")
        lines.append("        jr   ra")
        return lines

    # -- synchronization primitives --------------------------------------------------

    def _emit_sync_routines(self, sync: _SyncObject) -> list[str]:
        if sync.kind in ("semaphore", "mutex"):
            wait = f"{sync.name}_lock" if sync.kind == "mutex" \
                else f"{sync.name}_wait"
            post = f"{sync.name}_unlock" if sync.kind == "mutex" \
                else f"{sync.name}_post"
            return self._emit_semaphore(sync, wait_label=wait,
                                        post_label=post)
        if sync.kind == "flag":
            return self._emit_flag(sync)
        raise AssertionError(sync.kind)  # pragma: no cover

    def _bookkeeping(self, sync: _SyncObject) -> list[str]:
        """Maintain a sync object's op counter and last-thread-id fields.

        In access granularity the bookkeeping group gets its own
        check/update pair, and the read of the (protected) current-thread
        word is re-checked as well.
        """
        name = sync.name
        per_access = self.guard_granularity == "access"
        lines: list[str] = []
        if per_access:
            lines += self._check(name, SYNC_WORDS, sync.protected)
        lines += [
            f"        lw   r9, {name}+4(zero)",
            "        addi r9, r9, 1",
            f"        sw   r9, {name}+4(zero)",
        ]
        if per_access:
            lines += self._check("__cur", 1, self.protect)
        lines += [
            "        lw   r9, __cur(zero)",
            f"        sw   r9, {name}+8(zero)",
        ]
        lines += self._update(name, SYNC_WORDS, sync.protected)
        return lines

    def _emit_semaphore(self, sync: _SyncObject, *, wait_label: str,
                        post_label: str) -> list[str]:
        name = sync.name
        per_access = self.guard_granularity == "access"
        lines = [
            f"{wait_label}:",
            # Stash the return address in context register r8: across the
            # blocking yields it then lives in the TCB, which the hardened
            # kernel protects (critical control data in protected storage).
            "        addi r8, ra, 0",
            f"__{name}_wait_loop:",
        ]
        lines += self._check(name, SYNC_WORDS, sync.protected)
        lines += [
            f"        lw   r9, {name}(zero)",
            f"        bnez r9, __{name}_wait_take",
            "        call __yield",
            f"        j    __{name}_wait_loop",
            f"__{name}_wait_take:",
            "        addi r9, r9, -1",
            f"        sw   r9, {name}(zero)",
        ]
        if per_access:
            lines += self._update(name, SYNC_WORDS, sync.protected)
        lines += self._bookkeeping(sync)
        lines += [
            "        jr   r8",
            f"{post_label}:",
        ]
        lines += self._check(name, SYNC_WORDS, sync.protected)
        lines += [
            f"        lw   r9, {name}(zero)",
            "        addi r9, r9, 1",
            f"        sw   r9, {name}(zero)",
        ]
        if per_access:
            lines += self._update(name, SYNC_WORDS, sync.protected)
        lines += self._bookkeeping(sync)
        lines.append("        ret")
        return lines

    def _emit_flag(self, sync: _SyncObject) -> list[str]:
        name = sync.name
        per_access = self.guard_granularity == "access"
        lines = [
            f"{name}_set:",
        ]
        lines += self._check(name, SYNC_WORDS, sync.protected)
        lines += [
            f"        lw   r9, {name}(zero)",
            "        or   r9, r9, r1",
            f"        sw   r9, {name}(zero)",
        ]
        if per_access:
            lines += self._update(name, SYNC_WORDS, sync.protected)
        lines += self._bookkeeping(sync)
        lines += [
            "        ret",
            f"{name}_wait:",
            # Return address stashed in context register r8 (see the
            # semaphore wait path for rationale).
            "        addi r8, ra, 0",
            f"__{name}_wait_loop:",
        ]
        lines += self._check(name, SYNC_WORDS, sync.protected)
        lines += [
            f"        lw   r9, {name}(zero)",
            # r10 is free after the check; AND out the awaited bits.
            "        and  r10, r9, r1",
            f"        beq  r10, r1, __{name}_wait_take",
            "        call __yield",
            f"        j    __{name}_wait_loop",
            f"__{name}_wait_take:",
            "        xor  r9, r9, r1",
            f"        sw   r9, {name}(zero)",
        ]
        if per_access:
            lines += self._update(name, SYNC_WORDS, sync.protected)
        lines += self._bookkeeping(sync)
        lines.append("        jr   r8")
        return lines

    # -- application data accessors -----------------------------------------------------

    def _emit_data_routines(self, data: _DataObject) -> list[str]:
        name = data.name
        if data.kind == "word":
            lines = [f"{name}_load:"]
            lines += self._check(name, 1, data.protected)
            lines += [
                f"        lw   r1, {name}(zero)",
                "        ret",
                f"{name}_store:",
                f"        sw   r1, {name}(zero)",
            ]
            lines += self._update(name, 1, data.protected)
            lines.append("        ret")
            return lines
        # Buffer: r1 = word index.
        lines = [f"{name}_get:"]
        lines += self._check(name, data.n_words, data.protected)
        lines += [
            "        slli r9, r1, 2",
            f"        lw   r1, {name}(r9)",
            "        ret",
            f"{name}_put:",
            "        slli r9, r1, 2",
            f"        sw   r2, {name}(r9)",
        ]
        lines += self._update(name, data.n_words, data.protected)
        lines.append("        ret")
        return lines

    # -- threads -----------------------------------------------------------------------

    def _emit_thread(self, thread: _Thread) -> list[str]:
        tid = thread.tid
        lines = [f"__thr{tid}_entry:"]
        lines += [f"        {line}" if not line.rstrip().endswith(":")
                  and not line.startswith((" ", "\t")) else line
                  for line in thread.body]
        lines += [
            f"__thr{tid}_idle:",
            "        call __yield",
            f"        j    __thr{tid}_idle",
        ]
        return lines
