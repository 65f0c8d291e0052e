"""Tests for the cooperative kernel builder."""

import pytest

from repro.campaign import record_golden
from repro.campaign.database import program_fingerprint
from repro.isa.assembler import assemble
from repro.kernel import KernelBuildError, KernelBuilder, TCB_WORDS
from repro.kernel import builder as builder_mod
from repro.kernel.builder import CONTEXT_WORDS, SYNC_WORDS
from repro.programs.registry import all_programs


def two_thread_pingpong(protect=False, rounds=3, **kwargs):
    kb = KernelBuilder(n_threads=2, protect=protect, **kwargs)
    kb.add_semaphore("go", initial=0)
    kb.add_semaphore("done", initial=0)
    kb.set_thread_body(0, [
        f"addi r3, zero, {rounds}",
        "m_loop:",
        "call go_post",
        "call done_wait",
        "li   r4, 'a'",
        "out  r4",
        "addi r3, r3, -1",
        "bnez r3, m_loop",
        "halt",
    ])
    kb.set_thread_body(1, [
        "w_loop:",
        "call go_wait",
        "li   r4, 'b'",
        "out  r4",
        "call done_post",
        "j    w_loop",
    ])
    return kb.build("pingpong")


class TestSpecificationValidation:
    def test_needs_threads(self):
        with pytest.raises(KernelBuildError):
            KernelBuilder(n_threads=0)

    def test_duplicate_names_rejected(self):
        kb = KernelBuilder(n_threads=1)
        kb.add_semaphore("s")
        with pytest.raises(KernelBuildError, match="duplicate"):
            kb.add_mutex("s")

    def test_bad_object_name_rejected(self):
        kb = KernelBuilder(n_threads=1)
        with pytest.raises(KernelBuildError):
            kb.add_semaphore("1bad")

    def test_negative_semaphore_initial_rejected(self):
        kb = KernelBuilder(n_threads=1)
        with pytest.raises(KernelBuildError):
            kb.add_semaphore("s", initial=-1)

    def test_buffer_initializer_length_checked(self):
        kb = KernelBuilder(n_threads=1)
        with pytest.raises(KernelBuildError):
            kb.add_buffer("b", 3, init=[1])

    def test_thread_body_required(self):
        kb = KernelBuilder(n_threads=2)
        kb.set_thread_body(0, ["halt"])
        with pytest.raises(KernelBuildError, match="no body"):
            kb.build("x")

    def test_thread_body_set_once(self):
        kb = KernelBuilder(n_threads=1)
        kb.set_thread_body(0, ["halt"])
        with pytest.raises(KernelBuildError, match="already set"):
            kb.set_thread_body(0, ["halt"])

    def test_bad_granularity_rejected(self):
        with pytest.raises(KernelBuildError):
            KernelBuilder(n_threads=1, guard_granularity="sometimes")

    def test_stack_size_validated(self):
        with pytest.raises(KernelBuildError):
            KernelBuilder(n_threads=1, stack_bytes=6)


class TestSchedulingSemantics:
    def test_pingpong_output_alternates(self):
        golden = record_golden(two_thread_pingpong())
        assert golden.output == b"ba" * 3

    def test_protected_variant_same_output(self):
        baseline = record_golden(two_thread_pingpong(protect=False))
        hardened = record_golden(two_thread_pingpong(protect=True))
        assert hardened.output == baseline.output

    def test_protection_costs_time_and_memory(self):
        baseline = two_thread_pingpong(protect=False)
        hardened = two_thread_pingpong(protect=True)
        assert hardened.ram_size > baseline.ram_size
        assert record_golden(hardened).cycles \
            > record_golden(baseline).cycles

    def test_op_granularity_is_cheaper_than_access(self):
        per_op = record_golden(two_thread_pingpong(
            protect=True, guard_granularity="op"))
        per_access = record_golden(two_thread_pingpong(
            protect=True, guard_granularity="access"))
        assert per_op.cycles < per_access.cycles
        assert per_op.output == per_access.output

    def test_sched_stats_count_switches(self):
        program = two_thread_pingpong(sched_stats=True)
        golden = record_golden(program)
        machine_ram_stats_addr = program.symbol("__sched_stats")
        # The golden run must have performed at least one switch per round.
        import struct
        # Re-run to inspect final RAM.
        from repro.isa import Machine
        machine = Machine(program)
        machine.run(100_000)
        total = struct.unpack_from("<I", machine.ram,
                                   machine_ram_stats_addr)[0]
        per_thread = struct.unpack_from(
            "<II", machine.ram, machine_ram_stats_addr + 4)
        assert total >= 6
        assert sum(per_thread) == total

    def test_stats_can_be_disabled(self):
        program = two_thread_pingpong(sched_stats=False)
        assert "__sched_stats" not in program.data_labels
        assert record_golden(program).output == b"ba" * 3

    def test_single_thread_kernel_runs(self):
        kb = KernelBuilder(n_threads=1)
        kb.set_thread_body(0, ["li r1, 'x'", "out r1", "halt"])
        golden = record_golden(kb.build("solo"))
        assert golden.output == b"x"

    def test_yield_roundtrip_preserves_thread_registers(self):
        kb = KernelBuilder(n_threads=2)
        kb.set_thread_body(0, [
            "li   r1, 11", "li   r2, 22", "li   r3, 33",
            "li   r4, 44", "li   r5, 55", "li   r6, 66", "li   r7, 77",
            "call __yield",
            "out  r1", "out  r2", "out  r3", "out  r4",
            "out  r5", "out  r6", "out  r7",
            "halt",
        ])
        kb.set_thread_body(1, ["nop"])
        golden = record_golden(kb.build("regs"))
        assert golden.output == bytes([11, 22, 33, 44, 55, 66, 77])


class TestSynchronizationPrimitives:
    def test_counting_semaphore_counts(self):
        kb = KernelBuilder(n_threads=1)
        kb.add_semaphore("s", initial=2)
        kb.set_thread_body(0, [
            "call s_wait", "call s_wait",   # both immediate
            "call s_post",
            "call s_wait",                  # consumes the post
            "li   r1, 'd'", "out r1", "halt",
        ])
        assert record_golden(kb.build("count")).output == b"d"

    def test_mutex_provides_exclusion(self):
        kb = KernelBuilder(n_threads=2)
        kb.add_mutex("m")
        kb.add_word("shared", init=0)
        kb.set_thread_body(0, [
            "call m_lock",
            "call __yield",          # hold the lock across a yield
            "call shared_load",
            "addi r1, r1, 1",
            "call shared_store",
            "call m_unlock",
            "w0:",
            "call shared_load",
            "addi r2, zero, 2",
            "bne  r1, r2, w0_again",
            "li   r3, 'O'",
            "out  r3",
            "halt",
            "w0_again:",
            "call __yield",
            "j    w0",
        ])
        kb.set_thread_body(1, [
            "call m_lock",
            "call shared_load",
            "addi r1, r1, 1",
            "call shared_store",
            "call m_unlock",
        ])
        assert record_golden(kb.build("mutex")).output == b"O"

    def test_flag_wait_blocks_until_all_bits(self):
        kb = KernelBuilder(n_threads=2)
        kb.add_flag("f")
        kb.set_thread_body(0, [
            "addi r1, zero, 3",     # wait for bits 0b11
            "call f_wait",
            "li   r2, 'F'",
            "out  r2",
            "halt",
        ])
        kb.set_thread_body(1, [
            "addi r1, zero, 1",
            "call f_set",
            "call __yield",
            "addi r1, zero, 2",
            "call f_set",
        ])
        assert record_golden(kb.build("flag")).output == b"F"

    def test_flag_wait_clears_consumed_bits(self):
        kb = KernelBuilder(n_threads=1)
        kb.add_flag("f")
        kb.set_thread_body(0, [
            "addi r1, zero, 1",
            "call f_set",
            "addi r1, zero, 1",
            "call f_wait",
            "lw   r4, f(zero)",     # bits must be cleared now
            "out  r4",
            "halt",
        ])
        assert record_golden(kb.build("flagclear")).output == bytes([0])

    def test_buffer_accessors(self):
        kb = KernelBuilder(n_threads=1)
        kb.add_buffer("b", 3, init=[5, 6, 7])
        kb.set_thread_body(0, [
            "addi r1, zero, 1",
            "addi r2, zero, 99",
            "call b_put",
            "addi r1, zero, 1",
            "call b_get",
            "out  r1",
            "addi r1, zero, 2",
            "call b_get",
            "out  r1",
            "halt",
        ])
        assert record_golden(kb.build("buf")).output == bytes([99, 7])

    def test_protected_word_survives_corruption(self):
        kb = KernelBuilder(n_threads=1, protect=True)
        kb.add_word("w", init=9, protected=True)
        kb.set_thread_body(0, ["call w_load", "out r1", "halt"])
        program = kb.build("pword")
        from repro.isa import Machine
        machine = Machine(program)
        machine.flip_bit(program.symbol("w"), 1)
        machine.run(100_000)
        assert machine.serial == bytes([9])
        assert machine.detections


class TestLayout:
    def test_tcb_stride_depends_on_protection(self):
        plain = KernelBuilder(n_threads=2, protect=False)
        prot = KernelBuilder(n_threads=2, protect=True)
        assert plain.tcb_stride == TCB_WORDS * 4
        assert prot.tcb_stride == (2 * TCB_WORDS + 1) * 4

    def test_context_fits_in_tcb(self):
        assert CONTEXT_WORDS <= TCB_WORDS
        assert SYNC_WORDS == 4

    def test_ram_sized_to_data_exactly(self):
        program = two_thread_pingpong()
        assert program.ram_size == len(program.data)


class TestOneAssembly:
    """``build`` assembles once and sizes RAM to the data afterwards."""

    @pytest.fixture
    def assembled(self, monkeypatch):
        """``(source, name)`` of every ``assemble`` call the builder
        makes."""
        calls = []

        def counting(source, *, name, ram_size):
            calls.append((source, name))
            return assemble(source, name=name, ram_size=ram_size)

        monkeypatch.setattr(builder_mod, "assemble", counting)
        return calls

    def test_build_assembles_once(self, assembled):
        two_thread_pingpong(protect=True)
        assert len(assembled) == 1

    def test_kernel_programs_equal_a_twice_assembled_reference(
            self, assembled):
        kernels = 0
        for name, factory in sorted(all_programs().items()):
            del assembled[:]
            program = factory()
            if not assembled:
                continue  # not a kernel program
            assert len(assembled) == 1, name
            kernels += 1
            source, label = assembled[0]
            # What build did before: a probe for the data size, then
            # the same source assembled again at exactly that size.
            probe = assemble(source, name=label, ram_size=1 << 20)
            reference = assemble(source, name=label,
                                 ram_size=len(probe.data))
            assert program_fingerprint(program) \
                == program_fingerprint(reference), name
            assert program.rom == reference.rom, name
            assert program.data == reference.data, name
            assert program.ram_size == reference.ram_size, name
            assert program.labels == reference.labels, name
            assert program.data_labels == reference.data_labels, name
            assert program.symbols == reference.symbols, name
            assert program == reference, name
        assert kernels >= 10
