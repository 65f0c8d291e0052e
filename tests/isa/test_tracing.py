"""Unit tests for golden-run memory tracing."""

from repro.isa import Machine, MemoryTrace, READ, WRITE, assemble


def trace_of(source, ram_size=64):
    tracer = MemoryTrace()
    machine = Machine(assemble(source, ram_size=ram_size), tracer=tracer)
    machine.run(10_000)
    tracer.finish(machine.cycle)
    return tracer


class TestMemoryTrace:
    def test_store_records_write_at_correct_slot(self):
        tracer = trace_of("""
            .text
start:  li   r1, 5
        sb   r1, 0(zero)
        halt
""")
        events = tracer.accesses(0)
        assert [(e.slot, e.kind) for e in events] == [(2, WRITE)]

    def test_load_records_read(self):
        tracer = trace_of(".text\nstart: lbu r1, 0(zero)\n halt")
        assert [(e.slot, e.kind) for e in tracer.accesses(0)] == [(1, READ)]

    def test_word_access_touches_four_bytes(self):
        tracer = trace_of(".text\nstart: lw r1, 4(zero)\n halt")
        for addr in range(4, 8):
            assert [(e.slot, e.kind) for e in tracer.accesses(addr)] == \
                [(1, READ)]
        assert tracer.accesses(8) == []

    def test_writes_counts_stores_of_every_width_not_loads(self):
        tracer = trace_of(""".text
start:  li   r1, 1
        sw   r1, 0(zero)
        sh   r1, 4(zero)
        sb   r1, 6(zero)
        lw   r2, 0(zero)
        lbu  r2, 6(zero)
        halt""")
        assert tracer.writes == 3

    def test_halfword_access_touches_two_bytes(self):
        tracer = trace_of(".text\nstart: li r1, 1\n sh r1, 2(zero)\n halt")
        assert len(tracer.accesses(2)) == 1
        assert len(tracer.accesses(3)) == 1
        assert tracer.accesses(4) == []

    def test_events_per_byte_are_chronological(self):
        tracer = trace_of("""
            .text
start:  li   r1, 1
        sb   r1, 0(zero)
        lbu  r2, 0(zero)
        sb   r1, 0(zero)
        halt
""")
        slots = [e.slot for e in tracer.accesses(0)]
        assert slots == sorted(slots)
        assert [e.kind for e in tracer.accesses(0)] == [WRITE, READ, WRITE]

    def test_total_slots_equals_runtime(self):
        tracer = trace_of(".text\nstart: nop\n nop\n halt")
        assert tracer.total_slots == 3

    def test_touched_bytes_and_access_count(self):
        tracer = trace_of("""
            .text
start:  li   r1, 1
        sw   r1, 0(zero)
        lw   r2, 0(zero)
        halt
""")
        assert tracer.touched_bytes == 4
        assert tracer.access_count == 8  # 4 bytes written + 4 bytes read

    def test_untraced_machine_records_nothing(self):
        machine = Machine(assemble(
            ".text\nstart: li r1, 1\n sw r1, 0(zero)\n halt"))
        machine.run(100)
        assert machine.tracer is None
