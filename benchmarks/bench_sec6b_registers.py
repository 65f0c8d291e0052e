"""Section VI-B: the register-file fault-model generalization.

Not a paper figure — the paper leaves register faults to future work —
but DESIGN.md implements the extension, and this bench demonstrates
that the methodology carries over: def/use pruning over the register
file, weighted accounting, and the dilution-immunity of the failure
count all behave as in the memory model.  Register campaigns run
through the same unified engine as memory campaigns
(``run_full_scan(golden, domain="register")``), including the
multi-process sharder and the samplers.
"""

import pytest

from repro.campaign import record_golden, run_full_scan
from repro.faultspace import REGISTER
from repro.programs import hi, micro


@pytest.fixture(scope="module")
def hi_register_scans():
    return {
        "hi": run_full_scan(record_golden(hi.baseline()),
                            domain="register"),
        "hi-dft4": run_full_scan(record_golden(hi.dft_variant(4)),
                                 domain="register"),
    }


def test_sec6b_register_pruning(output_dir):
    golden = record_golden(micro.checksum_loop(4))
    partition = REGISTER.build_partition(golden)
    assert partition.reduction_factor() > 2.0
    assert partition.experiment_count < partition.fault_space.size
    (output_dir / "sec6b_registers.txt").write_text(
        "Section VI-B: register fault space of checksum4\n"
        f"w = {partition.fault_space.size}, "
        f"experiments = {partition.experiment_count}, "
        f"reduction = {partition.reduction_factor():.1f}x\n")


def test_sec6b_register_scan_parallel_parity():
    """The sharded register scan must reproduce the serial scan
    bit-for-bit, exactly as for memory campaigns."""
    golden = record_golden(micro.counter(3))
    serial = run_full_scan(golden, domain="register")
    parallel = run_full_scan(golden, domain="register", jobs=2)
    assert list(parallel.class_outcomes.items()) \
        == list(serial.class_outcomes.items())
    assert parallel.weighted_counts() == serial.weighted_counts()


def test_sec6b_dilution_immune_in_register_space(hi_register_scans):
    """NOP dilution also leaves the register-space failure count intact
    while inflating register-space coverage — the pitfall is fault-model
    agnostic."""
    base = hi_register_scans["hi"]
    dft = hi_register_scans["hi-dft4"]
    assert dft.weighted_failure_count() == base.weighted_failure_count()
    assert dft.weighted_coverage() > base.weighted_coverage()
