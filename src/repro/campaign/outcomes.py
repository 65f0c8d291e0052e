"""Experiment-outcome taxonomy (Section II-D of the paper).

The paper's campaigns distinguish eight experiment-outcome types, two of
which ("No Effect" and "Error Detected & Corrected") are benign, while
the remaining six are coalesced into a subsuming "Failure" type.  This
module defines the same taxonomy and the coalescing.

Classification inputs are purely observable behaviour: the serial output
compared against the golden run, clean halt vs. trap vs. timeout, and
the ``detect`` events a hardened program emitted.
"""

from __future__ import annotations

import enum


#: ``detect`` codes at or above this value announce an unrecoverable
#: error before the program stops itself (fail-stop).
PANIC_CODE = 0xF0
#: Conventional ``detect`` code for a corrected error.
CORRECTED_CODE = 0x01


class Outcome(enum.Enum):
    """The eight experiment-outcome types."""

    #: Run indistinguishable from the golden run.
    NO_EFFECT = "no-effect"
    #: Output correct; the fault-tolerance mechanism reported a
    #: detected-and-corrected error. Benign: no visible effect outside.
    DETECTED_CORRECTED = "detected-corrected"
    #: Run completed but the output differs: silent data corruption.
    SDC = "sdc"
    #: Run stopped early with a strict prefix of the correct output.
    OUTPUT_TRUNCATED = "output-truncated"
    #: The CPU trapped (bad memory access, illegal pc, division by zero).
    CPU_EXCEPTION = "cpu-exception"
    #: The run exceeded its cycle budget.
    TIMEOUT = "timeout"
    #: The mechanism detected an uncorrectable error and stopped the
    #: program deliberately (announced via a panic-range ``detect``).
    DETECTED_FAIL_STOP = "detected-fail-stop"
    #: The mechanism reported a detection, but the output is still wrong.
    DETECTED_UNCORRECTED = "detected-uncorrected"

    @property
    def is_benign(self) -> bool:
        """True for the two outcome types with no externally visible effect."""
        return self in _BENIGN

    @property
    def is_failure(self) -> bool:
        return not self.is_benign


_BENIGN = frozenset({Outcome.NO_EFFECT, Outcome.DETECTED_CORRECTED})

#: ``value → Outcome``: how stored text (a journal row) becomes the enum
#: again.  The read paths convert a row at a time, and a dict lookup by
#: string costs a fraction of ``Outcome(value)``, a Python-level call
#: through ``EnumType.__call__`` and ``Enum.__new__``.
OUTCOME_BY_VALUE = {outcome.value: outcome for outcome in Outcome}

#: The six outcome types coalesced into "Failure" in the paper's analysis.
FAILURE_OUTCOMES = tuple(o for o in Outcome if o.is_failure)
#: The two benign outcome types coalesced into "No Effect".
BENIGN_OUTCOMES = tuple(o for o in Outcome if o.is_benign)


def classify(*, golden_output: bytes, output: bytes, halted_cleanly: bool,
             trapped: bool, timed_out: bool,
             detections: tuple[tuple[int, int], ...] = ()) -> Outcome:
    """Classify one experiment run against the golden run.

    ``detections`` are the ``(cycle, code)`` events the run emitted; the
    golden run must emit none (asserted when recording it).
    """
    if timed_out:
        return Outcome.TIMEOUT
    if trapped:
        return Outcome.CPU_EXCEPTION
    if not halted_cleanly:
        raise ValueError(
            "run neither halted, trapped, nor timed out — cannot classify")
    if output == golden_output:
        if detections:
            return Outcome.DETECTED_CORRECTED
        return Outcome.NO_EFFECT
    # Output deviates: some failure mode.
    if any(code >= PANIC_CODE for _, code in detections):
        return Outcome.DETECTED_FAIL_STOP
    if detections:
        return Outcome.DETECTED_UNCORRECTED
    if golden_output.startswith(output) and len(output) < len(golden_output):
        return Outcome.OUTPUT_TRUNCATED
    return Outcome.SDC
