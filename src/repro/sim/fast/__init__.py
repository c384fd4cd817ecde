"""Fast simulation path: specialized closures.

An accelerated back end for the cycle-level simulator, provably
bit-identical to the reference :class:`repro.sim.core.Core` (the
differential battery in ``tests/test_sim_fast.py`` and the fuzz legs in
:mod:`repro.fuzz` enforce it):

* :mod:`.specialize` pre-compiles each lowered
  :class:`~repro.isa.program.Program` into a per-core Python closure —
  instruction decode hoisted out of the cycle loop, operands bound into
  locals, registers kept in local variables between queue operations.

Selection happens through ``CompilerConfig.sim_mode`` (``"reference"``
| ``"specialized"``), wired via :class:`repro.sim.machine.Machine` and
:func:`repro.runtime.exec.execute_kernel`.
"""

from .specialize import (
    CODEGEN_VERSION,
    SpecializedCore,
    clear_runner_cache,
    counters,
    reset_counters,
    runner_factory,
    source_key,
)

#: the supported values of ``CompilerConfig.sim_mode``.
SIM_MODES = ("reference", "specialized")

__all__ = [
    "CODEGEN_VERSION",
    "SIM_MODES",
    "SpecializedCore",
    "clear_runner_cache",
    "counters",
    "reset_counters",
    "runner_factory",
    "source_key",
]
