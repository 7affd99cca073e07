"""In-order scalar CPU cost model (the CVA6-tile substitute).

The paper profiles applications on a CVA6 RISC-V tile; offline we charge each
executed IR instruction a fixed cycle cost on an in-order single-issue core.
Durations in cycles divided by :data:`CPU_FREQ_HZ` give seconds, which is all
Equation 1 needs.
"""

from __future__ import annotations

from typing import Dict

# The CVA6-class in-order core clocks in the same 500 MHz class as the
# accelerators when both target the Nangate45 PDK (the 1.7 GHz figure of
# [32] is for 22FDX).  Keeping CPU and accelerator frequency equal makes the
# comparison a pure microarchitecture/parallelism comparison.
CPU_FREQ_HZ = 5.0e8

# Cycles per executed instruction, by resource class (see
# ``Instruction.resource``).  Values follow published CVA6 latencies:
# single-issue ALU, 3-cycle multiplier, iterative divider, 2-cycle D$ hit,
# a handful of cycles for the (non-pipelined) FPU.
CPU_CYCLES: Dict[str, float] = {
    "add": 1, "sub": 1, "and": 1, "or": 1, "xor": 1, "shl": 1, "shr": 1,
    "neg": 1, "not": 1,
    "mul": 3, "div": 20, "rem": 20,
    "fadd": 5, "fsub": 5, "fmul": 5, "fdiv": 30, "fneg": 1,
    "fsqrt": 25, "fabs": 1,
    "icmp": 1, "fcmp": 2, "select": 1,
    "sitofp": 2, "fptosi": 2, "sext": 1, "zext": 1, "trunc": 1,
    "fpext": 1, "fptrunc": 1,
    "load": 2, "store": 1,
    "gep": 1,          # address arithmetic folds into ALU ops
    "phi": 0,          # register renaming artifact, no dynamic cost
    "control": 1,      # branch/return
    "call": 2,         # call overhead on top of the callee's own cost
    "alloca": 0,       # stack-pointer bump, amortized
}


def instruction_cycles(resource: str) -> float:
    """CPU cycles for one dynamic instruction of the given resource class."""
    try:
        return CPU_CYCLES[resource]
    except KeyError:
        raise KeyError(f"no CPU cost for resource class {resource!r}") from None


def cycles_to_seconds(cycles: float) -> float:
    return cycles / CPU_FREQ_HZ
