"""Characterized technology library (the OpenROAD + Nangate45 substitute).

Cayman retrieves the delay and area of datapath operations and interface
components "by synthesizing them with OpenROAD targeting the Nangate45 PDK"
(paper §III-F).  Offline we freeze that characterization into a table: each
resource class carries a combinational delay (for operator chaining), a
pipeline latency in cycles at the target clock, and a placement area.  The
numbers approximate Nangate45 synthesis results at the paper's 500 MHz
target and — more importantly — preserve the *relative* costs the algorithms
depend on (float ops ≫ int ops ≫ logic; SRAM macros and DMA engines dominate
interface area; FSM control logic is cheap compared to datapaths).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Target accelerator clock (500 MHz, paper §IV-A).
DEFAULT_CLOCK_NS = 2.0

#: Area of the reference CVA6 RISC-V tile in um^2 (areas in Table II are
#: reported as ratios to this tile, paper §IV-A).
CVA6_TILE_AREA_UM2 = 2_500_000.0


@dataclass(frozen=True)
class OpInfo:
    """Characterization entry for one datapath resource class.

    ``delay_ns``  — combinational delay through the unit (chaining budget).
    ``cycles``    — pipeline latency in cycles when the op is registered;
                    0 means purely combinational (chainable within a cycle).
    ``area_um2``  — cell area for a 32-bit instance.
    ``pipelined`` — True if a new input can be issued every cycle.
    """

    delay_ns: float
    cycles: int
    area_um2: float
    pipelined: bool = True


# 32-bit characterization.  64-bit instances scale by _WIDTH_FACTOR.
_OPS: Dict[str, OpInfo] = {
    # Integer ALU class.
    "add": OpInfo(0.9, 0, 320.0),
    "sub": OpInfo(0.9, 0, 330.0),
    "and": OpInfo(0.2, 0, 90.0),
    "or": OpInfo(0.2, 0, 90.0),
    "xor": OpInfo(0.25, 0, 110.0),
    "shl": OpInfo(0.5, 0, 380.0),
    "shr": OpInfo(0.5, 0, 380.0),
    "neg": OpInfo(0.5, 0, 170.0),
    "not": OpInfo(0.1, 0, 60.0),
    "icmp": OpInfo(0.7, 0, 210.0),
    "select": OpInfo(0.3, 0, 120.0),
    # Integer multiply / divide.
    "mul": OpInfo(1.8, 1, 3100.0),
    "div": OpInfo(1.9, 16, 7800.0, pipelined=False),
    "rem": OpInfo(1.9, 16, 7900.0, pipelined=False),
    # Floating point (32-bit, IEEE-754).
    "fadd": OpInfo(1.9, 2, 4200.0),
    "fsub": OpInfo(1.9, 2, 4300.0),
    "fmul": OpInfo(1.9, 2, 5200.0),
    "fdiv": OpInfo(1.9, 12, 12500.0, pipelined=False),
    "fneg": OpInfo(0.1, 0, 80.0),
    "fsqrt": OpInfo(1.9, 10, 9800.0, pipelined=False),
    "fabs": OpInfo(0.1, 0, 70.0),
    "fcmp": OpInfo(1.2, 0, 900.0),
    # Conversions.
    "sitofp": OpInfo(1.6, 1, 2100.0),
    "fptosi": OpInfo(1.6, 1, 2200.0),
    "sext": OpInfo(0.05, 0, 20.0),
    "zext": OpInfo(0.05, 0, 10.0),
    "trunc": OpInfo(0.05, 0, 10.0),
    "fpext": OpInfo(0.3, 0, 400.0),
    "fptrunc": OpInfo(0.4, 0, 500.0),
    # Address computation (folded adders/shifters).
    "gep": OpInfo(0.9, 0, 450.0),
    # phi nodes are multiplexers selected by the FSM.
    "phi": OpInfo(0.3, 0, 140.0),
    # Control handled by the FSM; no datapath cost here.
    "control": OpInfo(0.0, 0, 0.0),
    "alloca": OpInfo(0.0, 0, 0.0),
    "call": OpInfo(0.0, 0, 0.0),
    # Memory ops get latency from the interface model; the listed entry is
    # the issue logic only (see interface component areas below).
    "load": OpInfo(0.8, 1, 250.0),
    "store": OpInfo(0.8, 1, 250.0),
}

_WIDTH_FACTOR_64 = 2.1
_DELAY_FACTOR_64 = 1.25

# Sub-32-bit area scaling (the bitwidth analysis produces widths like 7 or
# 14).  Narrow instances keep a fixed overhead floor (I/O buffering, cell
# granularity) and otherwise scale linearly with width for carry/logic
# structures and quadratically for array multipliers/dividers.  Delay is
# left at the 32-bit characterization below 32 bits — conservative, and it
# keeps schedules (latency) invariant under narrowing.
_QUADRATIC_RESOURCES = frozenset({"mul", "div", "rem"})
#: Width-independent classes: memory issue logic, control, call/alloca
#: bookkeeping, float ops (floats only exist at 32/64 bits) and comparators
#: (an icmp produces i1 but is sized by its operand width, which the result
#: type doesn't carry — keep the 32-bit characterization).
_FIXED_BELOW_32 = frozenset({
    "load", "store", "control", "alloca", "call",
    "fadd", "fsub", "fmul", "fdiv", "fneg", "fsqrt", "fabs", "fcmp",
    "sitofp", "fptosi", "fpext", "fptrunc", "icmp",
})
_NARROW_FLOOR = 0.08


def _area_factor(resource: str, bits: int) -> float:
    """Area multiplier vs the 32-bit characterization point.  Exactly 1.0
    at 32 bits and ``_WIDTH_FACTOR_64`` at 64 bits (the legacy anchors);
    linear interpolation between them; piecewise linear/quadratic below."""
    bits = max(1, min(64, bits))
    if bits == 32:
        return 1.0
    if bits >= 64:
        return _WIDTH_FACTOR_64
    if bits > 32:
        return 1.0 + (bits - 32) / 32.0 * (_WIDTH_FACTOR_64 - 1.0)
    if resource in _FIXED_BELOW_32:
        return 1.0
    ratio = bits / 32.0
    if resource in _QUADRATIC_RESOURCES:
        return _NARROW_FLOOR + (1.0 - _NARROW_FLOOR) * ratio * ratio
    return _NARROW_FLOOR + (1.0 - _NARROW_FLOOR) * ratio


def _scaled_op(resource: str, bits: int) -> OpInfo:
    """``TechLibrary.op`` without the per-library memo."""
    try:
        base = _OPS[resource]
    except KeyError:
        raise KeyError(f"no characterization for resource {resource!r}") from None
    if bits == 32:
        return base
    area = _area_factor(resource, bits)
    delay = _delay_factor(bits)
    if area == 1.0 and delay == 1.0:
        return base
    return OpInfo(
        delay_ns=base.delay_ns * delay,
        cycles=base.cycles,
        area_um2=base.area_um2 * area,
        pipelined=base.pipelined,
    )


def _delay_factor(bits: int) -> float:
    bits = max(1, min(64, bits))
    if bits <= 32:
        return 1.0
    if bits >= 64:
        return _DELAY_FACTOR_64
    return 1.0 + (bits - 32) / 32.0 * (_DELAY_FACTOR_64 - 1.0)


# -- Interface component characterization (paper §III-C, Fig. 3) --------------

#: Load/store unit shared by coupled accesses.
LSU_AREA_UM2 = 1_600.0
#: Address generation unit of a decoupled interface port.
AGU_AREA_UM2 = 950.0
#: Data buffering FIFO (8-deep, 32-bit) of a decoupled interface port.
FIFO_AREA_UM2 = 2_100.0
#: DMA engine of a scratchpad interface.
DMA_AREA_UM2 = 5_400.0
#: SRAM macro overhead + per-byte cost of a scratchpad buffer.
SPAD_BASE_AREA_UM2 = 1_200.0
SPAD_BYTE_AREA_UM2 = 1.6

#: Memory-system round-trip latency seen by a *coupled* access (cycles).
COUPLED_LOAD_LATENCY = 6
COUPLED_STORE_LATENCY = 2
#: Latency of a *decoupled* FIFO pop/push once the AGU has run ahead.
DECOUPLED_LATENCY = 1
#: Latency of a *scratchpad* buffer access.
SPAD_LATENCY = 1
#: DMA streaming bandwidth: bytes transferred per cycle per engine.
DMA_BYTES_PER_CYCLE = 8
#: Scan-chain interface of QsCores-style OCAs [22], [23]: high latency and
#: low bandwidth (the port is busy for several cycles per word).
SCANCHAIN_LATENCY = 6
SCANCHAIN_OCCUPANCY = 2

#: Cycles to transfer one scalar argument / result between CPU and
#: accelerator and to trigger/synchronize an invocation.
OFFLOAD_OVERHEAD_CYCLES = 10

# -- Control / sequential element characterization ----------------------------

REGISTER_BIT_AREA_UM2 = 6.5
FSM_STATE_AREA_UM2 = 58.0
MUX2_BIT_AREA_UM2 = 2.8
CONFIG_BIT_AREA_UM2 = 7.0
#: Fixed control overhead of one accelerator (start/done logic, bus glue).
ACCELERATOR_BASE_AREA_UM2 = 2_800.0
#: Extra control overhead for an outer (non-synthesized) region's sequencing.
REGION_CTRL_AREA_UM2 = 220.0


class TechLibrary:
    """Queryable characterization table bound to a clock period."""

    def __init__(self, clock_ns: float = DEFAULT_CLOCK_NS):
        if clock_ns <= 0:
            raise ValueError("clock period must be positive")
        self.clock_ns = clock_ns
        # (resource, bits) → OpInfo.  OpInfos are frozen and the table is
        # fixed, so each width-scaled entry is computed once per library.
        self._ops: Dict[Tuple[str, int], OpInfo] = {}

    @property
    def frequency_hz(self) -> float:
        return 1e9 / self.clock_ns

    def op(self, resource: str, bits: int = 32) -> OpInfo:
        """Characterization of a resource class at the given bit width.

        Piecewise width scaling calibrated so the legacy 32- and 64-bit
        characterization points are reproduced exactly; widths in between
        interpolate linearly, and proven widths below 32 bits shrink the
        area (linearly for adders/logic, quadratically for multipliers)
        without touching delay or pipeline latency.
        """
        info = self._ops.get((resource, bits))
        if info is None:
            info = self._ops[(resource, bits)] = _scaled_op(resource, bits)
        return info

    def latency_cycles(self, resource: str, bits: int = 32) -> int:
        return self.op(resource, bits).cycles

    def delay_ns(self, resource: str, bits: int = 32) -> float:
        return self.op(resource, bits).delay_ns

    def area(self, resource: str, bits: int = 32) -> float:
        return self.op(resource, bits).area_um2

    def register_area(self, bits: int) -> float:
        return REGISTER_BIT_AREA_UM2 * bits

    def mux_area(self, bits: int, inputs: int = 2) -> float:
        """Area of an ``inputs``-way multiplexer of the given width."""
        if inputs < 2:
            return 0.0
        return MUX2_BIT_AREA_UM2 * bits * (inputs - 1)

    def fsm_area(self, states: int) -> float:
        return FSM_STATE_AREA_UM2 * max(1, states)

    def scratchpad_area(self, bytes_: int) -> float:
        return SPAD_BASE_AREA_UM2 + SPAD_BYTE_AREA_UM2 * max(0, bytes_)

    def dma_cycles(self, bytes_: int) -> int:
        """Cycles to stream ``bytes_`` through the DMA engine (one way)."""
        return max(1, -(-bytes_ // DMA_BYTES_PER_CYCLE))


#: Shared default library instance at the paper's 500 MHz target.
DEFAULT_TECHLIB = TechLibrary()
