"""Enum members are bound once, not looked up per flit (ISSUE 19).

``state is PowerState.GATED`` is a global load plus an attribute lookup
that goes through ``EnumType``'s descriptor machinery: about eight times
the cost of loading a module-level constant on CPython 3.11, and not a
*call*, so neither ``cProfile`` nor the calls-per-flit-hop counter next
door can see it (docs/observability.md, "What the call count cannot
see").  The simulator's packages therefore name each member through the
module-level constant defined beside its enum (``POWER_GATED``,
``VC_IDLE`` ...).  Two guards, neither needing a stopwatch:

* static — no function of the packages below loads ``Enum.MEMBER``;
* dynamic — how many such loads the cycle loop really executes per
  flit-hop, on the fixtures of ``test_calls_per_flit_hop``.
"""

import dis
import enum
import importlib
import pkgutil
import sys
from inspect import CO_OPTIMIZED
from pathlib import Path
from types import CodeType, ModuleType

from tests.perf.test_calls_per_flit_hop import (
    CYCLES,
    GATED_CYCLES,
    small_busy_mesh,
    small_gated_torus,
)

#: Whole packages and, of ``repro.ecc``, the two modules the loop runs.
SCOPE = ("repro.noc", "repro.channels", "repro.ecc.outcomes", "repro.ecc.adaptive")

#: Enum-member loads the loop may execute per flit-hop on the busy mesh.
#: Measured 25.0 (88 937 over 3 560 hops) before the constants and 0.03
#: (96) after; what is left runs outside the packages above, per epoch
#: (`PowerModel.ecc_leakage_mw`) or per ECC reconfiguration
#: (`EccScheme.per_hop`) ...
LOADS_PER_FLIT_HOP_BUDGET = 0.2
#: ... and per flit move on the gated torus: 15.7 (93 926 over 5 972
#: moves) before, 0.01 (63) after.
LOADS_PER_GATED_FLIT_MOVE_BUDGET = 0.3


def scoped_modules() -> list[ModuleType]:
    modules = []
    for name in SCOPE:
        module = importlib.import_module(name)
        modules.append(module)
        for info in pkgutil.iter_modules(getattr(module, "__path__", ())):
            modules.append(importlib.import_module(f"{name}.{info.name}"))
    return modules


def function_codes(code: CodeType):
    """Every code object under *code* that runs per call: functions,
    methods, lambdas, comprehensions.  Module and class bodies run once."""
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if const.co_flags & CO_OPTIMIZED:
                yield const
            yield from function_codes(const)


def enum_member_loads(code: CodeType, namespace: dict) -> list[tuple[int, str]]:
    """(bytecode offset, "Enum.MEMBER") of each ``LOAD_GLOBAL <Enum class>``
    directly followed by ``LOAD_ATTR <member of it>`` in *code*."""
    found = []
    previous = None
    for instruction in dis.get_instructions(code):
        if (
            previous is not None
            and previous.opname == "LOAD_GLOBAL"
            and instruction.opname == "LOAD_ATTR"
        ):
            cls = namespace.get(previous.argval)
            if (
                isinstance(cls, type)
                and issubclass(cls, enum.Enum)
                and instruction.argval in cls.__members__
            ):
                found.append((instruction.offset, f"{cls.__name__}.{instruction.argval}"))
        previous = instruction
    return found


def test_no_function_loads_an_enum_member():
    hits = []
    for module in scoped_modules():
        path = Path(module.__file__)
        top = compile(path.read_text(), str(path), "exec")
        for code in function_codes(top):
            where = getattr(code, "co_qualname", code.co_name)  # 3.11+
            for _, member in enum_member_loads(code, vars(module)):
                hits.append(f"{module.__name__}:{where}: {member}")
    assert not hits, (
        f"{len(hits)} Enum.MEMBER loads inside functions; import the "
        "module-level constant defined beside the enum instead:\n  "
        + "\n  ".join(hits)
    )


def run_counting_member_loads(network, cycles: int) -> int:
    """Run *network* and count the executed ``Enum.MEMBER`` loads in
    ``repro`` frames (every package, not only the scoped ones)."""
    sites: dict[CodeType, frozenset[int]] = {}
    loads = 0

    def on_opcode(frame, event, arg):
        nonlocal loads
        if event == "opcode" and frame.f_lasti in sites[frame.f_code]:
            loads += 1
        return on_opcode

    def on_call(frame, event, arg):
        code = frame.f_code
        offsets = sites.get(code)
        if offsets is None:
            offsets = frozenset()
            if frame.f_globals.get("__name__", "").startswith("repro."):
                offsets = frozenset(
                    offset for offset, _ in enum_member_loads(code, frame.f_globals)
                )
            sites[code] = offsets
        if not offsets:
            return None  # nothing to count in this frame
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return on_opcode

    sys.settrace(on_call)
    try:
        network.run(cycles)
    finally:
        sys.settrace(None)
    return loads


def test_enum_member_loads_per_flit_hop():
    network = small_busy_mesh()
    loads = run_counting_member_loads(network, CYCLES)
    hops = network.stats.flits_delivered
    assert hops > 1000
    assert loads / hops <= LOADS_PER_FLIT_HOP_BUDGET, (loads, hops)


def test_enum_member_loads_per_gated_flit_move():
    network = small_gated_torus()
    loads = run_counting_member_loads(network, GATED_CYCLES)
    stats = network.stats
    moves = stats.bypass_traversals + stats.flits_delivered
    assert stats.bypass_traversals > 5000
    assert loads / moves <= LOADS_PER_GATED_FLIT_MOVE_BUDGET, (loads, moves)
