"""Save and load trained control policies, exactly.

Pre-training the 64 per-router agents costs minutes of simulation; a
deployment workflow (and the campaign engine's result store) trains once
and reuses.  A policy serializes to one binary artefact that loads back as
the policy it was, bit for bit: every agent's Q-table rows in LRU order
with the table's running TD-target mean and counters, its exploration
generator's state, and every other field, so a run deploying the loaded
policy is the run deploying the original.

Layout: ``MAGIC``, the header's length (8 bytes, little-endian), a UTF-8
JSON header, then three little-endian arrays — the distinct state tuples
(int64, one row each), each table's ``(state index, slot)`` pairs in LRU
order (int64), and each table's rows in slot order (float64).  Identical
tables (every agent right after pre-training) are stored once.  Never a
pickle: loading runs no code from the file.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.config import RlConfig
from repro.control.policies import RlPolicy
from repro.rl.agent import RouterAgent
from repro.rl.policy import EpsilonGreedyPolicy
from repro.rl.qlearning import QTable
from repro.rl.state import StateExtractor

MAGIC = b"INOCPOL2"
FORMAT_VERSION = 2

#: Attributes that are not plain JSON fields: sub-objects, the generator,
#: and the table's store (which goes in the arrays).
_AGENT_PARTS = ("config", "extractor", "qtable", "policy")
_POLICY_RNG = ("_rng",)
_TABLE_STORE = ("_slots", "_q")


def _fields(obj: object, skip: tuple[str, ...] = ()) -> dict[str, Any]:
    return {k: v for k, v in vars(obj).items() if k not in skip}


def _rebuild(cls: type, fields: dict[str, Any]) -> Any:
    """An instance holding exactly *fields* (JSON turned tuples into lists;
    none of these attributes is a list)."""
    obj = cls.__new__(cls)
    vars(obj).update(
        (k, tuple(v) if isinstance(v, list) else v) for k, v in fields.items()
    )
    return obj


def policy_to_bytes(policy: RlPolicy) -> bytes:
    """The policy's artefact (see the module docstring for the layout)."""
    if not policy.agents:
        raise ValueError("policy has no agents")
    blocks: list[tuple[list[tuple[tuple, int]], bytes]] = []
    agents = []
    for agent in policy.agents:
        table = agent.qtable
        block = (
            list(table._slots.items()),
            np.ascontiguousarray(table._q[: len(table)], dtype="<f8").tobytes(),
        )
        try:
            number = blocks.index(block)
        except ValueError:
            number = len(blocks)
            blocks.append(block)
        agents.append({
            "agent": _fields(agent, _AGENT_PARTS),
            "config": dataclasses.asdict(agent.config),
            "extractor": _fields(agent.extractor),
            "policy": _fields(agent.policy, _POLICY_RNG),
            "rng": agent.policy._rng.bit_generator.state,
            "table": _fields(table, _TABLE_STORE),
            "block": number,
        })
    state_ids: dict[tuple, int] = {}
    index = [
        (state_ids.setdefault(state, len(state_ids)), slot)
        for items, _ in blocks
        for state, slot in items
    ]
    width = len(next(iter(state_ids), ()))
    states = np.array(list(state_ids), dtype="<i8").reshape(len(state_ids), width)
    header = json.dumps({
        "format": FORMAT_VERSION,
        "states": list(states.shape),
        "blocks": [len(items) for items, _ in blocks],
        "num_actions": policy.agents[0].qtable.num_actions,
        "agents": agents,
    }).encode("utf-8")
    return b"".join([
        MAGIC, len(header).to_bytes(8, "little"), header, states.tobytes(),
        np.array(index, dtype="<i8").tobytes(), *(rows for _, rows in blocks),
    ])


def policy_from_bytes(data: bytes) -> RlPolicy:
    """The policy :func:`policy_to_bytes` wrote, exactly."""
    if data[: len(MAGIC)] != MAGIC:
        raise ValueError("not a policy artefact")
    start = len(MAGIC) + 8
    end = start + int.from_bytes(data[len(MAGIC):start], "little")
    header = json.loads(data[start:end])
    if header.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported policy format {header.get('format')!r}")
    if not header["agents"]:
        raise ValueError("policy artefact contains no agents")

    def take(dtype: str, count: int) -> np.ndarray:
        nonlocal end
        array = np.frombuffer(data, dtype=dtype, count=count, offset=end)
        end += array.nbytes
        return array

    shape = header["states"]
    states = list(map(tuple, take("<i8", shape[0] * shape[1]).reshape(shape).tolist()))
    # One {state: slot} dict per block, shared keys (as `clone_into` shares them).
    slots = []
    for n in header["blocks"]:
        pairs = take("<i8", 2 * n).tolist()
        slots.append(dict(zip([states[i] for i in pairs[::2]], pairs[1::2])))
    num_actions = header["num_actions"]
    rows = [take("<f8", n * num_actions).reshape(n, num_actions) for n in header["blocks"]]
    if end != len(data):
        raise ValueError("policy artefact has trailing bytes")
    agents = []
    for record in header["agents"]:
        table = _rebuild(QTable, record["table"])
        table._slots = dict(slots[record["block"]])
        table._q = rows[record["block"]].copy()
        # `make_rng`'s generator; the seed is overwritten by the saved state.
        rng = np.random.Generator(np.random.PCG64(0))
        rng.bit_generator.state = record["rng"]
        policy = _rebuild(EpsilonGreedyPolicy, record["policy"])
        policy._rng = rng
        agent = _rebuild(RouterAgent, record["agent"])
        agent.config = RlConfig(**record["config"])
        agent.extractor = _rebuild(StateExtractor, record["extractor"])
        agent.qtable = table
        agent.policy = policy
        agents.append(agent)
    return RlPolicy(agents)


def save_policy(policy: RlPolicy, path: str | Path) -> None:
    """Write a (trained) RL policy's artefact to *path*."""
    Path(path).write_bytes(policy_to_bytes(policy))


def load_policy(path: str | Path) -> RlPolicy:
    """Reconstruct a policy saved by :func:`save_policy`."""
    return policy_from_bytes(Path(path).read_bytes())
