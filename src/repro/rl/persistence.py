"""Save and load pre-trained master policies, exactly.

Pre-training the 64 per-router agents costs minutes of simulation; a
deployment workflow (and the campaign engine's result store) trains once
and reuses.  What is stored is the *master* that
:func:`~repro.core.intellinoc.pretrain_agents` returns — agents that share
one trained Q-table — and it loads back as that master: the training
``RlConfig``, the table's rows and ``{state: slot}`` map in LRU order with
its running TD-target mean, and each router's exploration generator state.
Cells never run a master; they run :meth:`RlPolicy.deploy
<repro.control.policies.RlPolicy.deploy>`'s copies of it, so a cell
deploying the loaded master is the cell deploying the original.

Layout: ``MAGIC``, the header's length (8 bytes, little-endian), a UTF-8
JSON header, then three little-endian arrays — the table's state tuples in
LRU order (int64, one row each), each state's slot (int64), and the rows in
slot order (float64).  Never a pickle: loading runs no code from the file.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from repro.config import RlConfig
from repro.control.policies import RlPolicy
from repro.rl.agent import RouterAgent

MAGIC = b"INOCPOL3"
FORMAT_VERSION = 3


def policy_to_bytes(policy: RlPolicy) -> bytes:
    """The master's artefact (see the module docstring for the layout)."""
    table = policy.agents[0].qtable
    if any(agent.qtable is not table for agent in policy.agents):
        raise ValueError("not a master policy: its agents do not share one table")
    width = len(next(iter(table._slots), ()))
    states = np.array(list(table._slots), dtype="<i8").reshape(len(table), width)
    header = json.dumps({
        "format": FORMAT_VERSION,
        "config": dataclasses.asdict(policy.agents[0].config),
        "states": list(states.shape),
        "target": [table._target_ema, table._target_seen],
        "rngs": [agent.policy._rng.bit_generator.state for agent in policy.agents],
    }).encode("utf-8")
    return b"".join([
        MAGIC, len(header).to_bytes(8, "little"), header, states.tobytes(),
        np.array(list(table._slots.values()), dtype="<i8").tobytes(),
        np.ascontiguousarray(table._q[: len(table)], dtype="<f8").tobytes(),
    ])


def policy_from_bytes(data: bytes) -> RlPolicy:
    """The master :func:`policy_to_bytes` wrote, exactly."""
    if data[: len(MAGIC)] != MAGIC:
        raise ValueError("not a policy artefact")
    start = len(MAGIC) + 8
    end = start + int.from_bytes(data[len(MAGIC):start], "little")
    header = json.loads(data[start:end])
    if header.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported policy format {header.get('format')!r}")
    if not header["rngs"]:
        raise ValueError("policy artefact contains no agents")

    def take(dtype: str, count: int) -> np.ndarray:
        nonlocal end
        array = np.frombuffer(data, dtype=dtype, count=count, offset=end)
        end += array.nbytes
        return array

    count, width = header["states"]
    states = map(tuple, take("<i8", count * width).reshape(count, width).tolist())
    slots = take("<i8", count).tolist()
    config = RlConfig(**header["config"])
    agents = []
    for router, state in enumerate(header["rngs"]):
        # `make_rng`'s generator; the seed is overwritten by the saved state.
        rng = np.random.Generator(np.random.PCG64(0))
        rng.bit_generator.state = state
        agents.append(RouterAgent(router, config, rng))
    table = agents[0].qtable
    table.max_entries = None  # as pre-training trains it
    table._slots = dict(zip(states, slots))
    rows = take("<f8", count * table.num_actions)
    table._q = rows.reshape(count, table.num_actions).copy()  # writable
    table._target_ema, table._target_seen = header["target"]
    if end != len(data):
        raise ValueError("policy artefact has trailing bytes")
    for agent in agents:
        agent.qtable = table
    return RlPolicy(agents)


def save_policy(policy: RlPolicy, path: str | Path) -> None:
    """Write a pre-trained master policy's artefact to *path*."""
    Path(path).write_bytes(policy_to_bytes(policy))


def load_policy(path: str | Path) -> RlPolicy:
    """Reconstruct the master saved by :func:`save_policy`."""
    return policy_from_bytes(Path(path).read_bytes())
