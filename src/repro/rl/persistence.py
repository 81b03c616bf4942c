"""Save and load trained control policies.

Pre-training the 64 per-router agents costs minutes of simulation; a
deployment workflow wants to train once and reuse.  Policies serialize to
a single JSON file: hyperparameters + per-agent sparse Q-tables (state
tuples are stored as comma-joined bin indices, rows in LRU order) and the
running TD-target mean each table starts a new row at.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.config import RlConfig
from repro.control.policies import RlPolicy
from repro.rl.agent import NUM_OPERATION_MODES, RouterAgent
from repro.rl.qlearning import QTable
from repro.utils.rng import RngFactory

FORMAT_VERSION = 1


def _encode_state(state: tuple) -> str:
    return ",".join(str(b) for b in state)


def _decode_state(key: str) -> tuple:
    return tuple(int(b) for b in key.split(","))


def save_policy(policy: RlPolicy, path: str | Path) -> None:
    """Serialize a (trained) RL policy to JSON."""
    if not policy.agents:
        raise ValueError("policy has no agents")
    config = policy.agents[0].config
    payload = {
        "format": FORMAT_VERSION,
        "num_actions": NUM_OPERATION_MODES,
        "rl": {
            "learning_rate": config.learning_rate,
            "discount": config.discount,
            "epsilon": config.epsilon,
            "time_step": config.time_step,
            "num_bins": config.num_bins,
            "initial_mode": config.initial_mode,
            "max_table_entries": config.max_table_entries,
        },
        "agents": [
            {
                "router": agent.router,
                "steps": agent.steps,
                # Rows straight from the store, in LRU order: a q_values()
                # lookup would touch each state's LRU position.
                "qtable": {
                    _encode_state(state): agent.qtable._q[slot].tolist()
                    for state, slot in agent.qtable._slots.items()
                },
                # Where a new row starts (optional: absent in older files).
                "target_ema": agent.qtable._target_ema,
                "target_seen": agent.qtable._target_seen,
            }
            for agent in policy.agents
        ],
    }
    Path(path).write_text(json.dumps(payload))


def load_policy(path: str | Path, seed: int = 1) -> RlPolicy:
    """Reconstruct a policy saved by :func:`save_policy`.

    *seed* re-seeds the epsilon-greedy exploration streams (exploration
    randomness is not part of the learned artifact).
    """
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported policy format {payload.get('format')!r}")
    rl = RlConfig(**payload["rl"])
    rngs = RngFactory(seed)
    agents = []
    for record in payload["agents"]:
        agent = RouterAgent(record["router"], rl, rngs.stream(f"agent/{record['router']}"))
        table = QTable(
            payload["num_actions"],
            rl.learning_rate,
            rl.discount,
            max_entries=None,
            preferred_action=rl.initial_mode,
        )
        for key, row in record["qtable"].items():
            values = table.q_values(_decode_state(key))
            values[:] = np.asarray(row, dtype=float)
        table._target_ema = record.get("target_ema", 0.0)
        table._target_seen = record.get("target_seen", False)
        agent.qtable = table
        agent.steps = record.get("steps", 0)
        agents.append(agent)
    if not agents:
        raise ValueError("policy file contains no agents")
    return RlPolicy(agents)
