"""Runtime operation-mode control policies (Sections 4-6.3).

All five techniques run the *same* simulator from ``rl.initial_mode``;
what differs is the policy that (re)configures routers at each time step:

* :class:`StaticPolicy` — baseline, EB, CP: the start mode (2, SECDED)
  forever; CP gates through the router's idle detector (``power_gating``),
  not by a mode decision.
* :class:`HeuristicEccPolicy` — CPD: pick the ECC level matching the most
  common error class of the previous time step.
* :class:`RlPolicy` — IntelliNoC: per-router Q-learning agents choose one
  of the five operation modes.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from collections.abc import Sequence

import numpy as np

from repro.config import ControlPolicy, TechniqueConfig
from repro.rl.agent import RouterAgent
from repro.rl.state import RouterObservation


class ModePolicy(ABC):
    """Decides per-router operation modes at each control time step."""

    agents: Sequence[RouterAgent] = ()  # per-router learners, if any
    adapts = True  # whether modes ever change at runtime

    @abstractmethod
    def control_step(
        self, observations: list[RouterObservation], cycle: int
    ) -> list[int] | None:
        """Next operation mode per router, or None to leave modes alone."""

    def max_table_entries(self) -> int:
        """The largest agent's Q-table size (0 for a policy with none)."""
        return max((len(a.qtable) for a in self.agents), default=0)


class StaticPolicy(ModePolicy):
    """No runtime adaptation: every router holds ``rl.initial_mode``."""

    adapts = False

    def control_step(self, observations, cycle):
        return None


class HeuristicEccPolicy(ModePolicy):
    """CPD: ECC level follows the previous epoch's dominant error class.

    The agent "calculates which error type is most common (no errors in a
    flit, 1-bit error per flit, 2-bit errors per flit, or more than 3-bit
    errors per flit)" (Section 6.3) and deploys, respectively, CRC (mode
    1), SECDED (mode 2), DECTED (mode 3), or relaxed transmission (mode 4).
    Mode 0 is never chosen: the bypass is an IntelliNoC-only feature.
    """

    _CLASS_TO_MODE = {0: 1, 1: 2, 2: 3, 3: 4}

    def control_step(self, observations, cycle):
        modes = []
        for obs in observations:
            errors = obs.error_classes
            if errors[1:].sum() == 0:
                modes.append(1)  # nothing but clean flits: CRC suffices
                continue
            # Dominant *faulty* class decides how much correction to buy.
            dominant = 1 + int(np.argmax(errors[1:]))
            modes.append(self._CLASS_TO_MODE[dominant])
        return modes


class RlPolicy(ModePolicy):
    """IntelliNoC: one Q-learning agent per router."""

    def __init__(self, agents: list[RouterAgent]):
        if not agents:
            raise ValueError("need at least one agent")
        self.agents = agents

    def control_step(self, observations, cycle):
        if len(observations) != len(self.agents):
            raise ValueError("one observation per agent required")
        return [agent.decide(obs) for agent, obs in zip(self.agents, observations)]

    def deploy(self, technique: TechniqueConfig) -> "RlPolicy":
        """This pre-trained master's agents as a cell of *technique* runs
        them (Section 6.3's train-then-test split): per router, a fresh
        agent built from the cell's own ``technique.rl``, exploring from a
        copy of its master agent's generator and learning online in a
        private copy of its master agent's table.  The master is left as
        it was, so it deploys any number of times."""
        agents = []
        for master in self.agents:
            agent = RouterAgent(
                master.router, technique.rl, copy.deepcopy(master.policy._rng)
            )
            # Uncapped, as pre-training leaves the table: the cell's
            # `max_table_entries` budget is not applied to deployed tables.
            agent.qtable.max_entries = None
            master.qtable.clone_into(agent.qtable)
            agents.append(agent)
        return RlPolicy(agents)


def make_policy(
    technique: TechniqueConfig,
    num_routers: int,
    rng_factory,
) -> ModePolicy:
    """Instantiate the policy matching a technique's configuration."""
    if technique.policy is ControlPolicy.STATIC:
        return StaticPolicy()
    if technique.policy is ControlPolicy.HEURISTIC:
        return HeuristicEccPolicy()
    if technique.policy is ControlPolicy.RL:
        agents = [
            RouterAgent(i, technique.rl, rng_factory.stream(f"agent/{i}"))
            for i in range(num_routers)
        ]
        return RlPolicy(agents)
    raise ValueError(f"unknown control policy {technique.policy}")
