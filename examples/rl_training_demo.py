"""Watch the per-router Q-learning control policy being trained.

Trains IntelliNoC's agents on the blackscholes tuning profile (as in
Section 6.3), tracking the reward trajectory and the growth of the visited
state set, then deploys the policy on an unseen benchmark and shows the
operation-mode decisions it makes at different traffic intensities.
"""

import numpy as np

from repro.config import INTELLINOC, SimulationConfig
from repro.control.policies import make_policy
from repro.core.intellinoc import pretrain_agents
from repro.exec.spec import training_technique
from repro.noc.network import Network
from repro.noc.topology import build_topology
from repro.traffic.parsec import generate_parsec_trace
from repro.utils.rng import RngFactory
from repro.utils.tables import format_table


def watch_training(duration: int = 20_000, report_every: int = 2_000) -> None:
    technique = training_technique(INTELLINOC)
    noc = technique.noc
    policy = make_policy(technique, build_topology(noc).num_routers, RngFactory(3))
    trace = generate_parsec_trace(
        "blackscholes", noc.width, noc.height, duration, noc.flits_per_packet, 3
    )
    net = Network(SimulationConfig(technique=technique, seed=3), trace, policy=policy)

    print("cycle   avg reward   visited states (max/router)")
    for start in range(0, duration, report_every):
        net.run(report_every)
        rewards = [a.last_reward for a in policy.agents if a.steps > 0]
        print(
            f"{net.cycle:6d}   {np.mean(rewards):10.3f}   "
            f"{max(len(a.qtable) for a in policy.agents):6d}"
        )


def deploy_and_inspect() -> None:
    print("\nPre-training a deployable policy (load-swept blackscholes) ...")
    policy = pretrain_agents(INTELLINOC, duration=24_000, seed=3)
    agent = policy.agents[0]

    print(f"Q-table of router 0: {len(agent.qtable)} states visited\n")
    rows = []
    # Probe the learned policy with synthetic observations.
    from repro.rl.state import RouterObservation

    for label, util, temp in (
        ("idle, cool", 0.0, 320.0),
        ("light load", 0.03, 326.0),
        ("moderate load", 0.10, 335.0),
        ("busy, hot", 0.25, 352.0),
    ):
        obs = RouterObservation(
            router=0,
            in_link_utilization=np.full(5, util),
            buffer_utilization=np.full(5, min(1.0, util * 3)),
            out_link_utilization=np.full(5, util),
            temperature=temp,
            epoch_power_w=0.004 + util * 0.05,
            epoch_latency=20 + util * 200,
            aging_factor=1.0 + (temp - 318) * 1e-4,
            error_classes=np.zeros(4, dtype=np.int64),
        )
        state = agent.extractor.extract(obs)
        q = agent.qtable.q_values(state)
        rows.append([label, f"{temp:.0f}K", int(np.argmax(q)),
                     np.array2string(np.round(q, 1))])
    print(format_table(
        ["router condition", "temp", "greedy mode", "Q(s, a0..a4)"],
        rows,
        title="Learned policy probes (mode 0=bypass, 1=CRC, 2=SECDED, 3=DECTED, 4=relaxed)",
    ))


if __name__ == "__main__":
    watch_training()
    deploy_and_inspect()
