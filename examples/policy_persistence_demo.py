"""Train once, deploy everywhere: saving and loading control policies.

Pre-trains IntelliNoC's agents, saves the policy to its binary artefact,
reloads it exactly (Q-tables and exploration state alike), and compares
the deployed behavior against untrained agents — the workflow a real
deployment would use instead of re-training at every boot.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

from repro.config import INTELLINOC
from repro.exec.spec import parsec_cell
from repro.exec.worker import execute_cell, pretrain
from repro.rl.persistence import load_policy, save_policy


def main() -> None:
    # The cell whose pre-training job produces the policy it deploys.
    cell = parsec_cell(INTELLINOC, "fac", 4000, seed=13, pretrain_cycles=20_000)
    print("pre-training agents on the blackscholes load sweep ...")
    policy = pretrain(cell.pretraining)
    visited = max(len(a.qtable) for a in policy.agents)
    print(f"trained: {len(policy.agents)} agents, largest table {visited} states")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "intellinoc.policy"
        save_policy(policy, path)
        size_kb = path.stat().st_size / 1024
        print(f"saved to {path.name}: {size_kb:.0f} KiB")

        reloaded = load_policy(path)
        print(f"reloaded {len(reloaded.agents)} agents")

        print("\nrunning 'fac' with the trained policy vs an untrained one:")
        trained = execute_cell(cell, reloaded)
        untrained = execute_cell(replace(cell, pretrain_cycles=0))
        print(f"  trained : latency {trained.latency.mean:7.2f}  "
              f"energy {trained.total_energy_j * 1e6:7.2f} uJ")
        print(f"  untrained: latency {untrained.latency.mean:7.2f}  "
              f"energy {untrained.total_energy_j * 1e6:7.2f} uJ")


if __name__ == "__main__":
    main()
