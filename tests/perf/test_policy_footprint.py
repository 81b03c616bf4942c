"""Deterministic memory counter for the per-cell policy copy.

Every RL campaign cell runs on its own load of the pre-training job's
artefact, so the bytes that load keeps alive are paid once per cell; a
``copy.deepcopy`` of a policy is the in-process way to the same copy.
Peak RSS on a shared host is noisy; the bytes ``tracemalloc`` sees a copy
allocate are not.  This test holds them, per Q-table entry, under a budget,
so a change that goes back to one Python object per row fails here without
a stopwatch.
"""

import copy
import tracemalloc
from dataclasses import replace


from repro.config import INTELLINOC
from repro.core.intellinoc import pretrain_agents
from repro.rl.persistence import policy_from_bytes, policy_to_bytes

#: Bytes a copy of the policy below may retain per Q-table entry, agents
#: and RNGs included.  Measured 142.2 for the deep copy when the budget was
#: set (CPython 3.11, numpy 2) and 140.3 for the load; one ndarray per row
#: in an ``OrderedDict`` cost 304.3.  On the 8x8 fabric the same count is
#: 85 against 244.
BYTES_PER_ENTRY_BUDGET = 220.0


def test_a_policy_copy_retains_under_budget_bytes_per_entry():
    technique = replace(INTELLINOC, noc=replace(INTELLINOC.noc, width=4, height=4))
    policy = pretrain_agents(technique, duration=3000, seed=3)
    entries = policy.total_table_entries()
    assert entries > 500  # the tables, not the agents, are what is counted
    artefact = policy_to_bytes(policy)
    for make_copy in (lambda: policy_from_bytes(artefact), lambda: copy.deepcopy(policy)):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            clone = make_copy()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert clone.total_table_entries() == entries
        assert retained / entries < BYTES_PER_ENTRY_BUDGET, (retained, entries)
