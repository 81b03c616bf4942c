"""A finished job leaves nothing resident.

A ``Network`` is a graph of reference cycles (router links, bound
callbacks), and the cycle loop allocates too few containers to trigger a
full collection, so a finished cell's simulator survives until something
collects.  The executor's job function releases each job when it returns;
this test watches every ``Network`` a campaign builds through a weak
reference and never collects itself, so a network kept alive only by
uncollected cycles still counts as resident.
"""

import weakref
from dataclasses import replace

from repro.config import INTELLINOC, SECDED_BASELINE
from repro.core.experiment import ExperimentRunner
from repro.noc.network import Network


def test_no_network_outlives_a_campaign(monkeypatch):
    built = []
    init = Network.__init__

    def watched(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(weakref.ref(self))

    monkeypatch.setattr(Network, "__init__", watched)
    techniques = [
        replace(t, noc=replace(t.noc, width=4, height=4))
        for t in (SECDED_BASELINE, INTELLINOC)
    ]
    results = ExperimentRunner(
        duration=600, seed=7, benchmarks=["swa", "x264s"],
        techniques=techniques, pretrain_cycles=900, jobs=1,
    ).run_campaign()
    assert len(results) == 4
    assert len(built) == 5  # four cells and one pre-training run
    assert [ref for ref in built if ref() is not None] == []
