"""CPD's mode-4 path and MFAC-less relaxed handling.

CPD (no MFAC hardware) can still select mode 4; the router then applies
relaxed timing semantics through its ECC/scheme state without MFAC
channel reconfiguration.  These tests pin that boundary.
"""

from repro.config import CPD, PowerConfig
from repro.noc.router import Router
from repro.noc.statistics import RouterEpochCounters
from repro.noc.topology import MeshTopology


def cpd_router():
    return Router(
        5,
        CPD,
        PowerConfig(),
        topology=MeshTopology(8, 8),
        counters=RouterEpochCounters(),
        charge=lambda e: None,
        on_eject=lambda f, c: None,
        on_drop=lambda packet, reason: None,
    )


class TestCpdModes:
    def test_cpd_has_no_mfac_controller(self):
        router = cpd_router()
        router.finish_wiring()
        assert router.mfac_controller is None

    def test_mode4_sets_relaxed_without_mfacs(self):
        router = cpd_router()
        router.apply_mode(4, 0)
        assert router.relaxed_timing
        # CPD channels stay NORMAL (no MFAC function circuits to switch).
        assert all(not c.is_mfac for c in router.outgoing.values())

    def test_mode_cycle_through_all(self):
        router = cpd_router()
        for mode in (1, 2, 3, 4, 1):
            router.apply_mode(mode, 0)
            assert router.mode == mode
        assert router.ecc.transitions >= 3

    def test_cpd_never_uses_bypass(self):
        router = cpd_router()
        assert not router.technique.uses_bypass
        assert router.bypass_step(0, None) is False
