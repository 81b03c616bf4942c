"""Tests for the package's public surface."""

import repro


class TestPublicApi:
    def test_all_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_subpackages_import_clean(self):
        import repro.channels
        import repro.control
        import repro.core
        import repro.ecc
        import repro.faults
        import repro.metrics
        import repro.noc
        import repro.power
        import repro.rl
        import repro.traffic
        import repro.utils

    def test_doctest_style_quickstart(self):
        """The README quickstart must actually run (at smoke scale)."""
        from repro import INTELLINOC, parsec_cell
        from repro.exec import EngineOptions

        spec = parsec_cell(INTELLINOC, "swa", 1000, seed=42, pretrain_cycles=1000)
        metrics = EngineOptions().run_specs([spec]).metrics[0]
        assert metrics.packets_completed > 0
        assert metrics.energy_efficiency > 0


class TestDoctests:
    def test_module_doctests(self):
        import doctest

        import repro.noc.routing
        import repro.noc.topology
        import repro.noc.arbiter
        import repro.utils.rng
        import repro.utils.tables
        import repro.ecc.crc
        import repro.ecc.hamming
        import repro.ecc.dected
        import repro.ecc.gf

        failures = 0
        for module in (
            repro.noc.routing,
            repro.noc.topology,
            repro.noc.arbiter,
            repro.utils.rng,
            repro.utils.tables,
            repro.ecc.crc,
            repro.ecc.hamming,
            repro.ecc.dected,
            repro.ecc.gf,
        ):
            result = doctest.testmod(module)
            failures += result.failed
        assert failures == 0
