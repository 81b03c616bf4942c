"""Pre-training as a job: its artefact is exact, it runs once per campaign
and never again on a warm store, and the engine's resume and failure
handling apply to it as to any cell."""

import copy
from dataclasses import replace

import pytest

from hypothesis import given, strategies as st

from repro.config import INTELLINOC, SECDED_BASELINE, FaultConfig
from repro.core.intellinoc import pretrain_agents
from repro.exec.engine import CampaignEngine
from repro.exec.executors import CellExecutionError, CellExecutor
from repro.exec.resilience import CampaignInterrupted, ShutdownFlag
from repro.exec.spec import PretrainSpec, parsec_cell, training_technique
from repro.exec.store import ResultStore
from repro.exec.worker import execute_cell, execute_job, pretrain
from repro.rl.persistence import policy_from_bytes, policy_to_bytes


def small(technique, topology="mesh"):
    return replace(
        technique,
        noc=replace(technique.noc, width=4, height=4, topology=topology),
    )


def grid(benchmarks=("swa", "x264s"), seed=7):
    """`campaign_fig`'s shape on a 4x4 fabric: a static technique and an RL
    one over two benchmarks, the RL cells sharing one pre-training job."""
    return [
        parsec_cell(t, b, 600, seed=seed, pretrain_cycles=900)
        for t in (small(SECDED_BASELINE), small(INTELLINOC))
        for b in benchmarks
    ]


def pretrainings(events, kind="done"):
    return [e for e in events if e.kind == kind and e.spec.job == "pretrain"]


def _doomed_pretraining(job, *inputs):
    if job.job == "pretrain":
        raise RuntimeError("doomed pre-training")
    return execute_job(job, *inputs)


@pytest.fixture(scope="module")
def cold():
    """The grid cold at jobs=1: its metrics and progress events."""
    events = []
    report = CampaignEngine(progress=events.append).run(grid())
    return report, events


@pytest.mark.parametrize("topology", ["mesh", "torus"])
def test_a_cell_from_a_loaded_artefact_is_the_cell_from_the_master(topology):
    technique = small(INTELLINOC.with_rl(time_step=200), topology)
    cells = [
        parsec_cell(technique, b, 600, seed=5, pretrain_cycles=900)
        for b in ("swa", "can")
    ]
    master = pretrain(cells[0].pretraining)
    artefact = policy_to_bytes(master)
    for cell in cells:
        assert (
            execute_cell(cell, policy_from_bytes(artefact)).to_dict()
            == execute_cell(cell, copy.deepcopy(master)).to_dict()
        )


def test_a_cell_and_its_policy_go_together():
    cell = grid()[-1]
    with pytest.raises(ValueError, match="pre-trained policy"):
        execute_cell(cell)
    with pytest.raises(ValueError, match="pre-trained policy"):
        execute_cell(grid()[0], pretrain(cell.pretraining))


def test_the_pretraining_job_is_keyed_on_what_trains_the_policy():
    rl = grid()
    assert rl[2].pretraining == rl[3].pretraining == PretrainSpec(
        training_technique(rl[2].technique), 7, rl[2].faults, 900
    )
    assert rl[0].pretraining is None  # a static technique trains nothing
    assert replace(rl[2], pretrain_cycles=0).pretraining is None
    assert replace(rl[2], seed=8).pretraining != rl[2].pretraining


def deployed(technique=INTELLINOC, **fields):
    return replace(parsec_cell(technique, "swa", 600, seed=7, pretrain_cycles=900),
                   **fields)


class TestKeyLaw:
    """A pre-training job is keyed on exactly what `pretrain_agents` reads:
    the deploy-only fields (`rl.time_step`, `rl.epsilon`) leave the key,
    everything else that trains stays in it."""

    @given(time_step=st.integers(1, 20_000), epsilon=st.floats(0.0, 1.0))
    def test_one_key_for_every_time_step_and_epsilon(self, time_step, epsilon):
        cell = deployed(INTELLINOC.with_rl(time_step=time_step, epsilon=epsilon))
        assert cell.pretraining == deployed().pretraining
        assert cell.pretraining.content_hash() == deployed().pretraining.content_hash()

    @pytest.mark.parametrize("cell", [
        deployed(INTELLINOC.with_rl(learning_rate=0.2)),
        deployed(INTELLINOC.with_rl(discount=0.5)),
        deployed(INTELLINOC.with_rl(reward_weights=(1.0, 0.0, 1.0))),
        deployed(seed=8),
        deployed(faults=FaultConfig(base_bit_error_rate=1e-6)),
        deployed(pretrain_cycles=1200),
    ], ids=["learning_rate", "discount", "reward_weights", "seed", "faults",
            "pretrain_cycles"])
    def test_the_key_moves_with_what_trains(self, cell):
        assert cell.pretraining.content_hash() != deployed().pretraining.content_hash()

    def test_deploy_only_fields_never_reach_the_artefact(self):
        """Trained from either technique, the master is the same bytes."""
        fast, tuned = small(INTELLINOC.with_rl(time_step=200, epsilon=0.5)), small(INTELLINOC)
        assert policy_to_bytes(pretrain_agents(fast, duration=900, seed=7)) == (
            policy_to_bytes(pretrain_agents(tuned, duration=900, seed=7))
        )

    def test_a_cell_deploys_the_shared_artefact_at_its_own_epsilon(self):
        technique = small(INTELLINOC.with_rl(time_step=200))
        cells = [deployed(technique.with_rl(epsilon=e)) for e in (0.0, 1.0)]
        assert cells[0].pretraining == cells[1].pretraining
        artefact = policy_to_bytes(pretrain(cells[0].pretraining))
        runs = []
        for cell in cells:
            policy = policy_from_bytes(artefact)
            runs.append(execute_cell(cell, policy).to_dict())
            assert {a.policy.epsilon for a in policy.agents} == {
                cell.technique.rl.epsilon
            }
        assert runs[0] != runs[1]


class TestRunsOnce:
    def test_cold_at_jobs_1_pretrains_once_before_its_cells(self, cold):
        report, events = cold
        assert (report.executed, report.pretrained) == (4, 1)
        (done,) = pretrainings(events)
        assert done.spec.label == "IntelliNoC/pretrain"
        starts = [e.spec.label for e in events if e.kind == "start"]
        assert starts[0] == "IntelliNoC/pretrain"
        assert [e.completed for e in events if e.kind == "done"] == [1, 2, 3, 4, 5]
        assert all(e.total == 5 for e in events)

    def test_cold_at_jobs_2_pretrains_once_and_is_bit_identical(self, cold):
        events = []
        report = CampaignEngine(
            executor=CellExecutor(jobs=2), progress=events.append
        ).run(grid())
        assert report.metrics == cold[0].metrics
        assert report.pretrained == 1 and len(pretrainings(events)) == 1
        # An RL cell starts only once the pre-training job is done.
        kinds = [(e.kind, e.spec.job, e.spec.technique.name) for e in events]
        trained = kinds.index(("done", "pretrain", "IntelliNoC"))
        assert all(
            i > trained for i, k in enumerate(kinds)
            if k == ("start", "cell", "IntelliNoC")
        )

    def test_a_warm_store_serves_the_policy_to_a_new_rl_cell(self, cold, tmp_path):
        store = ResultStore(tmp_path / "cache")
        first = CampaignEngine(store=store).run(grid())
        assert first.metrics == cold[0].metrics
        assert store.path_for(grid()[-1].pretraining).exists()

        events = []
        grown = grid(("swa", "x264s", "can"))
        report = CampaignEngine(store=store, progress=events.append).run(grown)
        assert (report.cache_hits, report.executed, report.pretrained) == (4, 2, 0)
        assert pretrainings(events) == []
        assert len(pretrainings(events, "cached")) == 1
        assert report.metrics[:2] + report.metrics[3:5] == cold[0].metrics
        # The new RL cell equals one whose policy was trained in this run.
        fresh = CampaignEngine().run([grown[-1]])
        assert report.metrics[-1] == fresh.metrics[0]

    def test_an_interrupted_journal_resumes_without_pretraining_again(
        self, cold, tmp_path
    ):
        store = ResultStore(tmp_path / "cache")
        flag = ShutdownFlag()

        def stop_after_pretraining(event):
            if event.kind == "done" and event.spec.job == "pretrain":
                flag.set("test-shutdown")

        with pytest.raises(CampaignInterrupted) as interrupted:
            CampaignEngine(
                store=store, cancel=flag, progress=stop_after_pretraining,
            ).run(grid())
        assert (interrupted.value.completed, interrupted.value.total) == (1, 5)
        assert store.get(grid()[-1].pretraining) is not None
        assert all(store.get(spec) is None for spec in grid())

        events = []
        report = CampaignEngine(store=store, progress=events.append).run(grid())
        assert (report.executed, report.pretrained) == (4, 0)
        assert len(pretrainings(events, "cached")) == 1
        assert report.metrics == cold[0].metrics


class TestFailure:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_failed_pretraining_stops_the_campaign_before_its_cells(
        self, jobs, tmp_path
    ):
        events = []
        store = ResultStore(tmp_path / "cache")
        with pytest.raises(CellExecutionError, match="doomed pre-training"):
            CampaignEngine(
                executor=CellExecutor(jobs=jobs, retries=0, fn=_doomed_pretraining),
                store=store, progress=events.append,
            ).run(grid())
        assert store.failure_path_for(grid()[-1].pretraining).exists()
        started = {e.spec.label for e in events if e.kind == "start"}
        assert not started & {"IntelliNoC/swa", "IntelliNoC/x264s"}


class TestStoredArtefact:
    def test_a_corrupt_artefact_is_a_miss_and_is_trained_again(self, cold, tmp_path):
        store = ResultStore(tmp_path / "cache")
        CampaignEngine(store=store).run(grid())
        job = grid()[-1].pretraining
        path = store.path_for(job)
        data = bytearray(path.read_bytes())
        data[-3] ^= 0xFF  # a flipped bit inside the last Q-value
        path.write_bytes(bytes(data))
        assert store.get(job) is None
        audit = store.audit()
        assert [(e.path, e.kind) for e in audit.corrupt] == [(path, "policy")]
        assert "digest" in audit.corrupt[0].problem

        for cell in grid()[2:]:
            store.path_for(cell).unlink()
        report = CampaignEngine(store=store).run(grid())
        assert (report.executed, report.pretrained) == (2, 1)
        assert report.metrics == cold[0].metrics
        assert store.audit().ok and store.get(job) is not None

    def test_prune_removes_a_corrupt_artefact(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        job = grid()[-1].pretraining
        store.put(job, {"policy": policy_to_bytes(pretrain(job))})
        assert store.audit().healthy == 1
        store.path_for(job).write_bytes(b"truncated")
        assert store.prune() == (1, 0, 0)
        assert not store.path_for(job).exists()
