"""Tests for the parallel sweep engine and its on-disk result cache."""

import multiprocessing
import os
import signal
import sqlite3
import time
from collections import Counter
from contextlib import closing
from functools import partial

import pytest

from repro.apps.brake import BrakeScenario, run_det_brake_assistant
from repro.harness import (
    SweepError,
    SweepRunner,
    code_fingerprint,
    driver_fingerprint,
)
from repro.harness.sweep import (
    ResultStore,
    _cgroup_cpu_quota,
    _decode_value,
    _encode_value,
    default_workers,
)


def _double(seed):
    return seed * 2


def _fail_on_odd(seed):
    if seed % 2:
        raise ValueError(f"seed {seed} is odd")
    return seed


class TestSweepRunner:
    def test_merges_in_seed_order(self, tmp_path):
        runner = SweepRunner(workers=4, use_cache=False, cache_dir=tmp_path)
        assert runner.map(_double, [5, 1, 3], name="t") == [10, 2, 6]

    def test_matches_sequential_map(self, tmp_path):
        """workers=4 must be bit-identical to the sequential path —
        per-seed results *and* trace fingerprints."""
        scenario = BrakeScenario(n_frames=80, deterministic_camera=True)
        experiment = partial(run_det_brake_assistant, scenario=scenario)
        sequential = SweepRunner(
            workers=1, use_cache=False, cache_dir=tmp_path
        ).map(experiment, range(3), name="det-seq")
        parallel = SweepRunner(
            workers=4, use_cache=False, cache_dir=tmp_path
        ).map(experiment, range(3), name="det")
        assert parallel == sequential  # dataclass eq: every field
        for seq_run, par_run in zip(sequential, parallel):
            assert par_run.trace_fingerprints == seq_run.trace_fingerprints
            assert par_run.commands == seq_run.commands

    def test_error_capture_does_not_kill_sweep(self, tmp_path):
        runner = SweepRunner(workers=2, use_cache=False, cache_dir=tmp_path)
        result = runner.run(_fail_on_odd, range(4), name="t")
        assert len(result.outcomes) == 4  # the sweep completed
        assert [outcome.ok for outcome in result.outcomes] == [
            True, False, True, False,
        ]
        assert result.outcomes[0].value == 0
        assert "seed 1 is odd" in result.outcomes[1].error
        with pytest.raises(SweepError, match="2 seed"):
            result.values()

    def test_failed_seeds_are_not_cached(self, tmp_path):
        runner = SweepRunner(workers=1, cache_dir=tmp_path)
        runner.run(_fail_on_odd, range(4), name="t")
        rerun = SweepRunner(workers=1, cache_dir=tmp_path).run(
            _fail_on_odd, range(4), name="t"
        )
        assert rerun.cache_hits == 2  # only the successes

    def test_stats_accumulate(self, tmp_path):
        runner = SweepRunner(workers=1, use_cache=False, cache_dir=tmp_path)
        runner.run(_double, range(3), name="a")
        runner.run(_double, range(2), name="b")
        assert runner.stats.sweeps == 2
        assert runner.stats.seeds == 5
        assert "5 seeds" in runner.stats.summary_line()


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cold = SweepRunner(workers=1, cache_dir=tmp_path)
        first = cold.run(_double, range(4), name="exp")
        assert first.cache_hits == 0
        warm = SweepRunner(workers=1, cache_dir=tmp_path)
        second = warm.run(_double, range(4), name="exp")
        assert second.cache_hits == 4
        assert second.values() == first.values()

    def test_partial_hit(self, tmp_path):
        SweepRunner(workers=1, cache_dir=tmp_path).run(
            _double, range(2), name="exp"
        )
        result = SweepRunner(workers=1, cache_dir=tmp_path).run(
            _double, range(4), name="exp"
        )
        assert result.cache_hits == 2
        assert result.values() == [0, 2, 4, 6]

    def test_force_recomputes(self, tmp_path):
        SweepRunner(workers=1, cache_dir=tmp_path).run(
            _double, range(3), name="exp"
        )
        forced = SweepRunner(workers=1, cache_dir=tmp_path, force=True).run(
            _double, range(3), name="exp"
        )
        assert forced.cache_hits == 0
        assert forced.values() == [0, 2, 4]
        # ...and the forced results land back in the cache.
        after = SweepRunner(workers=1, cache_dir=tmp_path).run(
            _double, range(3), name="exp"
        )
        assert after.cache_hits == 3

    def test_no_cache_writes_nothing(self, tmp_path):
        SweepRunner(workers=1, use_cache=False, cache_dir=tmp_path).run(
            _double, range(3), name="exp"
        )
        assert list(tmp_path.iterdir()) == []

    def test_params_partition_the_key_space(self, tmp_path):
        SweepRunner(workers=1, cache_dir=tmp_path).run(
            _double, range(3), name="exp", params={"frames": 100}
        )
        other = SweepRunner(workers=1, cache_dir=tmp_path).run(
            _double, range(3), name="exp", params={"frames": 200}
        )
        assert other.cache_hits == 0

    def test_corrupt_lines_are_misses(self, tmp_path):
        SweepRunner(workers=1, cache_dir=tmp_path).run(
            _double, range(2), name="exp"
        )
        with closing(sqlite3.connect(tmp_path / ResultStore.FILENAME)) as db:
            db.execute(
                "UPDATE results SET payload = 'not json' WHERE seed = '1'"
            )
            db.commit()
        result = SweepRunner(workers=1, cache_dir=tmp_path).run(
            _double, range(2), name="exp"
        )
        assert result.cache_hits == 1  # the valid record survives the junk
        assert result.values() == [0, 2]
        # ...and the recompute overwrote the undecodable row.
        again = SweepRunner(workers=1, cache_dir=tmp_path).run(
            _double, range(2), name="exp"
        )
        assert again.cache_hits == 2

    def test_payload_encoding_round_trips(self):
        for value in (
            7,
            [1, 2, 3],
            {"a": 1},
            (1, 2),                       # tuple: JSON would flatten to list
            {3: "x"},                     # int keys: JSON would stringify
            Counter({"a": 2}),
        ):
            encoding, payload = _encode_value(value)
            decoded = _decode_value(encoding, payload)
            assert decoded == value
            assert type(decoded) is type(value)

    def test_code_fingerprint_is_stable(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 16


class TestFlowSweepCache:
    SPEC_FRAMES = 8

    def _spec(self):
        from repro.harness import ScenarioSpec

        return ScenarioSpec(
            seeds=(0, 1), scenario=BrakeScenario(n_frames=self.SPEC_FRAMES)
        )

    def test_flow_sweep_never_reuses_plain_results(self, tmp_path):
        spec = self._spec()
        sweep = SweepRunner(workers=1, use_cache=True, cache_dir=tmp_path)
        plain = sweep.run_spec(spec)
        flowed = sweep.run_spec(spec, flows=True)
        assert plain.cache_hits == 0
        assert flowed.cache_hits == 0
        assert all("flows" not in (run.fault_summary or {}) for run in plain.values())
        assert all("flows" in run.fault_summary for run in flowed.values())

    def test_each_kind_hits_its_own_entries(self, tmp_path):
        spec = self._spec()
        SweepRunner(workers=1, use_cache=True, cache_dir=tmp_path).run_spec(
            spec, flows=True
        )
        warm = SweepRunner(workers=1, use_cache=True, cache_dir=tmp_path)
        plain = warm.run_spec(spec)
        assert plain.cache_hits == 0
        flowed = warm.run_spec(spec, flows=True)
        assert flowed.cache_hits == 2
        assert all("flows" in run.fault_summary for run in flowed.values())

    def test_repeated_flows_command_is_all_cache_hits(self, tmp_path, monkeypatch):
        import repro.cli as cli

        sweeps = []
        make_sweep = cli._make_sweep

        def recording(args):
            sweeps.append(make_sweep(args))
            return sweeps[-1]

        monkeypatch.setattr(cli, "_make_sweep", recording)
        argv = [
            "flows", "--seeds", "2", "--frames", str(self.SPEC_FRAMES),
            "--workers", "1", "--cache-dir", str(tmp_path),
        ]
        assert cli.main(argv) == 0
        assert cli.main(argv) == 0
        first, second = (sweep.stats for sweep in sweeps)
        assert first.cache_hits == 0
        assert second.seeds == 4
        assert second.cache_hits == second.seeds


class TestSpecResultKeys:
    """Every spec result is keyed by ``spec_record_key``."""

    def _spec(self, seeds=range(4), label=""):
        from repro.harness import ScenarioSpec

        return ScenarioSpec(
            seeds=tuple(seeds), scenario=BrakeScenario(n_frames=8), label=label
        )

    def test_growing_the_seed_list_keeps_the_old_seeds(self, tmp_path):
        sweep = SweepRunner(workers=1, cache_dir=tmp_path)
        assert sweep.run_spec(self._spec(range(4))).cache_hits == 0
        grown = sweep.run_spec(self._spec(range(6)))
        assert [o.cached for o in grown.outcomes] == [True] * 4 + [False] * 2
        assert ResultStore(tmp_path).stats()["records"] == 6

    def test_relabelling_keeps_the_results(self, tmp_path):
        sweep = SweepRunner(workers=1, cache_dir=tmp_path)
        sweep.run_spec(self._spec())
        assert sweep.run_spec(self._spec(label="renamed")).cache_hits == 4

    def test_sweep_results_are_campaign_store_hits(self, tmp_path):
        from repro.service import Coordinator

        spec = self._spec()
        SweepRunner(workers=1, cache_dir=tmp_path).run_spec(spec)
        status = Coordinator(ResultStore(tmp_path)).submit(spec)
        assert status["cached"] == len(spec.seeds)
        assert status["jobs"] == 0

    def test_campaign_results_are_sweep_cache_hits(self, tmp_path):
        from repro.service import Coordinator, Worker, merged_values

        spec = self._spec()
        coordinator = Coordinator(ResultStore(tmp_path))
        status = coordinator.submit(spec)
        assert status["cached"] == 0
        Worker(coordinator, poll_interval_s=0.01).run(max_jobs=status["jobs"])
        served = merged_values(coordinator.result(status["campaign"]))
        local = SweepRunner(workers=1, cache_dir=tmp_path).run_spec(spec)
        assert local.cache_hits == len(spec.seeds)
        assert local.values() == served


def _load_external_driver(path):
    import importlib.util
    import sys

    spec = importlib.util.spec_from_file_location("ext_sweep_driver", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["ext_sweep_driver"] = module
    spec.loader.exec_module(module)
    return module


class TestDriverFingerprint:
    """The cache key also hashes the module defining the experiment."""

    def test_repro_internal_driver_is_covered_by_code_fingerprint(self):
        assert driver_fingerprint(run_det_brake_assistant) == ""
        assert driver_fingerprint(partial(run_det_brake_assistant)) == ""

    def test_external_driver_change_invalidates_cache(self, tmp_path):
        driver_file = tmp_path / "ext_sweep_driver.py"
        driver_file.write_text("def drive(seed):\n    return seed * 2\n")
        module = _load_external_driver(driver_file)
        first = driver_fingerprint(module.drive)
        assert first != ""

        runner = SweepRunner(workers=1, cache_dir=tmp_path / "cache")
        runner.run(module.drive, range(3), name="ext")

        # Same driver source: full cache hit.
        rerun = SweepRunner(workers=1, cache_dir=tmp_path / "cache").run(
            module.drive, range(3), name="ext"
        )
        assert rerun.cache_hits == 3

        # Edited driver source: fingerprint changes, cache misses.
        driver_file.write_text("def drive(seed):\n    return seed * 3\n")
        module = _load_external_driver(driver_file)
        assert driver_fingerprint(module.drive) != first
        edited = SweepRunner(workers=1, cache_dir=tmp_path / "cache").run(
            module.drive, range(3), name="ext"
        )
        assert edited.cache_hits == 0
        assert edited.values() == [0, 3, 6]

    def test_partial_layers_are_unwrapped(self, tmp_path):
        driver_file = tmp_path / "ext_sweep_driver.py"
        driver_file.write_text("def drive(seed, scale=1):\n    return seed * scale\n")
        module = _load_external_driver(driver_file)
        direct = driver_fingerprint(module.drive)
        wrapped = driver_fingerprint(partial(partial(module.drive, scale=2)))
        assert direct == wrapped != ""


def _cache_hammer(args):
    directory, writer, count = args
    store = ResultStore(directory)
    for index in range(count):
        store.put(f"w{writer}-{index}", index, [writer, index])
    return writer


def _killed_sweep_writer(directory, keys, ready):
    """Store seeds 3..5 in a large batch; hang before it commits."""
    store = ResultStore(directory)

    def records():
        for seed, key in zip(range(3, 6), keys):
            yield store.make_record(key, seed, seed * 2)
        for index in range(100_000):
            if index == 2_000:
                ready.set()
                time.sleep(120)
            yield store.make_record(f"filler-{index}", index, "x" * 4096)

    store.put_records(records())


class TestResultCacheCrashSafety:
    """Regression tests for concurrent and crashed writers."""

    def test_sweep_recomputes_past_a_crashed_writer(self, tmp_path):
        """End to end: a writer killed mid-batch costs a recompute."""
        runner = SweepRunner(workers=1, cache_dir=tmp_path)
        runner.run(_double, range(3), name="exp")
        driver = driver_fingerprint(_double)
        keys = [runner._key("exp", {}, seed, driver) for seed in range(3, 6)]
        context = multiprocessing.get_context("spawn")
        ready = context.Event()
        child = context.Process(
            target=_killed_sweep_writer, args=(tmp_path, keys, ready)
        )
        child.start()
        try:
            assert ready.wait(60), "writer never reached its transaction"
        finally:
            os.kill(child.pid, signal.SIGKILL)
            child.join(timeout=60)
        assert child.exitcode == -signal.SIGKILL
        result = SweepRunner(workers=1, cache_dir=tmp_path).run(
            _double, range(6), name="exp"
        )
        assert result.cache_hits == 3
        assert result.values() == [0, 2, 4, 6, 8, 10]
        rerun = SweepRunner(workers=1, cache_dir=tmp_path).run(
            _double, range(6), name="exp"
        )
        assert rerun.cache_hits == 6

    def test_parallel_process_appends_never_interleave(self, tmp_path):
        writers, per_writer = 4, 20
        with multiprocessing.Pool(writers) as pool:
            pool.map(
                _cache_hammer,
                [(str(tmp_path), w, per_writer) for w in range(writers)],
            )
        store = ResultStore(tmp_path)
        keys = [f"w{w}-{i}" for w in range(writers) for i in range(per_writer)]
        records = store.get_many(keys)
        assert len(records) == writers * per_writer
        for writer in range(writers):
            for index in range(per_writer):
                assert records[f"w{writer}-{index}"]["payload"] == [writer, index]


class TestDefaultWorkers:
    def test_repro_workers_env_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert default_workers() == 7

    def test_repro_workers_env_is_clamped(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert default_workers() == 1

    def test_cgroup_v2_quota(self, tmp_path):
        (tmp_path / "cpu.max").write_text("200000 100000\n")
        assert _cgroup_cpu_quota(tmp_path) == 2

    def test_cgroup_v2_fractional_quota_rounds_up(self, tmp_path):
        (tmp_path / "cpu.max").write_text("150000 100000\n")
        assert _cgroup_cpu_quota(tmp_path) == 2

    def test_cgroup_v2_unlimited(self, tmp_path):
        (tmp_path / "cpu.max").write_text("max 100000\n")
        assert _cgroup_cpu_quota(tmp_path) is None

    def test_cgroup_v1_quota(self, tmp_path):
        (tmp_path / "cpu").mkdir()
        (tmp_path / "cpu" / "cpu.cfs_quota_us").write_text("250000\n")
        (tmp_path / "cpu" / "cpu.cfs_period_us").write_text("100000\n")
        assert _cgroup_cpu_quota(tmp_path) == 3

    def test_cgroup_v1_unlimited(self, tmp_path):
        (tmp_path / "cpu").mkdir()
        (tmp_path / "cpu" / "cpu.cfs_quota_us").write_text("-1\n")
        (tmp_path / "cpu" / "cpu.cfs_period_us").write_text("100000\n")
        assert _cgroup_cpu_quota(tmp_path) is None

    def test_no_cgroup_files(self, tmp_path):
        assert _cgroup_cpu_quota(tmp_path) is None

    def test_quota_caps_the_pool(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setattr("repro.harness.sweep._cgroup_cpu_quota", lambda: 1)
        assert default_workers() == 1

    def test_generous_quota_does_not_inflate(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setattr("repro.harness.sweep._cgroup_cpu_quota", lambda: 4096)
        assert default_workers() <= (os.cpu_count() or 1)
