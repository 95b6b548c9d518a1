"""Tests for the shared content-addressed result store."""

import multiprocessing
import os
import signal
import sqlite3
import sys
import threading
import time
from contextlib import closing

import pytest

from repro.apps.brake.scenario import BrakeScenario
from repro.harness import ScenarioSpec
from repro.service import ResultStore, spec_record_key
from repro.faults import FaultPlan


def _spec(**kwargs):
    defaults = dict(
        variant="det",
        seeds=(0, 1, 2),
        scenario=BrakeScenario(n_frames=40),
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


class TestContentAddressing:
    def test_key_ignores_seed_list_and_label(self):
        """Chunking/naming a campaign differently must share results."""
        a = _spec(seeds=(0, 1, 2, 3), label="campaign-a")
        b = _spec(seeds=(2,), label="renamed")
        assert spec_record_key(a, 2) == spec_record_key(b, 2)

    def test_key_depends_on_seed(self):
        spec = _spec()
        assert spec_record_key(spec, 0) != spec_record_key(spec, 1)

    def test_key_depends_on_scientific_content(self):
        base = _spec()
        assert spec_record_key(base, 0) != spec_record_key(
            _spec(variant="nondet"), 0
        )
        assert spec_record_key(base, 0) != spec_record_key(
            _spec(scenario=BrakeScenario(n_frames=41)), 0
        )
        faulted = _spec(faults=FaultPlan.camera_faults(seed=1, drop=0.1))
        assert spec_record_key(base, 0) != spec_record_key(faulted, 0)

    def test_accepts_spec_dict(self):
        spec = _spec()
        assert spec_record_key(spec.to_dict(), 0) == spec_record_key(spec, 0)


class TestRoundTrip:
    def test_json_and_pickle_values(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("a" * 32, 0, {"plain": [1, 2, 3]})
        store.put("b" * 32, 1, {1: "int-keyed dicts need pickling"})
        assert store.fetch(store.get("a" * 32)) == {"plain": [1, 2, 3]}
        assert store.fetch(store.get("b" * 32)) == {
            1: "int-keyed dicts need pickling"
        }
        assert store.get("c" * 32) is None

    def test_later_records_shadow_earlier(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("a" * 32, 0, "stale")
        store.put("a" * 32, 0, "fresh")
        assert store.fetch(store.get("a" * 32)) == "fresh"

    def test_get_many_spans_shards(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = [f"{i:02x}" + "0" * 30 for i in range(8)]
        for index, key in enumerate(keys):
            store.put(key, index, index * 10)
        found = store.get_many(keys + ["ff" + "1" * 30])
        assert sorted(found) == sorted(keys)
        assert store.fetch(found[keys[3]]) == 30


def _hammer(args):
    directory, writer, count = args
    store = ResultStore(directory)
    for index in range(count):
        # one store on purpose: all writers contend for one file.
        store.put(f"aa{writer:02d}{index:04d}" + "0" * 24, index, [writer, index])
    return writer


def _integrity(directory):
    with closing(sqlite3.connect(directory / ResultStore.FILENAME)) as db:
        return db.execute("PRAGMA integrity_check").fetchone()[0]


class TestConcurrentWriters:
    def test_parallel_process_appends_never_interleave(self, tmp_path):
        """4 processes × 25 puts into one store: every record intact."""
        writers = 4
        per_writer = 25
        with multiprocessing.Pool(writers) as pool:
            pool.map(
                _hammer,
                [(str(tmp_path), writer, per_writer) for writer in range(writers)],
            )
        store = ResultStore(tmp_path)
        stats = store.stats()
        assert stats["records"] == writers * per_writer
        assert _integrity(tmp_path) == "ok"
        for writer in range(writers):
            for index in range(per_writer):
                key = f"aa{writer:02d}{index:04d}" + "0" * 24
                assert store.fetch(store.get(key)) == [writer, index]

    def test_threads_share_one_instance(self, tmp_path):
        """8 threads interleave get_many/put_records on one instance."""
        store = ResultStore(tmp_path)
        threads, per_thread = 8, 15
        errors = []
        interval = sys.getswitchinterval()

        def work(thread):
            try:
                for index in range(per_thread):
                    key = f"t{thread}-{index}"
                    neighbour = f"t{(thread + 1) % threads}-{index}"
                    store.put_records([store.make_record(key, index, [thread, index])])
                    found = store.get_many([key, neighbour])
                    assert store.fetch(found[key]) == [thread, index]
                    if neighbour in found:
                        assert store.fetch(found[neighbour])[1] == index
            except Exception as exc:  # surfaced by the main thread
                errors.append(exc)

        workers = [
            threading.Thread(target=work, args=(thread,))
            for thread in range(threads)
        ]
        sys.setswitchinterval(1e-5)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        expected = {
            f"t{thread}-{index}": [thread, index]
            for thread in range(threads)
            for index in range(per_thread)
        }
        found = store.get_many(expected)
        assert {key: store.fetch(found[key]) for key in found} == expected


def _killed_writer(directory, ready):
    """Start a large batch, then hang inside its transaction."""
    store = ResultStore(directory)

    def records():
        for index in range(100_000):
            if index == 2_000:  # ~8 MB written: pages spilled to the WAL
                ready.set()
                time.sleep(120)
            yield store.make_record(f"bb{index:030d}", index, "x" * 4096)

    store.put_records(records())


class TestCrashTolerance:
    def test_append_after_crash_repairs_the_tail(self, tmp_path):
        """SIGKILL inside a put_records transaction loses that batch only.

        The killed writer leaves uncommitted frames at the tail of the
        write-ahead log; the next connection discards them, so earlier
        records survive, the batch is entirely absent and puts go on.
        """
        store = ResultStore(tmp_path)
        store.put("aa" + "0" * 30, 0, "committed")
        context = multiprocessing.get_context("spawn")
        ready = context.Event()
        child = context.Process(target=_killed_writer, args=(tmp_path, ready))
        child.start()
        try:
            assert ready.wait(60), "writer never reached its transaction"
            wal = tmp_path / (ResultStore.FILENAME + "-wal")
            assert wal.stat().st_size > 1 << 20  # the batch reached disk
        finally:
            os.kill(child.pid, signal.SIGKILL)
            child.join(timeout=60)
        assert child.exitcode == -signal.SIGKILL
        assert _integrity(tmp_path) == "ok"
        assert store.stats()["records"] == 1
        assert store.fetch(store.get("aa" + "0" * 30)) == "committed"
        assert store.get_many(f"bb{i:030d}" for i in range(2_000)) == {}
        store.put("aa" + "1" * 30, 1, "after")
        assert store.fetch(store.get("aa" + "1" * 30)) == "after"
        assert store.stats()["records"] == 2

    def test_undecodable_payload_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("aa" + "0" * 30, 0, "good")
        store.put("aa" + "1" * 30, 1, "damaged")
        with closing(sqlite3.connect(tmp_path / ResultStore.FILENAME)) as db:
            db.execute(
                "UPDATE results SET payload = '{\"torn' WHERE key = ?",
                ("aa" + "1" * 30,),
            )
            db.commit()
        assert set(store.get_many(["aa" + "0" * 30, "aa" + "1" * 30])) == {
            "aa" + "0" * 30
        }
        store.put("aa" + "1" * 30, 1, "recomputed")  # the miss is replaced
        assert store.fetch(store.get("aa" + "1" * 30)) == "recomputed"

    def test_file_that_is_not_a_database_raises(self, tmp_path):
        (tmp_path / ResultStore.FILENAME).write_bytes(b"not a database\n" * 64)
        store = ResultStore(tmp_path)
        with pytest.raises(sqlite3.DatabaseError):
            store.get("aa" + "0" * 30)
        with pytest.raises(sqlite3.DatabaseError):
            store.put("aa" + "0" * 30, 0, "value")

    def test_reads_create_no_file(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.get("aa" + "0" * 30) is None
        assert store.stats() == {"records": 0}
        assert not (tmp_path / "store").exists()
