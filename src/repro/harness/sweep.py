"""Parallel seeded-sweep engine with on-disk result caching.

Every paper artifact is an embarrassingly parallel sweep over seeds (or
over another scalar knob such as a deadline or a pipeline depth).  The
:class:`SweepRunner` fans the per-seed work out over a
``concurrent.futures.ProcessPoolExecutor`` and merges the results back
**in seed order**, so the merged output is bit-identical to a
sequential single-worker run — each seed
builds its own :class:`~repro.sim.World`, so per-seed results (including
trace fingerprints) do not depend on scheduling across seeds.

Results are cached on disk in a :class:`ResultStore`, one sqlite file
under ``.repro_cache/``, keyed by experiment name + parameters + seed +
a fingerprint of the ``repro`` source tree, so repeated CLI/benchmark
invocations skip already-computed seeds.  ``force=True`` recomputes and
overwrites; ``use_cache=False`` bypasses the cache entirely.  The sweep
service (:mod:`repro.service`) keeps its campaign results in the same
class.

Environment knobs:

``REPRO_WORKERS``
    Default worker count (else the CPUs actually *available*: scheduler
    affinity capped by the cgroup CPU quota).  ``1`` runs inline.
``REPRO_CACHE_DIR``
    Cache directory (default ``.repro_cache`` in the working directory).
``REPRO_NO_CACHE``
    Any non-empty value disables the cache by default.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import os
import pickle
import sqlite3
import sys
import tempfile
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.harness.runner import env_int
from repro.obs import fleet

__all__ = [
    "ResultStore",
    "SweepRunner",
    "SweepResult",
    "SeedOutcome",
    "SweepStats",
    "SweepError",
    "code_fingerprint",
    "driver_fingerprint",
    "default_workers",
]

DEFAULT_CACHE_DIR = ".repro_cache"


def _cgroup_cpu_quota(root: str | Path = "/sys/fs/cgroup") -> int | None:
    """CPU count implied by the cgroup CPU quota, or ``None``.

    CI containers routinely advertise the host's full core count via
    ``os.cpu_count()`` while the cgroup caps them to one or two CPUs of
    bandwidth; sizing a process pool off the host count oversubscribes
    the quota and thrashes.  Reads cgroup v2 ``cpu.max`` (``"<quota>
    <period>"`` or ``"max <period>"``) and falls back to the cgroup v1
    ``cpu.cfs_quota_us``/``cpu.cfs_period_us`` pair.
    """
    root = Path(root)
    try:
        parts = (root / "cpu.max").read_text().split()
        if parts and parts[0] != "max":
            quota = int(parts[0])
            period = int(parts[1]) if len(parts) > 1 else 100_000
            if quota > 0 and period > 0:
                return max(1, math.ceil(quota / period))
    except (OSError, ValueError):
        pass
    try:
        quota = int((root / "cpu" / "cpu.cfs_quota_us").read_text())
        period = int((root / "cpu" / "cpu.cfs_period_us").read_text())
        if quota > 0 and period > 0:
            return max(1, math.ceil(quota / period))
    except (OSError, ValueError):
        pass
    return None


def default_workers() -> int:
    """Worker count: ``REPRO_WORKERS``, else the *available* CPUs.

    "Available" respects what the platform actually grants this
    process: ``os.process_cpu_count()`` (Python 3.13+) or the scheduler
    affinity mask, further capped by the cgroup CPU quota
    (:func:`_cgroup_cpu_quota`) so containerized CI runs stop
    oversubscribing their bandwidth limit.
    """
    if os.environ.get("REPRO_WORKERS") is not None:
        return max(1, env_int("REPRO_WORKERS", 1))
    process_cpu_count = getattr(os, "process_cpu_count", None)
    if process_cpu_count is not None:
        available = process_cpu_count() or 1
    else:
        try:
            available = len(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            available = os.cpu_count() or 1
    quota = _cgroup_cpu_quota()
    if quota is not None:
        available = min(available, quota)
    return max(1, available)


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of the ``repro`` source tree (cache-invalidation key).

    Any change to the library invalidates previously cached sweep
    results, so a cache hit is always the result the current code would
    have produced.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def driver_fingerprint(experiment: Callable[..., Any]) -> str:
    """Hash of the module file *defining* the experiment callable.

    :func:`code_fingerprint` only covers the ``repro`` package, so a
    driver defined elsewhere — a benchmark script, a test module, a
    notebook export — could change without invalidating its cached
    results.  This hashes the defining module's source (unwrapping
    ``functools.partial`` layers first); drivers inside the ``repro``
    tree return ``""`` since the code fingerprint already covers them.
    """
    import repro

    while isinstance(experiment, partial):
        experiment = experiment.func
    module_name = getattr(experiment, "__module__", None)
    module = sys.modules.get(module_name) if module_name else None
    source = getattr(module, "__file__", None)
    if not source:
        return ""
    try:
        path = Path(source).resolve()
        root = Path(repro.__file__).resolve().parent
        if path.is_relative_to(root):
            return ""
        return hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    except OSError:
        return ""


# ---------------------------------------------------------------------------
# Result records.
# ---------------------------------------------------------------------------


@dataclass
class SeedOutcome:
    """One seed's outcome: a value, or a captured error."""

    seed: Any
    value: Any = None
    #: Formatted traceback if the seed failed; ``None`` on success.
    error: str | None = None
    #: Whether the value came from the on-disk cache.
    cached: bool = False
    #: Wall-clock compute time (0.0 for cache hits).
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


class SweepError(RuntimeError):
    """Raised by :meth:`SweepResult.values` when any seed failed."""

    def __init__(self, name: str, failures: Sequence[SeedOutcome]):
        self.name = name
        self.failures = list(failures)
        first = self.failures[0]
        super().__init__(
            f"sweep {name!r}: {len(self.failures)} seed(s) failed; "
            f"first failure (seed {first.seed!r}):\n{first.error}"
        )


@dataclass
class SweepResult:
    """All outcomes of one sweep, merged in seed order."""

    name: str
    outcomes: list[SeedOutcome]
    elapsed_s: float
    workers: int

    @property
    def failures(self) -> list[SeedOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    @property
    def cache_hits(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cached)

    def values(self) -> list[Any]:
        """Per-seed values in seed order; raises :class:`SweepError`
        if any seed failed (after the whole sweep completed)."""
        if self.failures:
            raise SweepError(self.name, self.failures)
        return [outcome.value for outcome in self.outcomes]


@dataclass
class SweepStats:
    """Throughput accounting accumulated across a runner's sweeps."""

    seeds: int = 0
    cache_hits: int = 0
    errors: int = 0
    elapsed_s: float = 0.0
    sweeps: int = 0
    workers: int = 0

    def record(self, result: SweepResult) -> None:
        self.sweeps += 1
        self.seeds += len(result.outcomes)
        self.cache_hits += result.cache_hits
        self.errors += len(result.failures)
        self.elapsed_s += result.elapsed_s
        self.workers = max(self.workers, result.workers)

    def summary_line(self) -> str:
        from repro.analysis.report import sweep_summary

        return sweep_summary(
            seeds=self.seeds,
            elapsed_s=self.elapsed_s,
            cache_hits=self.cache_hits,
            errors=self.errors,
            workers=self.workers,
        )


# ---------------------------------------------------------------------------
# The result store.
# ---------------------------------------------------------------------------


def _encode_value(value: Any) -> tuple[str, Any]:
    """Encode a result for a store record.

    Values that survive an exact JSON round-trip are stored as plain
    JSON; everything else (dataclasses, Counters, int-keyed dicts —
    which JSON would silently corrupt) is pickled and base64-wrapped.
    """
    try:
        text = json.dumps(value)
        if json.loads(text) == value:
            return "json", value
    except (TypeError, ValueError):
        pass
    blob = base64.b64encode(pickle.dumps(value)).decode("ascii")
    return "pickle", blob


def _decode_value(encoding: str, payload: Any) -> Any:
    if encoding == "json":
        return payload
    if encoding == "pickle":
        return pickle.loads(base64.b64decode(payload))
    raise ValueError(f"unknown cache encoding {encoding!r}")


def _jsonable_seed(seed: Any) -> Any:
    """A JSON-able form of a sweep item for keys and records."""
    if isinstance(seed, (bool, int, float, str)) or seed is None:
        return seed
    if isinstance(seed, (tuple, list)):
        return [_jsonable_seed(item) for item in seed]
    return repr(seed)


class ResultStore:
    """Content-addressed result records in one sqlite file.

    The sweep engine's cache and the sweep service's shared store are
    this one class.  Every record lives in one table of a WAL-mode
    database, ``<directory>/results.sqlite``, keyed by ``key``, and
    reads back as::

        {"key": ..., "seed": ..., "encoding": "json"|"pickle",
         "payload": ..., "code": <code fingerprint>}

    ``seed`` and ``payload`` are stored as JSON text.  Each write is one
    ``BEGIN IMMEDIATE`` transaction made durable before it returns
    (``PRAGMA synchronous=FULL``): a writer killed mid-batch leaves all
    of the batch or none of it, and concurrent writers wait on the busy
    timeout instead of failing.  ``INSERT OR REPLACE`` makes later
    writes win.  A row whose payload no longer decodes is a miss.

    Every call opens and closes its own connection, so one instance is
    safe across threads and no connection crosses a ``fork``.  The file
    is created by the first put; until then the store reads as empty.
    It is switched to WAL once, under a temporary name, and hard-linked
    into place, so racing creators never contend for the journal-mode
    switch, which does not wait on the busy timeout.  A file that is not
    a database raises rather than reading as empty.  WAL needs shared
    memory, so every process using one store must run on the same host.
    """

    FILENAME = "results.sqlite"
    #: seconds a writer waits for another writer's transaction.
    _BUSY_TIMEOUT_S = 60.0
    _SCHEMA = (
        "CREATE TABLE IF NOT EXISTS results (key TEXT PRIMARY KEY, "
        "seed TEXT, encoding TEXT NOT NULL, payload TEXT NOT NULL, code TEXT)"
    )
    #: keys per ``IN (...)`` lookup, below sqlite's bound-variable limit.
    _BATCH = 500

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.path = self.directory / self.FILENAME

    def _connect(self) -> sqlite3.Connection:
        return sqlite3.connect(
            self.path, timeout=self._BUSY_TIMEOUT_S, isolation_level=None
        )

    def _select(self, sql: str, params: Sequence = ()) -> list[tuple]:
        """Rows of a read query; a store never written has none."""
        if not self.path.exists():
            return []
        with closing(self._connect()) as db:
            try:
                return db.execute(sql, params).fetchall()
            except sqlite3.OperationalError as exc:
                # created by a writer that has not committed its table yet
                if "no such table" in str(exc):
                    return []
                raise

    # -- reading -------------------------------------------------------------

    def get(self, key: str) -> dict | None:
        """The record for *key*, or ``None``."""
        return self.get_many([key]).get(key)

    def get_many(self, keys: Iterable[str]) -> dict[str, dict]:
        """Records for *keys*; absent or undecodable keys are omitted."""
        keys = list(keys)
        found: dict[str, dict] = {}
        for start in range(0, len(keys), self._BATCH):
            batch = keys[start : start + self._BATCH]
            rows = self._select(
                "SELECT key, seed, encoding, payload, code FROM results "
                f"WHERE key IN ({','.join('?' * len(batch))})",
                batch,
            )
            for key, seed, encoding, payload, code in rows:
                try:
                    seed, payload = json.loads(seed), json.loads(payload)
                except (TypeError, ValueError):
                    continue  # a miss: the recompute replaces the row
                found[key] = {
                    "key": key,
                    "seed": seed,
                    "encoding": encoding,
                    "payload": payload,
                    "code": code,
                }
        f = fleet.ACTIVE
        if f.enabled:
            f.inc("fleet.result_store.gets", len(keys))
            f.inc("fleet.result_store.hits", len(found))
            f.inc("fleet.result_store.misses", len(keys) - len(found))
        return found

    def fetch(self, record: dict) -> Any:
        """Decode a record's payload (raises on a corrupt payload)."""
        return _decode_value(record["encoding"], record["payload"])

    def stats(self) -> dict:
        """``{"records": <rows in the store>}``."""
        rows = self._select("SELECT COUNT(*) FROM results")
        return {"records": rows[0][0] if rows else 0}

    # -- writing -------------------------------------------------------------

    def _create(self) -> None:
        """Build an empty WAL-mode store file, then link it into place.

        The first creator's link wins; a loser drops its copy.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, scratch = tempfile.mkstemp(
            dir=self.directory, prefix=".results-", suffix=".sqlite"
        )
        os.close(fd)
        try:
            with closing(sqlite3.connect(scratch, isolation_level=None)) as db:
                db.execute("PRAGMA journal_mode=WAL")
            os.link(scratch, self.path)
        except FileExistsError:
            pass
        finally:
            os.unlink(scratch)

    @staticmethod
    def make_record(key: str, seed: Any, value: Any) -> dict:
        encoding, payload = _encode_value(value)
        return {
            "key": key,
            "seed": seed,
            "encoding": encoding,
            "payload": payload,
            "code": code_fingerprint(),
        }

    def put(self, key: str, seed: Any, value: Any) -> dict:
        """Encode and store one result; returns the stored record."""
        record = self.make_record(key, seed, value)
        self.put_records([record])
        return record

    def put_records(self, records: Iterable[dict]) -> None:
        """Store pre-built records in one durable transaction.

        *records* is consumed inside the transaction; closing the
        connection before ``COMMIT`` (an exception, or the process dying)
        rolls the whole batch back.
        """
        rows = (
            (
                record["key"],
                json.dumps(record["seed"]),
                record["encoding"],
                json.dumps(record["payload"]),
                record.get("code"),
            )
            for record in records
        )
        if not self.path.exists():
            self._create()
        with closing(self._connect()) as db:
            db.execute("PRAGMA synchronous=FULL")
            db.execute("BEGIN IMMEDIATE")
            db.execute(self._SCHEMA)
            stored = db.executemany(
                "INSERT OR REPLACE INTO results VALUES (?, ?, ?, ?, ?)", rows
            ).rowcount
            db.execute("COMMIT")
        f = fleet.ACTIVE
        if f.enabled:
            f.inc("fleet.result_store.puts", stored)


# ---------------------------------------------------------------------------
# The runner.
# ---------------------------------------------------------------------------


def _call_experiment(
    experiment: Callable[[Any], Any], seed: Any
) -> tuple[Any, str | None, float]:
    """Run one seed, capturing any exception as a formatted traceback.

    Runs inside the worker process; never raises, so one bad seed
    cannot kill the sweep.
    """
    started = time.perf_counter()
    try:
        value = experiment(seed)
        return value, None, time.perf_counter() - started
    except Exception:
        return None, traceback.format_exc(), time.perf_counter() - started


class SweepRunner:
    """Fan an experiment out over seeds; merge results in seed order.

    The *experiment* callable must be picklable (a module-level
    function, or a :func:`functools.partial` of one with picklable
    arguments) because it crosses a process boundary.

    One runner can serve many sweeps; :attr:`stats` accumulates
    seeds/s, cache hits and errors across all of them for the CLI /
    benchmark summary line.
    """

    def __init__(
        self,
        workers: int | None = None,
        use_cache: bool | None = None,
        force: bool = False,
        cache_dir: str | Path | None = None,
    ):
        self.workers = workers if workers and workers > 0 else default_workers()
        if use_cache is None:
            use_cache = not os.environ.get("REPRO_NO_CACHE")
        self.use_cache = use_cache
        self.force = force
        directory = cache_dir or os.environ.get(
            "REPRO_CACHE_DIR", DEFAULT_CACHE_DIR
        )
        self.cache = ResultStore(directory)
        self.stats = SweepStats()

    # -- keying -------------------------------------------------------------

    def _key(self, name: str, params: dict, seed: Any, driver: str = "") -> str:
        material = json.dumps(
            {
                "experiment": name,
                "params": params,
                "seed": _jsonable_seed(seed),
                "code": code_fingerprint(),
                "driver": driver,
            },
            sort_keys=True,
            default=repr,
        )
        return hashlib.sha256(material.encode()).hexdigest()[:32]

    # -- execution ----------------------------------------------------------

    def run(
        self,
        experiment: Callable[[Any], Any],
        seeds: Iterable[Any],
        *,
        name: str,
        params: dict | None = None,
    ) -> SweepResult:
        """Run *experiment* for every seed; outcomes in seed order.

        A failed seed is captured as a :class:`SeedOutcome` with its
        traceback — the sweep always completes.  Call
        :meth:`SweepResult.values` to get plain values (raising a
        single aggregate :class:`SweepError` if anything failed).
        """
        seeds = list(seeds)
        params = dict(params or {})
        started = time.perf_counter()
        outcomes: list[SeedOutcome | None] = [None] * len(seeds)

        driver = driver_fingerprint(experiment)
        keys = [self._key(name, params, seed, driver) for seed in seeds]
        reuse = self.use_cache and not self.force
        known = self.cache.get_many(keys) if reuse else {}
        pending: list[int] = []
        for index, (seed, key) in enumerate(zip(seeds, keys)):
            record = known.get(key)
            if record is not None:
                try:
                    value = self.cache.fetch(record)
                except Exception:
                    pending.append(index)  # corrupt payload: recompute
                    continue
                outcomes[index] = SeedOutcome(seed, value, cached=True)
            else:
                pending.append(index)

        workers = min(self.workers, max(1, len(pending)))
        if pending:
            if workers <= 1:
                for index in pending:
                    value, error, elapsed = _call_experiment(
                        experiment, seeds[index]
                    )
                    outcomes[index] = SeedOutcome(
                        seeds[index], value, error, elapsed_s=elapsed
                    )
            else:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = {
                        index: pool.submit(
                            _call_experiment, experiment, seeds[index]
                        )
                        for index in pending
                    }
                    # Collect in submission (= seed) order: the merge is
                    # deterministic no matter which worker finishes first.
                    for index, future in futures.items():
                        try:
                            value, error, elapsed = future.result()
                        except Exception as exc:  # unpicklable result etc.
                            value, error, elapsed = (
                                None,
                                f"{type(exc).__name__}: {exc}",
                                0.0,
                            )
                        outcomes[index] = SeedOutcome(
                            seeds[index], value, error, elapsed_s=elapsed
                        )
            fresh = [
                self.cache.make_record(
                    keys[index], _jsonable_seed(seeds[index]), outcomes[index].value
                )
                for index in pending
                if self.use_cache and outcomes[index].ok
            ]
            if fresh:
                self.cache.put_records(fresh)

        result = SweepResult(
            name=name,
            outcomes=outcomes,  # type: ignore[arg-type]
            elapsed_s=time.perf_counter() - started,
            workers=workers,
        )
        self.stats.record(result)
        f = fleet.ACTIVE
        if f.enabled:
            f.inc("fleet.sweep.sweeps")
            f.inc("fleet.sweep.seeds", len(seeds))
            f.inc("fleet.sweep.cache_hits", result.cache_hits)
            for outcome in result.outcomes:
                if not outcome.cached:
                    f.observe(
                        "fleet.sweep.task_duration_ns",
                        outcome.elapsed_s * 1e9,
                    )
                if outcome.error is not None:
                    f.inc("fleet.sweep.errors")
        return result

    def map(
        self,
        experiment: Callable[[Any], Any],
        seeds: Iterable[Any],
        *,
        name: str,
        params: dict | None = None,
    ) -> list[Any]:
        """Shorthand: :meth:`run` then :meth:`SweepResult.values`."""
        return self.run(experiment, seeds, name=name, params=params).values()

    def run_forked(
        self,
        engine,
        items: Iterable[Any],
        job: Callable[[Any], tuple[str, Any, Callable[[Any], Any]]],
        *,
        name: str,
    ) -> SweepResult:
        """Run *items* through a :class:`repro.snapshot.SnapshotEngine`.

        *job(item)* returns ``(context, decisions, run)`` for
        :meth:`~repro.snapshot.SnapshotEngine.execute`.  Unlike
        :meth:`run`, the executions share one copy-on-write process
        tree, so they run sequentially in item order and bypass the
        result cache — the engine's shared-prefix forks replace both
        parallelism and caching as the speed lever.  Outcomes land in
        :attr:`stats` like any other sweep.
        """
        from repro.snapshot.engine import RemoteRunError

        items = list(items)
        started = time.perf_counter()
        outcomes: list[SeedOutcome] = []
        for item in items:
            context, decisions, run = job(item)
            item_started = time.perf_counter()
            try:
                value = engine.execute(context, decisions, run)
                error = None
            except RemoteRunError as exc:
                value, error = None, str(exc)
            except Exception:
                value, error = None, traceback.format_exc()
            outcomes.append(
                SeedOutcome(
                    item,
                    value,
                    error,
                    elapsed_s=time.perf_counter() - item_started,
                )
            )
        result = SweepResult(
            name=name,
            outcomes=outcomes,
            elapsed_s=time.perf_counter() - started,
            workers=1,
        )
        self.stats.record(result)
        return result

    def run_spec(self, spec, *, flows: bool = False) -> SweepResult:
        """Sweep a :class:`repro.harness.ScenarioSpec` over its seeds.

        The spec's full JSON form is the cache parameter set, so any
        change to the scenario, network, STP bounds or fault plan is a
        distinct cache entry.  *flows* runs every seed with causal flow
        capture (see :func:`~repro.harness.config.run_scenario_spec`)
        under the sweep name ``<spec name>-flows``, so flow results and
        plain results of the same spec never share a cache key.
        """
        from repro.harness.config import run_scenario_spec

        return self.run(
            partial(run_scenario_spec, spec=spec, flows=flows),
            spec.seeds,
            name=spec.sweep_name() + ("-flows" if flows else ""),
            params={"spec": spec.to_dict()},
        )
