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
under ``.repro_cache/``, so repeated CLI/benchmark invocations skip
already-computed seeds.  A seed of a :class:`~repro.harness.ScenarioSpec`
is keyed by :func:`spec_record_key`: the spec's content (its dict minus
``seeds`` and ``label``) + the seed + a fingerprint of the ``repro``
source tree.  Any other sweep is keyed by experiment name + parameters +
seed + the code and driver fingerprints.  ``force=True`` recomputes and
overwrites; ``use_cache=False`` bypasses the cache entirely.  The sweep
service (:mod:`repro.service`) keeps its campaign results in the same
class under the same spec keys, and ``repro serve`` defaults to the same
directory, so the CLI and the service share one store.

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
    "resolve_cache_dir",
    "spec_record_key",
    "spec_record_keys",
]

DEFAULT_CACHE_DIR = ".repro_cache"


def resolve_cache_dir(explicit: str | Path | None = None) -> str | Path:
    """The result store's directory: *explicit*, else ``REPRO_CACHE_DIR``,
    else :data:`DEFAULT_CACHE_DIR`.

    The sweep cache and ``repro serve``'s default store both resolve
    here, so they are one directory.
    """
    return explicit or os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)


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


#: Fields of a spec dict that name rather than parameterize the
#: experiment; excluded from content addressing.
_NON_CONTENT_FIELDS = ("seeds", "label")


def spec_record_keys(
    spec: Any, seeds: Iterable[Any], *, flows: bool = False
) -> list[str]:
    """Content keys of *seeds*' results under *spec*, in seed order.

    *spec* is a :class:`~repro.harness.ScenarioSpec` or its ``to_dict()``
    form, hashed once for all seeds.  ``seeds`` and ``label`` are
    excluded, so a key depends only on what is computed — app, variant,
    scenario, network, topology, STP bounds, observation, fault plan —
    plus the seed and :func:`code_fingerprint`: two sweeps or campaigns
    that ask the same question share results however their seed lists
    are chunked, grown or named.  *flows* (a run with causal flow
    capture, see :meth:`SweepRunner.run_spec`) keys a distinct result.
    """
    data = spec.to_dict() if hasattr(spec, "to_dict") else dict(spec)
    content = {
        name: value
        for name, value in data.items()
        if name not in _NON_CONTENT_FIELDS
    }
    if flows:
        content["flows"] = True
    base = hashlib.sha256(
        json.dumps(
            {"spec": content, "code": code_fingerprint()},
            sort_keys=True,
            default=repr,
        ).encode()
    )
    keys = []
    for seed in seeds:
        digest = base.copy()
        digest.update(json.dumps(_jsonable_seed(seed)).encode())
        keys.append(digest.hexdigest()[:32])
    return keys


def spec_record_key(spec: Any, seed: Any) -> str:
    """Content key of one seed's result (see :func:`spec_record_keys`)."""
    return spec_record_keys(spec, (seed,))[0]


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
        self.cache = ResultStore(resolve_cache_dir(cache_dir))
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
        keys: Sequence[str] | None = None,
    ) -> SweepResult:
        """Run *experiment* for every seed; outcomes in seed order.

        A failed seed is captured as a :class:`SeedOutcome` with its
        traceback — the sweep always completes.  Call
        :meth:`SweepResult.values` to get plain values (raising a
        single aggregate :class:`SweepError` if anything failed).

        Each seed's result is stored under ``keys[i]`` when *keys* is
        given (:meth:`run_spec` passes content keys), else under a hash
        of *name*, *params*, the seed and the code and driver
        fingerprints.
        """
        seeds = list(seeds)
        started = time.perf_counter()
        outcomes: list[SeedOutcome | None] = [None] * len(seeds)

        if keys is None:
            params = dict(params or {})
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

    def run_spec(self, spec, *, flows: bool = False) -> SweepResult:
        """Sweep a :class:`repro.harness.ScenarioSpec` over its seeds.

        Seed *s* is stored under ``spec_record_key(spec, s)``, the
        sweep service's key, so a seed computed here is a store hit for
        a campaign of the same spec and the reverse, and growing or
        relabelling the seed list keeps the old seeds' results.  *flows*
        runs every seed with causal flow capture (see
        :func:`~repro.harness.config.run_scenario_spec`) under its own
        keys and the sweep name ``<spec name>-flows``.
        """
        from repro.harness.config import run_scenario_spec

        return self.run(
            partial(run_scenario_spec, spec=spec, flows=flows),
            spec.seeds,
            name=spec.sweep_name() + ("-flows" if flows else ""),
            keys=spec_record_keys(spec, spec.seeds, flows=flows),
        )
