"""``repro.obs`` — opt-in physical-time observability.

The logical :class:`~repro.reactors.telemetry.Trace` answers "*what*
happened, in which logical order" and deliberately excludes physical
time from its fingerprint.  This package answers the complementary
question — "*where does physical time go?*" — with three pieces:

* a structured **event bus** (:mod:`repro.obs.bus`): typed spans and
  instants on per-layer tracks (scheduler, reactors, DEAR, network),
  stamped with simulation time and wall time;
* a **metrics registry** (:mod:`repro.obs.metrics`): counters, gauges
  and fixed-bucket histograms for reaction lag, deadline slack,
  safe-to-process waits, mutex hold times, queue depths and drops —
  exactly mergeable across sweep seeds;
* **exporters** (:mod:`repro.obs.export`): Chrome/Perfetto
  ``trace_event`` JSON for timeline viewing and a ``metrics.json``
  snapshot for regression tooling.

Everything is off by default and guarded by a single flag check per
site (:mod:`repro.obs.context`), and recording never draws randomness
or influences scheduling — enabling full observability leaves every
logical trace fingerprint byte-identical.

Quick use::

    from repro import obs
    from repro.apps.brake.det import run_det_brake_assistant

    with obs.capture() as observation:
        run_det_brake_assistant(seed=0)
    obs.write_trace(observation, "trace.json")      # open in Perfetto
    obs.write_metrics(observation, "metrics.json")

Seeded experiments get the same capture through their
:class:`~repro.harness.ScenarioSpec`: ``observe=True`` attaches each
seed's metrics snapshot to its result, and
:func:`repro.harness.config.observe_spec` runs one seed and returns the
observation itself — which is what ``repro trace det --trace-out
trace.json`` does from a shell.
"""

from repro.obs.bus import (
    Event,
    EventBus,
    TRACK_DEAR,
    TRACK_NETWORK,
    TRACK_REACTORS,
    TRACK_SCHEDULER,
)
from repro.obs import fleet
from repro.obs.context import Observation, NullObservation, active, capture
from repro.obs.export import (
    metrics_document,
    trace_events,
    validate_trace_data,
    write_metrics,
    write_trace,
)
from repro.obs.flows import (
    FlowRecord,
    FlowRegistry,
    Hop,
    attribute_drop,
    flow_id_of,
    flow_report,
    merge_flow_reports,
    validate_flow_report,
)
from repro.obs.metrics import (
    Counter,
    DEFAULT_TIME_BUCKETS_NS,
    DEPTH_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    aggregate_snapshots,
    labeled,
    parse_labeled,
    percentile,
)

from repro.obs.fleet import (
    FleetTelemetry,
    fleet_capture,
    fleet_trace_events,
    prometheus_text,
    validate_prometheus_text,
    write_fleet_trace,
)

__all__ = [
    "Event",
    "EventBus",
    "fleet",
    "FleetTelemetry",
    "fleet_capture",
    "fleet_trace_events",
    "prometheus_text",
    "validate_prometheus_text",
    "write_fleet_trace",
    "TRACK_SCHEDULER",
    "TRACK_REACTORS",
    "TRACK_DEAR",
    "TRACK_NETWORK",
    "Observation",
    "NullObservation",
    "active",
    "capture",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS_NS",
    "DEPTH_BUCKETS",
    "aggregate_snapshots",
    "labeled",
    "parse_labeled",
    "percentile",
    "trace_events",
    "write_trace",
    "metrics_document",
    "write_metrics",
    "validate_trace_data",
    "FlowRegistry",
    "FlowRecord",
    "Hop",
    "attribute_drop",
    "flow_id_of",
    "flow_report",
    "merge_flow_reports",
    "validate_flow_report",
]
