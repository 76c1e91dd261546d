// Per-host telemetry bundle: metrics registry, timeline span tracer,
// latency attribution ledger, and per-flow accounting table.
#pragma once

#include "telemetry/anomaly.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/flow_table.h"
#include "telemetry/latency.h"
#include "telemetry/metrics.h"
#include "telemetry/span_tracer.h"

namespace prism::telemetry {

/// Everything one Host's instrumentation binds to. The registry is always
/// live (counters are near-free); the tracer only receives spans while a
/// component has it attached. The latency ledger and flow table record on
/// every delivery unless disabled at runtime (set_enabled).
struct Telemetry {
  Registry registry;
  SpanTracer tracer;
  LatencyLedger latency;
  FlowTable flows;
  FlightRecorder recorder;
  AnomalyBank anomalies;
};

}  // namespace prism::telemetry
