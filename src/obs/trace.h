// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Bounded, deterministic event trace (DESIGN.md §9).
//
// A TraceSink records discrete simulator events -- GC victim picks, pool
// migrations, block retirement/resuscitation, auto-delete trims -- as a
// bounded stream rendered to JSONL. Fields export in insertion order, so a
// trace line never depends on hash order. Timestamps are simulated time
// only; components stamp events with SimClock::now() at the emit site.
//
// Overflow policy: keep-first / drop-newest. Once `capacity` events are
// buffered, further Emit() calls only bump the dropped counter. The first N
// events of a run are therefore identical no matter how much pressure later
// phases generate -- the bounded trace itself stays deterministic.
//
// An event costs only what the sink keeps: emit sites hand Emit() a builder,
// which runs only while the sink has room, and each field is rendered to its
// JSON text once, when it is added.

#ifndef SOS_SRC_OBS_TRACE_H_
#define SOS_SRC_OBS_TRACE_H_

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"

namespace sos::obs {

class MetricRegistry;

// One discrete simulator event. `type` follows the metric naming scheme
// (`layer.component.event`, e.g. "ftl.gc.victim"); `fields` holds the
// fields already rendered as JSON, one `, "key": value` fragment per With*()
// call in call order, so an event is two strings and rendering it is a
// concatenation.
struct TraceEvent {
  TraceEvent() = default;
  TraceEvent(SimTimeUs t, std::string event_type) : t_us(t), type(std::move(event_type)) {}

  SimTimeUs t_us = 0;
  std::string type;
  std::string fields;

  bool operator==(const TraceEvent& other) const = default;

  // Field helpers render values deterministically (decimal u64/i64, %.17g
  // doubles) and return *this for chaining at the emit site. A With() value
  // that is numeric-shaped renders bare, like the numeric helpers' output;
  // anything else is quoted.
  TraceEvent& With(std::string_view key, std::string_view value);
  TraceEvent& WithU64(std::string_view key, uint64_t value);
  TraceEvent& WithI64(std::string_view key, int64_t value);
  TraceEvent& WithF64(std::string_view key, double value);
};

// Bounded collector for TraceEvents. Not thread-safe by design: each worker
// owns its sink and results carry the recorded events across threads.
class TraceSink {
 public:
  // `capacity` bounds the number of retained events (see overflow policy
  // above). Defaults generously for a full LifetimeSim run.
  explicit TraceSink(size_t capacity = kDefaultCapacity);

  // True once `capacity` events are kept: every later event is dropped.
  bool full() const { return events_.size() >= capacity_; }

  // Keeps the event `build()` returns if the sink has room, else counts it
  // as dropped without calling `build`. This is the one emit path: an event
  // the sink would drop costs a counter increment, not its formatting.
  template <typename Build>
    requires std::invocable<Build&>
  void Emit(Build&& build) {
    if (full()) {
      ++dropped_;
      return;
    }
    events_.push_back(build());
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  // Moves the kept events out, leaving the sink empty; dropped() is kept.
  // A run hands its trace to its result this way, so only one copy exists.
  std::vector<TraceEvent> TakeEvents() { return std::exchange(events_, {}); }
  uint64_t dropped() const { return dropped_; }
  size_t capacity() const { return capacity_; }

  // Registers the sink's own telemetry under `prefix`: `trace.events`
  // (retained) and `trace.dropped_events` (lost to the keep-first cap).
  // The dropped counter is exported unconditionally -- a zero row is how a
  // reader can tell "nothing was dropped" from "nobody measured" (the
  // "no silent caps" rule; fleet-scale runs cap per-device traces hard and
  // still have to account for every event).
  void ToMetrics(MetricRegistry& registry, const std::string& prefix = "") const;

  static constexpr size_t kDefaultCapacity = 65536;

 private:
  size_t capacity_;
  std::vector<TraceEvent> events_;
  uint64_t dropped_ = 0;
};

// One JSONL line (no trailing newline): {"t_us": ..., "type": "...", k: v, ...}.
std::string TraceEventToJson(const TraceEvent& event);

// All events, one JSON object per line, newline-terminated. A final
// "trace.dropped" summary line records the overflow count when non-zero.
std::string TraceToJsonl(const std::vector<TraceEvent>& events, uint64_t dropped);

// Renders `sink` with TraceToJsonl and writes it to `path`.
[[nodiscard]] Status WriteTraceFile(const std::string& path, const TraceSink& sink);

}  // namespace sos::obs

#endif  // SOS_SRC_OBS_TRACE_H_
