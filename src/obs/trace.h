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
// kept, further Emit() calls only bump the dropped counter. The first N
// events of a run are therefore identical no matter how much pressure later
// phases generate -- the bounded trace itself stays deterministic.
//
// An event costs only what the sink keeps: emit sites hand Emit() a builder,
// which runs only while the sink has room and writes typed fields straight
// into the sink's TraceLog. JSON is produced only on export.

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
class TraceLog;

// Writes one event's fields into its TraceLog; they export in call order,
// `key` as the JSON key. A With() value that is a JSON number renders bare,
// like the numeric helpers' output; anything else is quoted.
class TraceEvent {
 public:
  TraceEvent& With(std::string_view key, std::string_view value);
  TraceEvent& WithU64(std::string_view key, uint64_t value);
  TraceEvent& WithI64(std::string_view key, int64_t value);
  TraceEvent& WithF64(std::string_view key, double value);

 private:
  friend class TraceLog;
  explicit TraceEvent(TraceLog* log) : log_(log) {}

  TraceLog* log_;
};

// The kept events of one trace, encoded as one byte arena. Per event: the
// zigzag varint delta of its sim time from the previous event's, the varint
// id of its interned `type` (`layer.component.event`, e.g. "ftl.gc.victim"),
// then per field a varint tag `(key id + 1) << 2 | kind` and the value -- a
// u64 as a varint, an i64 as a zigzag varint, an f64 as its 8 raw bytes, a
// string as a varint length and its bytes -- and a 0 byte ending the event.
// Types and keys share one intern table, numbered in first-use order, so
// the same events always encode to the same bytes.
class TraceLog {
 public:
  // Appends one event; `build(TraceEvent&)` adds its fields.
  template <typename Build>
    requires std::invocable<Build&, TraceEvent&>
  void Append(SimTimeUs t_us, std::string_view type, Build&& build) {
    BeginEvent(t_us, type);
    TraceEvent event(this);
    build(event);
    bytes_.push_back(0);
    ++size_;
  }

  // Reserves arena room for `events` typical events. The reservation is
  // address space only until events fill it, and it spares the full-trace
  // copy a grow-by-doubling would make when the trace fills near the end of
  // a run, the moment of its peak memory.
  void Reserve(size_t events) { bytes_.reserve(events * kReservedBytesPerEvent); }

  size_t size() const { return size_; }
  size_t encoded_bytes() const { return bytes_.size(); }

  bool operator==(const TraceLog& other) const = default;

 private:
  friend class TraceEvent;
  friend std::string TraceToJsonl(const TraceLog& trace, uint64_t dropped);

  enum Kind : uint8_t { kU64 = 0, kI64 = 1, kF64 = 2, kString = 3 };

  // A simulator event takes about 21 B (a migration: a one-byte time delta,
  // the type id, an LBA, two pool names and a flag).
  static constexpr size_t kReservedBytesPerEvent = 32;

  uint64_t Intern(std::string_view name);
  void BeginEvent(SimTimeUs t_us, std::string_view type);
  void PutVarint(uint64_t v);
  void PutField(std::string_view key, Kind kind);

  std::vector<std::string> names_;  // interned types and keys, by id
  std::vector<uint8_t> bytes_;
  size_t size_ = 0;
  SimTimeUs last_t_us_ = 0;
};

// Bounded collector for trace events. Not thread-safe by design: each worker
// owns its sink and results carry the kept trace across threads.
class TraceSink {
 public:
  // `capacity` bounds the number of retained events (see overflow policy
  // above). Defaults generously for a full LifetimeSim run.
  explicit TraceSink(size_t capacity = kDefaultCapacity);

  // True once `capacity` events are kept: every later event is dropped.
  bool full() const { return trace_.size() >= capacity_; }

  // Keeps an event of `type` at `t_us`, with the fields `build` adds, if the
  // sink has room, else counts it as dropped without calling `build`. This
  // is the one emit path: an event the sink would drop costs a counter
  // increment, not its encoding.
  template <typename Build>
    requires std::invocable<Build&, TraceEvent&>
  void Emit(SimTimeUs t_us, std::string_view type, Build&& build) {
    if (full()) {
      ++dropped_;
      return;
    }
    trace_.Append(t_us, type, build);
  }

  const TraceLog& trace() const { return trace_; }
  // Moves the kept events out, leaving the sink empty; dropped() is kept.
  // A run hands its trace to its result this way, so only one copy exists.
  TraceLog TakeTrace() { return std::exchange(trace_, {}); }
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
  TraceLog trace_;
  uint64_t dropped_ = 0;
};

// All events, one JSON object per line, newline-terminated:
// {"t_us": ..., "type": "...", k: v, ...}. A final "trace.dropped" summary
// line records the overflow count when non-zero.
std::string TraceToJsonl(const TraceLog& trace, uint64_t dropped);

// Renders `sink` with TraceToJsonl and writes it to `path`.
[[nodiscard]] Status WriteTraceFile(const std::string& path, const TraceSink& sink);

}  // namespace sos::obs

#endif  // SOS_SRC_OBS_TRACE_H_
