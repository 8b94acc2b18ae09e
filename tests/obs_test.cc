// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Unit tests for the telemetry layer (src/obs): metric registration order,
// histogram bucket edges, snapshot replay, JSON stability, and the trace
// sink's keep-first overflow policy. The cross-thread determinism of the
// *exports* is determinism_test's job; this file pins the local semantics
// those guarantees are built from.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include "src/obs/metrics.h"
#include "src/obs/scoped_latency.h"
#include "src/obs/trace.h"

namespace sos::obs {
namespace {

TEST(MetricRegistryTest, ExportOrderIsRegistrationOrder) {
  MetricRegistry registry;
  registry.SetCounter("z.last_alphabetically_first_registered", 1);
  registry.SetGauge("a.first_alphabetically_last_registered", 2.0);
  registry.SetCounter("m.middle", 3);

  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].name, "z.last_alphabetically_first_registered");
  EXPECT_EQ(snapshot[1].name, "a.first_alphabetically_last_registered");
  EXPECT_EQ(snapshot[2].name, "m.middle");

  // Re-setting an existing name updates in place; it must not re-order.
  registry.SetCounter("z.last_alphabetically_first_registered", 10);
  const MetricsSnapshot again = registry.Snapshot();
  ASSERT_EQ(again.size(), 3u);
  EXPECT_EQ(again[0].name, "z.last_alphabetically_first_registered");
  EXPECT_EQ(again[0].counter, 10u);
}

TEST(MetricRegistryTest, CountersAndGaugesRoundTrip) {
  MetricRegistry registry;
  Counter* counter = registry.AddCounter("c");
  Gauge* gauge = registry.AddGauge("g");
  counter->Add(7);
  counter->Add(3);
  gauge->Set(2.5);
  EXPECT_EQ(counter->value(), 10u);
  EXPECT_EQ(gauge->value(), 2.5);

  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].kind, MetricKind::kCounter);
  EXPECT_EQ(snapshot[0].counter, 10u);
  EXPECT_EQ(snapshot[1].kind, MetricKind::kGauge);
  EXPECT_EQ(snapshot[1].gauge, 2.5);
}

TEST(HistogramTest, BucketEdgesAreInclusiveUpperBounds) {
  Histogram h({10.0, 100.0});
  h.Observe(0.0);     // <= 10
  h.Observe(10.0);    // == bound: inclusive, first bucket
  h.Observe(10.5);    // <= 100
  h.Observe(100.0);   // == bound: second bucket
  h.Observe(1000.0);  // overflow bucket

  ASSERT_EQ(h.buckets().size(), 3u);  // two bounds + overflow
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 2u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 0.0 + 10.0 + 10.5 + 100.0 + 1000.0);
}

TEST(HistogramTest, SnapshotReplayPreservesBuckets) {
  MetricRegistry source;
  Histogram h = Histogram::LatencyUs();
  h.Observe(5.0);
  h.Observe(75.0);
  h.Observe(1e9);  // overflow
  source.SetHistogram("lat", h);

  // Append replays rows through Histogram::FromParts; the replayed
  // representation must be indistinguishable from the original.
  MetricRegistry target;
  target.Append(source.Snapshot(), "copy.");
  const MetricsSnapshot snapshot = target.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].name, "copy.lat");
  EXPECT_EQ(snapshot[0].kind, MetricKind::kHistogram);
  EXPECT_EQ(snapshot[0].count, 3u);
  EXPECT_EQ(snapshot[0].bounds, h.bounds());
  EXPECT_EQ(snapshot[0].buckets, h.buckets());
  EXPECT_EQ(snapshot[0].sum, h.sum());
}

TEST(MetricsJsonTest, RenderingIsByteStableAcrossIdenticalRegistries) {
  auto build = [] {
    MetricRegistry registry;
    registry.SetCounter("sim.writes", 42);
    registry.SetGauge("sim.wear", 1.0 / 3.0);  // exercises %.17g
    Histogram h({1.0, 2.0});
    h.Observe(1.5);
    registry.SetHistogram("sim.lat", h);
    return registry.ToJson();
  };
  const std::string a = build();
  const std::string b = build();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"sim.writes\""), std::string::npos);
  EXPECT_NE(a.find("\"kind\": \"histogram\""), std::string::npos);
  // The overflow bucket renders with an "inf" bound.
  EXPECT_NE(a.find("\"le\": \"inf\""), std::string::npos);
}

TEST(TraceSinkTest, KeepsFirstEventsAndCountsDrops) {
  TraceSink sink(2);
  sink.Emit([] { return TraceEvent{1, "first"}; });
  sink.Emit([] { return TraceEvent{2, "second"}; });
  sink.Emit([] { return TraceEvent{3, "dropped"}; });
  sink.Emit([] { return TraceEvent{4, "dropped"}; });

  ASSERT_EQ(sink.events().size(), 2u);
  EXPECT_EQ(sink.events()[0].type, "first");
  EXPECT_EQ(sink.events()[1].type, "second");
  EXPECT_EQ(sink.dropped(), 2u);

  const std::string jsonl = TraceToJsonl(sink.events(), sink.dropped());
  EXPECT_NE(jsonl.find("\"type\": \"trace.dropped\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"count\": 2"), std::string::npos);
}

TEST(TraceSinkTest, FullSinkNeverCallsBuilderButCountsEveryDrop) {
  for (const size_t capacity : {size_t{0}, size_t{2}}) {
    TraceSink sink(capacity);
    int builds = 0;
    const auto build = [&builds] {
      ++builds;
      return TraceEvent{7, "built"}.WithU64("n", 1);
    };
    for (int i = 0; i < 5; ++i) {
      sink.Emit(build);
    }
    // Only the kept events were built; the other emits cost a counter bump.
    EXPECT_EQ(builds, static_cast<int>(capacity)) << "capacity " << capacity;
    EXPECT_EQ(sink.events().size(), capacity);
    EXPECT_EQ(sink.dropped(), 5u - capacity);
    EXPECT_TRUE(sink.full());
  }
}

TEST(TraceSinkTest, TakeEventsMovesThemOutAndKeepsTheDropCount) {
  TraceSink sink(1);
  sink.Emit([] { return TraceEvent{0, "kept"}; });
  sink.Emit([] { return TraceEvent{1, "dropped"}; });
  const std::vector<TraceEvent> taken = sink.TakeEvents();
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].type, "kept");
  EXPECT_TRUE(sink.events().empty());
  EXPECT_EQ(sink.dropped(), 1u);
}

TEST(TraceSinkTest, ToMetricsExportsEventAndDropCounters) {
  TraceSink sink(1);
  sink.Emit([] { return TraceEvent{0, "kept"}; });
  sink.Emit([] { return TraceEvent{1, "dropped"}; });

  MetricRegistry registry;
  sink.ToMetrics(registry, "dev.");
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].name, "dev.trace.events");
  EXPECT_EQ(snapshot[0].counter, 1u);
  EXPECT_EQ(snapshot[1].name, "dev.trace.dropped_events");
  EXPECT_EQ(snapshot[1].counter, 1u);
}

TEST(HistogramTest, MergeAddsBucketsAndRejectsShapeMismatch) {
  Histogram a({1.0, 2.0});
  Histogram b({1.0, 2.0});
  a.Observe(0.5);
  b.Observe(1.5);
  b.Observe(10.0);  // overflow
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.buckets()[0], 1u);
  EXPECT_EQ(a.buckets()[1], 1u);
  EXPECT_EQ(a.buckets()[2], 1u);
  EXPECT_DOUBLE_EQ(a.sum(), 12.0);

  Histogram mismatched({1.0, 3.0});
  EXPECT_FALSE(a.Merge(mismatched).ok());
}

TEST(TraceEventTest, FieldsRenderInInsertionOrder) {
  TraceEvent event{123, "ftl.gc.victim"};
  event.With("pool", "SYS").WithU64("block", 7).WithF64("score", 0.5).WithI64("delta", -3);
  const std::string json = TraceEventToJson(event);
  EXPECT_EQ(json,
            "{\"t_us\": 123, \"type\": \"ftl.gc.victim\", \"pool\": \"SYS\", "
            "\"block\": 7, \"score\": 0.5, \"delta\": -3}");
}

TEST(TraceEventTest, NumericShapedStringsRenderBare) {
  // A With() value that looks like a number renders exactly as the numeric
  // helpers would; anything else stays a quoted, escaped string.
  TraceEvent event{0, "t"};
  event.With("u", "42")
      .With("i", "-3")
      .With("f", "1.5e-07")
      .With("dash", "-")
      .With("word", "SYS")
      .With("quote", "a\"b");
  EXPECT_EQ(TraceEventToJson(event),
            "{\"t_us\": 0, \"type\": \"t\", \"u\": 42, \"i\": -3, \"f\": 1.5e-07, "
            "\"dash\": \"-\", \"word\": \"SYS\", \"quote\": \"a\\\"b\"}");

  TraceEvent typed{0, "t"};
  typed.WithU64("u", 42).WithI64("i", -3).WithF64("f", 0.25);
  TraceEvent strings{0, "t"};
  strings.With("u", "42").With("i", "-3").With("f", "0.25");
  EXPECT_EQ(typed, strings);
}

TEST(ScopedLatencyTest, ObservesSimTimeDelta) {
  SimClock clock;
  Histogram h = Histogram::LatencyUs();
  {
    ScopedLatency timer(&clock, &h);
    clock.Advance(40);  // lands in the <=50us bucket
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 40.0);

  // Null histogram / null clock are no-ops, not crashes.
  {
    ScopedLatency noop(nullptr, &h);
  }
  {
    ScopedLatency noop(&clock, nullptr);
  }
  EXPECT_EQ(h.count(), 1u);
}

}  // namespace
}  // namespace sos::obs
