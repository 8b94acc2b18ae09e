// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Unit tests for the telemetry layer (src/obs): metric registration order,
// histogram bucket edges, snapshot replay, JSON stability, and the trace
// sink's keep-first overflow policy. The cross-thread determinism of the
// *exports* is determinism_test's job; this file pins the local semantics
// those guarantees are built from.

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
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

// An event builder that adds no fields.
void NoFields(TraceEvent&) {}

TEST(TraceSinkTest, KeepsFirstEventsAndCountsDrops) {
  TraceSink sink(2);
  sink.Emit(1, "first", NoFields);
  sink.Emit(2, "second", NoFields);
  sink.Emit(3, "dropped", NoFields);
  sink.Emit(4, "dropped", NoFields);

  ASSERT_EQ(sink.trace().size(), 2u);
  EXPECT_EQ(sink.dropped(), 2u);
  EXPECT_EQ(TraceToJsonl(sink.trace(), sink.dropped()),
            "{\"t_us\": 1, \"type\": \"first\"}\n"
            "{\"t_us\": 2, \"type\": \"second\"}\n"
            "{\"type\": \"trace.dropped\", \"count\": 2}\n");
}

TEST(TraceSinkTest, FullSinkNeverCallsBuilderButCountsEveryDrop) {
  for (const size_t capacity : {size_t{0}, size_t{2}}) {
    TraceSink sink(capacity);
    int builds = 0;
    const auto build = [&builds](TraceEvent& event) {
      ++builds;
      event.WithU64("n", 1);
    };
    for (int i = 0; i < 5; ++i) {
      sink.Emit(7, "built", build);
    }
    // Only the kept events were built; the other emits cost a counter bump.
    EXPECT_EQ(builds, static_cast<int>(capacity)) << "capacity " << capacity;
    EXPECT_EQ(sink.trace().size(), capacity);
    EXPECT_EQ(sink.dropped(), 5u - capacity);
    EXPECT_TRUE(sink.full());
  }
}

TEST(TraceSinkTest, TakeTraceMovesItOutAndKeepsTheDropCount) {
  TraceSink sink(1);
  sink.Emit(0, "kept", NoFields);
  sink.Emit(1, "dropped", NoFields);
  const TraceLog taken = sink.TakeTrace();
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(TraceToJsonl(taken, 0), "{\"t_us\": 0, \"type\": \"kept\"}\n");
  EXPECT_EQ(sink.trace().size(), 0u);
  EXPECT_EQ(sink.trace().encoded_bytes(), 0u);
  EXPECT_EQ(sink.dropped(), 1u);
}

TEST(TraceSinkTest, ToMetricsExportsEventAndDropCounters) {
  TraceSink sink(1);
  sink.Emit(0, "kept", NoFields);
  sink.Emit(1, "dropped", NoFields);

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

// The JSONL line of one event at `t_us` of `type` with the fields `build`
// adds, without its newline.
template <typename Build>
std::string OneLine(SimTimeUs t_us, std::string_view type, Build&& build) {
  TraceLog log;
  log.Append(t_us, type, build);
  std::string line = TraceToJsonl(log, 0);
  line.pop_back();
  return line;
}

TEST(TraceEventTest, FieldsRenderInInsertionOrder) {
  EXPECT_EQ(OneLine(123, "ftl.gc.victim",
                    [](TraceEvent& event) {
                      event.With("pool", "SYS").WithU64("block", 7).WithF64("score", 0.5).WithI64(
                          "delta", -3);
                    }),
            "{\"t_us\": 123, \"type\": \"ftl.gc.victim\", \"pool\": \"SYS\", "
            "\"block\": 7, \"score\": 0.5, \"delta\": -3}");
}

TEST(TraceEventTest, EveryFieldKindRendersExactly) {
  const std::string line =
      OneLine(std::numeric_limits<uint64_t>::max(), "k\"t", [](TraceEvent& event) {
        event.WithU64("u64_max", std::numeric_limits<uint64_t>::max())
            .WithU64("u64_zero", 0)
            .WithI64("i64_min", std::numeric_limits<int64_t>::min())
            .WithI64("i64_max", std::numeric_limits<int64_t>::max())
            .WithF64("tenth", 0.1)
            .WithF64("neg_zero", -0.0)
            .WithF64("tiny", 1e-300)
            .WithF64("nan", std::numeric_limits<double>::quiet_NaN())
            .WithF64("inf", std::numeric_limits<double>::infinity())
            .With("quote\\key", "say \"hi\"")
            .With("path", "C:\\tmp\\x")
            .With("ctl", std::string_view("a\nb\tc\x01\x1f" "d\0e", 10))
            .With("empty", "");
      });
  EXPECT_EQ(line,
            "{\"t_us\": 18446744073709551615, \"type\": \"k\\\"t\", "
            "\"u64_max\": 18446744073709551615, \"u64_zero\": 0, "
            "\"i64_min\": -9223372036854775808, \"i64_max\": 9223372036854775807, "
            "\"tenth\": 0.10000000000000001, \"neg_zero\": -0, \"tiny\": 1e-300, "
            "\"nan\": \"nan\", \"inf\": \"inf\", "
            "\"quote\\\\key\": \"say \\\"hi\\\"\", \"path\": \"C:\\\\tmp\\\\x\", "
            "\"ctl\": \"a\\nb\\tc\\u0001\\u001fd\\u0000e\", \"empty\": \"\"}");
}

TEST(TraceEventTest, TimesMayGoBackwards) {
  TraceLog log;
  for (const SimTimeUs t : {SimTimeUs{500}, SimTimeUs{7}, std::numeric_limits<SimTimeUs>::max(),
                            SimTimeUs{0}, SimTimeUs{7}}) {
    log.Append(t, "t", NoFields);
  }
  EXPECT_EQ(TraceToJsonl(log, 0),
            "{\"t_us\": 500, \"type\": \"t\"}\n"
            "{\"t_us\": 7, \"type\": \"t\"}\n"
            "{\"t_us\": 18446744073709551615, \"type\": \"t\"}\n"
            "{\"t_us\": 0, \"type\": \"t\"}\n"
            "{\"t_us\": 7, \"type\": \"t\"}\n");
}

TEST(TraceEventTest, OnlyJsonNumberStringsRenderBare) {
  // A With() value that is a JSON number renders exactly as the numeric
  // helpers would; anything else stays a quoted, escaped string, so every
  // line parses as JSON.
  EXPECT_EQ(OneLine(0, "t",
                    [](TraceEvent& event) {
                      event.With("zero", "0")
                          .With("u", "42")
                          .With("i", "-3")
                          .With("f", "1.5e-07")
                          .With("big", "1E+5")
                          .With("date", "2026-10-20")
                          .With("version", "1.2.3")
                          .With("no_int", ".5")
                          .With("lead_zero", "01")
                          .With("plus", "+1")
                          .With("no_exp", "1e")
                          .With("no_frac", "1.")
                          .With("minus", "-")
                          .With("word", "SYS")
                          .With("quote", "a\"b");
                    }),
            "{\"t_us\": 0, \"type\": \"t\", \"zero\": 0, \"u\": 42, \"i\": -3, "
            "\"f\": 1.5e-07, \"big\": 1E+5, \"date\": \"2026-10-20\", "
            "\"version\": \"1.2.3\", \"no_int\": \".5\", \"lead_zero\": \"01\", "
            "\"plus\": \"+1\", \"no_exp\": \"1e\", \"no_frac\": \"1.\", \"minus\": \"-\", "
            "\"word\": \"SYS\", \"quote\": \"a\\\"b\"}");

  const std::string typed = OneLine(0, "t", [](TraceEvent& event) {
    event.WithU64("u", 42).WithI64("i", -3).WithF64("f", 0.25);
  });
  const std::string strings = OneLine(0, "t", [](TraceEvent& event) {
    event.With("u", "42").With("i", "-3").With("f", "0.25");
  });
  EXPECT_EQ(typed, strings);
}

// A late-run migration: a time step, the LBA, two pool names and the flag.
void AppendMigration(TraceLog& log, uint64_t i) {
  const SimTimeUs t_us = 3 * 365 * 86'400'000'000ull + i * 7'919;
  log.Append(t_us, "ftl.migrate", [&](TraceEvent& event) {
    event.WithU64("lba", (i * 104'729) % (1u << 21))
        .With("from", i % 3 == 0 ? "SPARE" : "SYS")
        .With("to", i % 3 == 0 ? "SYS" : "SPARE")
        .WithU64("tainted", i % 2);
  });
}

TEST(TraceLogTest, MigrationsTakeAtMost32BytesEach) {
  constexpr uint64_t kEvents = 1000;
  TraceLog log;
  for (uint64_t i = 0; i < kEvents; ++i) {
    AppendMigration(log, i);
  }
  ASSERT_EQ(log.size(), kEvents);
  EXPECT_LE(log.encoded_bytes(), 32 * kEvents);
}

TEST(TraceLogTest, EqualEventsEncodeEqual) {
  TraceLog a;
  TraceLog b;
  for (uint64_t i = 0; i < 10; ++i) {
    AppendMigration(a, i);
    AppendMigration(b, i);
  }
  EXPECT_TRUE(a == b);
  EXPECT_EQ(TraceToJsonl(a, 0), TraceToJsonl(b, 0));
  a.Append(1, "x", [](TraceEvent& event) { event.WithF64("v", 0.5); });
  b.Append(1, "x", [](TraceEvent& event) { event.WithF64("v", 0.25); });
  EXPECT_FALSE(a == b);
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
