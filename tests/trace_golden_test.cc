// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Byte-for-byte trace golden (DESIGN.md §9). A short SOS mobile run with a
// trace capacity of a few hundred events -- small enough that the
// keep-first cut and the trace.dropped line are both exercised -- must
// render exactly tests/golden/trace_short_sos.jsonl. This pins the event
// representation, every emit site's fields and the drop accounting of the
// "build only if kept" emit path.
//
// On a mismatch the actual trace is written to trace_short_sos.actual.jsonl
// in the working directory, so an intended change can be diffed against the
// golden and committed with its reason.

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/obs/trace.h"
#include "src/sos/lifetime_sim.h"

namespace sos {
namespace {

constexpr const char* kGoldenPath = SOS_GOLDEN_DIR "/trace_short_sos.jsonl";

std::string ReadGolden() {
  std::ifstream in(kGoldenPath, std::ios::binary);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

// 1-based number of the first line where `a` and `b` differ.
size_t FirstDifferingLine(const std::string& a, const std::string& b) {
  size_t line = 1;
  for (size_t i = 0; i < a.size() && i < b.size() && a[i] == b[i]; ++i) {
    if (a[i] == '\n') {
      ++line;
    }
  }
  return line;
}

TEST(TraceGoldenTest, ShortSosRunMatchesGolden) {
  // A 64-block device filled by 40 photos a day and classified every 5
  // days: its first 400 events mix GC victims, migrations (string and u64
  // fields) and auto-delete activations (a double field).
  LifetimeSimConfig config;
  config.kind = DeviceKind::kSos;
  config.days = 120;
  config.seed = 7;
  config.nand.num_blocks = 64;
  config.workload.photos_per_day = 40.0;
  config.workload.cache_files_per_day = 10.0;
  config.classify_period_days = 5;
  config.trace_capacity = 400;
  LifetimeSim sim(config);
  const LifetimeResult result = sim.Run();
  ASSERT_EQ(result.trace().size(), config.trace_capacity);
  ASSERT_GT(result.trace_dropped(), 0u);

  const std::string actual = obs::TraceToJsonl(result.trace(), result.trace_dropped());
  const std::string golden = ReadGolden();
  if (actual != golden) {
    ASSERT_TRUE(obs::WriteFile("trace_short_sos.actual.jsonl", actual).ok());
  }
  EXPECT_TRUE(actual == golden) << "trace differs from " << kGoldenPath
                                << " (empty if missing) at line "
                                << FirstDifferingLine(actual, golden)
                                << "; actual written to trace_short_sos.actual.jsonl";
}

}  // namespace
}  // namespace sos
