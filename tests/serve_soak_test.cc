// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Soak test for the serve layer's memory bound (DESIGN.md §14): a
// long-running sosd must not grow with the requests it serves. One thread
// drives AsyncBlockService::Call() in-process on a small die until garbage
// collection has cycled it, then issues a million more mixed-class requests
// and requires the resident set to stay flat. It is its own binary, apart
// from serve_test, so the TSan serve smoke stays fast.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/serve/service.h"
#include "src/sos/sos_device.h"

namespace sos::serve {
namespace {

constexpr uint64_t kSoakRequests = 1'000'000;  // soslint:allow(R10) a request count
constexpr uint64_t kRangeLbas = 1000;  // per handle
constexpr uint32_t kReadRun = 8;       // adjacent reads per batched Call()
constexpr int64_t kRssSlackKib = 2048;

// AddressSanitizer parks freed memory in a quarantine of up to 256 MB, so
// under it VmRSS measures the sanitizer, not the service (about +190 MB
// here). The request and latency counts are checked in every build.
#if defined(__SANITIZE_ADDRESS__)
constexpr bool kRssTracksTheService = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kRssTracksTheService = false;
#else
constexpr bool kRssTracksTheService = true;
#endif
#else
constexpr bool kRssTracksTheService = true;
#endif

SosDeviceConfig SoakDeviceConfig() {
  SosDeviceConfig config;
  config.nand.num_blocks = 64;
  config.nand.wordlines_per_block = 32;
  config.nand.page_size_bytes = 512;
  config.nand.seed = 17;
  config.nand.store_payloads = true;
  config.spare_ecc = EccPreset::kWeakBch;
  return config;
}

// VmRSS of this process in KiB, or -1 when /proc/self/status has none.
int64_t ResidentKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stoll(line.substr(6));
    }
  }
  return -1;
}

// A seeded closed loop over two handles: 70/30 reads/writes, split evenly
// between a critical and a degradable handle, with a fifth of the
// degradable reads issued as one Call() of kReadRun adjacent LBAs so the
// service coalesces, and a flush every 1000 calls.
class SoakLoop {
 public:
  SoakLoop(AsyncBlockService* service, PlacementHandle critical, PlacementHandle degradable)
      : service_(service), critical_(critical), degradable_(degradable), rng_(7) {}

  // Issues one Call() and returns how many requests it carried.
  uint64_t Step() {
    std::vector<ServeRequest> reqs;
    const bool critical = rng_.NextBool(0.5);
    const PlacementHandle handle = critical ? critical_ : degradable_;
    const uint64_t base = critical ? 0 : kRangeLbas;
    if (++calls_ % 1000 == 0) {
      reqs.emplace_back().op = ServeOp::kFlush;
    } else if (rng_.NextBool(0.7)) {
      const uint32_t run = !critical && rng_.NextBool(0.2) ? kReadRun : 1;
      const uint64_t first = base + rng_.NextBounded(kRangeLbas - run + 1);
      for (uint32_t i = 0; i < run; ++i) {
        ServeRequest& req = reqs.emplace_back();
        req.op = ServeOp::kRead;
        req.lba = first + i;
        req.handle = handle;
      }
    } else {
      ServeRequest& req = reqs.emplace_back();
      req.op = ServeOp::kWrite;
      req.lba = base + rng_.NextBounded(kRangeLbas);
      req.handle = handle;
      req.data.assign(512, static_cast<uint8_t>(calls_));
    }
    const size_t n = reqs.size();
    const std::vector<ServeResponse> resps = service_->Call(std::move(reqs));
    EXPECT_EQ(resps.size(), n);
    return n;
  }

 private:
  AsyncBlockService* const service_;
  const PlacementHandle critical_;
  const PlacementHandle degradable_;
  Rng rng_;
  uint64_t calls_ = 0;
};

TEST(ServeSoakTest, MillionRequestsKeepMemoryFlat) {
  const SosDeviceConfig config = SoakDeviceConfig();
  SimClock clock;
  SosDevice device(config, &clock);
  AsyncBlockService service(&device, &clock, ServeConfig{});
  auto critical = service.OpenPlacement({Durability::kCritical});
  auto degradable = service.OpenPlacement({Durability::kDegradable});
  ASSERT_TRUE(critical.ok());
  ASSERT_TRUE(degradable.ok());
  SoakLoop loop(&service, critical.value(), degradable.value());

  // Warm up until garbage collection has erased as many blocks as the die
  // has, so the payload store and the FTL's tables are at their steady size.
  while (device.ftl().stats().gc_erases() < config.nand.num_blocks) {
    loop.Step();
  }
  const uint64_t warm = service.Stats().completed;
  const int64_t rss_before = ResidentKib();
  ASSERT_GT(rss_before, 0);

  uint64_t issued = 0;
  while (issued < kSoakRequests) {
    issued += loop.Step();
  }
  const int64_t rss_after = ResidentKib();

  const ServeStats stats = service.Stats();
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.completed - warm, issued);
  for (uint32_t c = 0; c < kNumQosClasses; ++c) {
    EXPECT_GT(stats.per_class[c].completed, 0u) << "class " << c;
    EXPECT_EQ(service.Latency(static_cast<QosClass>(c)).count, stats.per_class[c].completed)
        << "class " << c;
  }
  if (kRssTracksTheService) {
    EXPECT_LT(rss_after - rss_before, kRssSlackKib)
        << "VmRSS grew from " << rss_before << " KiB to " << rss_after << " KiB over " << issued
        << " requests";
  }
}

}  // namespace
}  // namespace sos::serve
