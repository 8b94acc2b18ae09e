// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Concurrent-client stress harness for AsyncBlockService (the sosd
// verification co-headline): N >= 8 client threads drive seeded op streams
// against one service in async mode (QoS on), each over a disjoint LBA
// range, with a per-thread oracle of acked writes. Clients reach the
// service through Submit() futures, through caller-runs Call(), or a mix.
//
// Checked properties:
//   - per-LBA read-your-writes: after a write's future resolves ok, every
//     later read of that LBA by its owner returns exactly the acked bytes
//     (payloads encode lba+version, so a stale or cross-wired page is
//     detected, not just a torn one);
//   - acked-write durability: after the final Drain(), every acked critical
//     write in every thread's oracle reads back byte-exact;
//   - trim semantics: an acked trim makes the LBA kNotFound until rewritten;
//   - accounting: completed == submitted, responses never vanish, and a
//     Shutdown() racing in-flight submissions or Calls answers every
//     request.
//
// The suite is run under TSan in CI (serve-smoke): the assertions prove
// linearizable per-LBA behavior, TSan proves the implementation gets there
// without data races.

#include <gtest/gtest.h>

#include <future>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/serve/service.h"
#include "src/sos/sos_device.h"

namespace sos::serve {
namespace {

SosDeviceConfig StressDeviceConfig(uint64_t seed) {
  SosDeviceConfig config;
  config.nand.num_blocks = 96;
  config.nand.wordlines_per_block = 8;
  config.nand.page_size_bytes = 512;
  config.nand.seed = seed;
  config.nand.store_payloads = true;
  config.spare_ecc = EccPreset::kWeakBch;
  return config;
}

// Payload fingerprint: every byte derives from (lba, version), so reading a
// different LBA's page or an older version is visible in the first byte.
std::vector<uint8_t> FillPage(uint64_t lba, uint32_t version) {
  std::vector<uint8_t> page(512);
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<uint8_t>(lba * 37 + version * 101 + i * 13 + 1);
  }
  return page;
}

struct ClientOutcome {
  // lba -> last acked version (erased on acked trim).
  std::map<uint64_t, uint32_t> oracle;
  // LBAs whose last write failed: content is unspecified until re-acked.
  std::set<uint64_t> uncertain;
  uint64_t ops = 0;
  uint64_t failed_writes = 0;
};

// How a client thread reaches the service.
enum class Transport {
  kSubmit,  // Submit() + future.get(): dispatch is left to the workers
  kCall,    // Call(): the client thread dispatches its own requests
};

// Runs `reqs` to completion over `transport`; responses in request order.
std::vector<ServeResponse> Issue(AsyncBlockService* service, Transport transport,
                                 std::vector<ServeRequest> reqs) {
  if (transport == Transport::kCall) {
    return service->Call(std::move(reqs));
  }
  std::vector<std::future<ServeResponse>> futures;
  futures.reserve(reqs.size());
  for (ServeRequest& req : reqs) {
    futures.push_back(service->Submit(std::move(req)));
  }
  std::vector<ServeResponse> resps;
  resps.reserve(futures.size());
  for (std::future<ServeResponse>& f : futures) {
    resps.push_back(f.get());
  }
  return resps;
}

// One client thread's seeded op stream. Thread t owns LBAs
// [t*range, (t+1)*range); critical threads exercise SYS, bulk threads the
// degradable path, creating cross-class QoS pressure.
ClientOutcome RunClient(AsyncBlockService* service, Transport transport, PlacementHandle handle,
                        bool critical, uint64_t lba_base, uint64_t range, uint64_t seed) {
  Rng rng(DeriveSeed({seed, lba_base, 0x73727673ull /* "srvs" */}));
  ClientOutcome out;
  std::map<uint64_t, uint32_t> version;

  for (int round = 0; round < 12; ++round) {
    // Burst of writes to distinct LBAs, then wait for all acks. The ack
    // establishes the happens-before edge read-your-writes is then checked
    // against.
    std::vector<std::pair<uint64_t, uint32_t>> issued;
    std::vector<ServeRequest> writes;
    std::set<uint64_t> used;
    for (int w = 0; w < 6; ++w) {
      const uint64_t lba = lba_base + rng.NextBounded(range);
      if (!used.insert(lba).second) {
        continue;  // one in-flight write per LBA, else ack order is ambiguous
      }
      const uint32_t v = ++version[lba];
      ServeRequest req;
      req.op = ServeOp::kWrite;
      req.lba = lba;
      req.data = FillPage(lba, v);
      req.handle = handle;
      issued.emplace_back(lba, v);
      writes.push_back(std::move(req));
      ++out.ops;
    }
    const std::vector<ServeResponse> acks = Issue(service, transport, std::move(writes));
    for (size_t i = 0; i < acks.size(); ++i) {
      const ServeResponse& resp = acks[i];
      const uint64_t lba = issued[i].first;
      if (resp.status.ok()) {
        out.oracle[lba] = issued[i].second;
        out.uncertain.erase(lba);
      } else {
        ++out.failed_writes;
        out.oracle.erase(lba);
        out.uncertain.insert(lba);
      }
    }

    // Occasional trim of an acked LBA.
    if (round % 4 == 3 && !out.oracle.empty()) {
      const uint64_t lba = out.oracle.begin()->first;
      ServeRequest req;
      req.op = ServeOp::kTrim;
      req.lba = lba;
      const ServeResponse resp = Issue(service, transport, {req}).front();
      ++out.ops;
      if (resp.status.ok()) {
        out.oracle.erase(lba);
        version.erase(lba);  // next write restarts the version chain
      }
    }

    // Reads verify read-your-writes against the oracle.
    for (int r = 0; r < 6; ++r) {
      const uint64_t lba = lba_base + rng.NextBounded(range);
      ServeRequest req;
      req.op = ServeOp::kRead;
      req.lba = lba;
      req.handle = handle;
      const ServeResponse resp = Issue(service, transport, {req}).front();
      ++out.ops;
      if (out.uncertain.contains(lba)) {
        continue;  // last write failed; content unspecified
      }
      auto expected = out.oracle.find(lba);
      if (expected == out.oracle.end()) {
        EXPECT_EQ(resp.status.code(), StatusCode::kNotFound) << "lba " << lba;
        continue;
      }
      EXPECT_TRUE(resp.status.ok()) << "lba " << lba << ": " << resp.status.ToString();
      if (resp.status.ok() && (critical || !resp.degraded)) {
        EXPECT_EQ(resp.data, FillPage(lba, expected->second))
            << "lba " << lba << " version " << expected->second;
      }
      if (critical && resp.status.ok()) {
        EXPECT_FALSE(resp.degraded) << "critical read degraded at lba " << lba;
      }
    }
  }
  return out;
}

// Eight concurrent oracle clients against one async-mode service; client t
// reaches it over transport_of(t). Checks every client's read-your-writes
// stream, then audits every acked write and the accounting.
void RunOracleClients(const ServeConfig& config, uint64_t seed,
                      Transport (*transport_of)(size_t client)) {
  constexpr size_t kClients = 8;
  constexpr uint64_t kRange = 20;

  SimClock clock;
  SosDevice device(StressDeviceConfig(seed), &clock);
  AsyncBlockService service(&device, &clock, config);

  // Six critical (SYS) clients + two bulk (degradable) clients for QoS
  // pressure; each owns a disjoint LBA range.
  std::vector<PlacementHandle> handles;
  std::vector<bool> critical;
  for (size_t t = 0; t < kClients; ++t) {
    const bool is_critical = t < 6;
    auto opened = service.OpenPlacement(
        {is_critical ? Durability::kCritical : Durability::kDegradable});
    ASSERT_TRUE(opened.ok());
    handles.push_back(opened.value());
    critical.push_back(is_critical);
  }

  std::vector<ClientOutcome> outcomes(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      outcomes[t] = RunClient(&service, transport_of(t), handles[t], critical[t], t * kRange,
                              kRange, seed);
    });
  }
  for (std::thread& c : clients) {
    c.join();
  }
  service.Drain();

  // Global audit: every acked write in every oracle reads back byte-exact
  // (for critical clients; bulk content is checked when undegraded).
  uint64_t audited = 0;
  for (size_t t = 0; t < kClients; ++t) {
    for (const auto& [lba, version] : outcomes[t].oracle) {
      ServeRequest req;
      req.op = ServeOp::kRead;
      req.lba = lba;
      req.handle = handles[t];
      const ServeResponse resp = service.Submit(std::move(req)).get();
      ASSERT_TRUE(resp.status.ok())
          << "acked write lost: client " << t << " lba " << lba << ": "
          << resp.status.ToString();
      if (critical[t]) {
        ASSERT_FALSE(resp.degraded) << "acked SYS write degraded: lba " << lba;
        ASSERT_EQ(resp.data, FillPage(lba, version))
            << "acked SYS write corrupted: client " << t << " lba " << lba;
      } else if (!resp.degraded) {
        EXPECT_EQ(resp.data, FillPage(lba, version)) << "bulk lba " << lba;
      }
      ++audited;
    }
  }
  EXPECT_GT(audited, 0u);

  const ServeStats stats = service.Stats();
  uint64_t client_ops = audited;  // the audit reads above
  for (const ClientOutcome& out : outcomes) {
    client_ops += out.ops;
  }
  EXPECT_EQ(stats.submitted, client_ops);
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_GT(stats.per_class[static_cast<int>(QosClass::kSysRead)].completed, 0u);
  EXPECT_GT(stats.per_class[static_cast<int>(QosClass::kBulk)].completed, 0u);
}

TEST(ServeStressTest, ConcurrentClientsKeepReadYourWrites) {
  ServeConfig config;
  config.workers = 4;
  config.qos = true;
  RunOracleClients(config, /*seed=*/31, [](size_t) { return Transport::kSubmit; });
}

TEST(ServeStressTest, CallAndSubmitClientsShareAFullQueue) {
  // Half the clients dispatch for themselves through Call(), half leave it
  // to two workers. A depth of 4 is smaller than a write burst, so both
  // admission-full paths run constantly: Call() makes room by dispatching
  // inline -- possibly the Submit() clients' requests -- while Submit()
  // blocks until a worker or a Call() thread frees a slot.
  ServeConfig config;
  config.workers = 2;
  config.submission_depth = 4;
  config.qos = true;
  RunOracleClients(config, /*seed=*/33, [](size_t client) {
    return client % 2 == 0 ? Transport::kCall : Transport::kSubmit;
  });
}

TEST(ServeStressTest, ShutdownRacingSubmissionsResolvesEveryFuture) {
  SimClock clock;
  SosDevice device(StressDeviceConfig(32), &clock);
  ServeConfig config;
  config.workers = 2;
  AsyncBlockService service(&device, &clock, config);
  auto handle = service.OpenPlacement({Durability::kCritical});
  ASSERT_TRUE(handle.ok());

  std::vector<std::thread> submitters;
  std::vector<std::vector<std::future<ServeResponse>>> futures(4);
  for (size_t t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        ServeRequest req;
        req.op = i % 2 == 0 ? ServeOp::kWrite : ServeOp::kRead;
        req.lba = static_cast<uint64_t>(t) * 64 + static_cast<uint64_t>(i % 32);
        if (req.op == ServeOp::kWrite) {
          req.data = FillPage(req.lba, 1);
        }
        req.handle = handle.value();
        futures[t].push_back(service.Submit(std::move(req)));
      }
    });
  }
  service.Shutdown();  // races the submitters on purpose
  for (std::thread& s : submitters) {
    s.join();
  }
  // Every future resolves -- either a real response or a clean rejection.
  for (auto& thread_futures : futures) {
    for (auto& f : thread_futures) {
      const ServeResponse resp = f.get();
      EXPECT_TRUE(resp.status.ok() || resp.status.code() == StatusCode::kUnavailable ||
                  resp.status.code() == StatusCode::kNotFound)
          << resp.status.ToString();
    }
  }
  const ServeStats stats = service.Stats();
  EXPECT_EQ(stats.completed, stats.submitted);
}

TEST(ServeStressTest, ShutdownRacingCallsReturnsEveryResponse) {
  SimClock clock;
  SosDevice device(StressDeviceConfig(34), &clock);
  ServeConfig config;
  config.workers = 2;
  AsyncBlockService service(&device, &clock, config);
  auto handle = service.OpenPlacement({Durability::kCritical});
  ASSERT_TRUE(handle.ok());

  // Each caller issues 25 two-request Calls (a write and a read); a Call
  // admitted before shutdown runs to completion, later ones are refused.
  std::vector<std::thread> callers;
  std::vector<std::vector<ServeResponse>> responses(4);
  for (size_t t = 0; t < 4; ++t) {
    callers.emplace_back([&, t] {
      for (int i = 0; i < 25; ++i) {
        std::vector<ServeRequest> reqs(2);
        reqs[0].op = ServeOp::kWrite;
        reqs[1].op = ServeOp::kRead;
        for (ServeRequest& req : reqs) {
          req.lba = static_cast<uint64_t>(t) * 64 + static_cast<uint64_t>(i);
          req.handle = handle.value();
        }
        reqs[0].data = FillPage(reqs[0].lba, 1);
        for (ServeResponse& resp : service.Call(std::move(reqs))) {
          responses[t].push_back(std::move(resp));
        }
      }
    });
  }
  service.Shutdown();  // races the callers on purpose
  for (std::thread& c : callers) {
    c.join();
  }
  // Every request gets a response -- a real one or a clean rejection.
  uint64_t rejected = 0;
  for (const auto& thread_responses : responses) {
    ASSERT_EQ(thread_responses.size(), 50u);
    for (const ServeResponse& resp : thread_responses) {
      EXPECT_TRUE(resp.status.ok() || resp.status.code() == StatusCode::kUnavailable ||
                  resp.status.code() == StatusCode::kNotFound)
          << resp.status.ToString();
      if (resp.status.code() == StatusCode::kUnavailable) {
        ++rejected;
      }
    }
  }
  const ServeStats stats = service.Stats();
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.submitted + stats.rejected, 200u);
}

}  // namespace
}  // namespace sos::serve
