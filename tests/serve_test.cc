// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Unit and conformance tests for the serve layer (DESIGN.md §14): the
// weighted QoS scheduler, the sosd wire protocol (round-trip,
// malformed-input and fuzz conformance), the AsyncBlockService in
// deterministic pump mode -- including the batch-vs-serial equivalence the
// coalescer must preserve -- and the sosd accept loop's thread lifecycle.
// The concurrent harness lives in serve_stress_test.cc.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <string>
#include <thread>

#include "src/common/rng.h"
#include "src/serve/client.h"
#include "src/serve/qos.h"
#include "src/serve/server.h"
#include "src/serve/service.h"
#include "src/serve/wire.h"
#include "src/sos/sos_device.h"

#include <malloc.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace sos::serve {
namespace {

// --- QosScheduler -----------------------------------------------------------

Pending MakePending(QosClass cls, uint64_t seq, ServeOp op = ServeOp::kRead, uint64_t lba = 0) {
  Pending p;
  p.cls = cls;
  p.seq = seq;
  p.req.op = op;
  p.req.lba = lba;
  return p;
}

TEST(QosSchedulerTest, QosOffIsGlobalFifo) {
  QosScheduler sched(/*qos_enabled=*/false, QosWeights{});
  sched.Enqueue(MakePending(QosClass::kMaintenance, 0));
  sched.Enqueue(MakePending(QosClass::kSysRead, 1));
  sched.Enqueue(MakePending(QosClass::kBulk, 2));
  for (uint64_t want = 0; want < 3; ++want) {
    auto next = sched.Next();
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(next->seq, want);
  }
  EXPECT_FALSE(sched.Next().has_value());
}

TEST(QosSchedulerTest, WeightedDispatchFollowsPriorityAndCredits) {
  // Weights 2/1/1/1 and a full backlog: one cycle must serve sys_read twice
  // and each other class once, in priority order.
  QosWeights weights;
  weights.weights[0] = 2;
  weights.weights[1] = 1;
  weights.weights[2] = 1;
  weights.weights[3] = 1;
  QosScheduler sched(/*qos_enabled=*/true, weights);
  uint64_t seq = 0;
  for (int i = 0; i < 3; ++i) {
    for (uint32_t c = 0; c < kNumQosClasses; ++c) {
      sched.Enqueue(MakePending(static_cast<QosClass>(c), seq++));
    }
  }
  std::vector<QosClass> order;
  for (int i = 0; i < 5; ++i) {
    order.push_back(sched.Next()->cls);
  }
  const std::vector<QosClass> want = {QosClass::kSysRead, QosClass::kSysRead, QosClass::kSysWrite,
                                      QosClass::kBulk, QosClass::kMaintenance};
  EXPECT_EQ(order, want);
}

TEST(QosSchedulerTest, SysReadWaitIsBoundedBehindBulkBacklog) {
  // 64 bulk requests queued first; a late sys read must still dispatch
  // within one weight cycle (here: at most weights.bulk + weights.maint
  // dispatches after it arrives), not after the whole bulk run.
  QosScheduler sched(/*qos_enabled=*/true, QosWeights{});
  for (uint64_t i = 0; i < 64; ++i) {
    sched.Enqueue(MakePending(QosClass::kBulk, i));
  }
  sched.Enqueue(MakePending(QosClass::kSysRead, 1000));
  size_t position = 0;
  for (;; ++position) {
    auto next = sched.Next();
    ASSERT_TRUE(next.has_value());
    if (next->cls == QosClass::kSysRead) {
      break;
    }
  }
  const QosWeights defaults;
  EXPECT_LE(position, static_cast<size_t>(defaults.weights[2] + defaults.weights[3]));
}

TEST(QosSchedulerTest, LowPriorityIsNeverStarved) {
  // Keep sys traffic backlogged; maintenance must still get its weight share.
  QosScheduler sched(/*qos_enabled=*/true, QosWeights{});
  uint64_t seq = 0;
  for (int i = 0; i < 100; ++i) {
    sched.Enqueue(MakePending(QosClass::kSysRead, seq++));
  }
  sched.Enqueue(MakePending(QosClass::kMaintenance, seq++));
  bool maintenance_served = false;
  for (int i = 0; i < 30 && !maintenance_served; ++i) {
    maintenance_served = sched.Next()->cls == QosClass::kMaintenance;
  }
  EXPECT_TRUE(maintenance_served);
}

TEST(QosSchedulerTest, AdmissionCapsBulkAtHalfDepth) {
  QosScheduler sched(/*qos_enabled=*/true, QosWeights{});
  const size_t depth = 8;
  size_t admitted = 0;
  while (sched.HasRoom(QosClass::kBulk, depth)) {
    sched.Enqueue(MakePending(QosClass::kBulk, admitted++));
  }
  EXPECT_EQ(admitted, depth / 2);
  EXPECT_TRUE(sched.HasRoom(QosClass::kSysRead, depth));  // sys unaffected
}

TEST(QosSchedulerTest, TakeAdjacentMatchesClassOpLbaHandle) {
  QosScheduler sched(/*qos_enabled=*/true, QosWeights{});
  sched.Enqueue(MakePending(QosClass::kBulk, 0, ServeOp::kRead, 10));
  sched.Enqueue(MakePending(QosClass::kBulk, 1, ServeOp::kWrite, 11));  // wrong op
  sched.Enqueue(MakePending(QosClass::kBulk, 2, ServeOp::kRead, 11));   // match
  auto taken = sched.TakeAdjacent(QosClass::kBulk, ServeOp::kRead, 11, PlacementHandle(), 32);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->seq, 2u);
  EXPECT_EQ(sched.size(), 2u);
  // No further adjacent read at 11.
  EXPECT_FALSE(
      sched.TakeAdjacent(QosClass::kBulk, ServeOp::kRead, 11, PlacementHandle(), 32).has_value());
}

// --- Wire protocol ----------------------------------------------------------

TEST(WireTest, RequestRoundTrip) {
  Frame frame;
  frame.type = FrameType::kWrite;
  frame.lba = 0x0123456789abcdefull;
  frame.count = 3;
  frame.handle_slot = 5;
  frame.payload = {1, 2, 3, 4, 5, 6};
  std::vector<uint8_t> bytes;
  AppendFrame(bytes, frame);
  ASSERT_EQ(bytes.size(), kWireHeaderSize + 6);

  size_t consumed = 0;
  auto parsed = ParseFrame(bytes, &consumed);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(parsed.value().type, FrameType::kWrite);
  EXPECT_FALSE(parsed.value().reply);
  EXPECT_EQ(parsed.value().lba, frame.lba);
  EXPECT_EQ(parsed.value().count, 3u);
  EXPECT_EQ(parsed.value().handle_slot, 5u);
  EXPECT_EQ(parsed.value().payload, frame.payload);
}

TEST(WireTest, ReplyRoundTripCarriesStatusAndDegraded) {
  Frame frame;
  frame.type = FrameType::kRead;
  frame.reply = true;
  frame.status = StatusCode::kDataLoss;
  frame.degraded = true;
  frame.payload = {9, 9};
  std::vector<uint8_t> bytes;
  AppendFrame(bytes, frame);
  size_t consumed = 0;
  auto parsed = ParseFrame(bytes, &consumed);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().reply);
  EXPECT_EQ(parsed.value().status, StatusCode::kDataLoss);
  EXPECT_TRUE(parsed.value().degraded);
}

TEST(WireTest, IncompleteBytesAreRetryableNotMalformed) {
  Frame frame;
  frame.type = FrameType::kTrim;
  frame.lba = 42;
  std::vector<uint8_t> bytes;
  AppendFrame(bytes, frame);
  for (size_t len = 0; len < bytes.size(); ++len) {
    size_t consumed = 0;
    auto parsed = ParseFrame(std::span<const uint8_t>(bytes.data(), len), &consumed);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kUnavailable) << "prefix length " << len;
  }
}

TEST(WireTest, MalformedHeadersAreRejected) {
  Frame frame;
  frame.type = FrameType::kRead;
  std::vector<uint8_t> good;
  AppendFrame(good, frame);

  auto expect_invalid = [](std::vector<uint8_t> bytes, const char* what) {
    size_t consumed = 0;
    auto parsed = ParseFrame(bytes, &consumed);
    ASSERT_FALSE(parsed.ok()) << what;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << what;
  };

  std::vector<uint8_t> bad = good;
  bad[0] = 'X';
  expect_invalid(bad, "bad magic");

  bad = good;
  bad[2] = 99;
  expect_invalid(bad, "bad version");

  bad = good;
  bad[3] = 0x7f;  // not a FrameType
  expect_invalid(bad, "unknown type");

  bad = good;
  bad[4] = 200;  // not a StatusCode
  expect_invalid(bad, "unknown status");

  bad = good;
  bad[5] |= 0x02;  // reserved flag bit
  expect_invalid(bad, "reserved flag bits");

  bad = good;
  bad[6] = 1;  // reserved header byte
  expect_invalid(bad, "reserved bytes");

  bad = good;
  bad[18] = 0xff;  // payload_len ~16MiB > kMaxFramePayload
  expect_invalid(bad, "oversized payload");

  bad = good;
  bad[22] = 0xff;  // count > kMaxFrameCount
  expect_invalid(bad, "oversized count");

  bad = good;
  bad[5] |= 0x01;  // degraded flag on a request
  expect_invalid(bad, "degraded request");
}

TEST(WireTest, SpecCodecRoundTrip) {
  PlacementSpec spec(Durability::kDegradable, LifetimeHint::kShort, UpdateFrequency::kFrequent,
                     "thumbs");
  auto decoded = DecodeSpec(EncodeSpec(spec));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().durability, Durability::kDegradable);
  EXPECT_EQ(decoded.value().lifetime, LifetimeHint::kShort);
  EXPECT_EQ(decoded.value().update_frequency, UpdateFrequency::kFrequent);
  EXPECT_EQ(decoded.value().label, "thumbs");

  EXPECT_EQ(DecodeSpec(std::vector<uint8_t>{0, 1}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodeSpec(std::vector<uint8_t>{9, 0, 0}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WireTest, FuzzedBytesNeverParseOutOfBounds) {
  // Seeded adversarial streams: random bytes, and random corruptions of a
  // valid frame. The parser must always answer Ok / kUnavailable /
  // kInvalidArgument without reading past the buffer (ASan/UBSan enforce
  // the memory-safety half in CI).
  Rng rng(DeriveSeed({0x66757a7aull /* "fuzz" */}));
  Frame valid;
  valid.type = FrameType::kWrite;
  valid.payload.assign(32, 0xab);
  std::vector<uint8_t> seedbytes;
  AppendFrame(seedbytes, valid);

  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<uint8_t> bytes;
    if (iter % 2 == 0) {
      bytes.resize(rng.NextBounded(96));
      for (auto& b : bytes) {
        b = static_cast<uint8_t>(rng.NextU64());
      }
    } else {
      bytes = seedbytes;
      const size_t flips = 1 + rng.NextBounded(4);
      for (size_t f = 0; f < flips; ++f) {
        bytes[rng.NextBounded(bytes.size())] ^= static_cast<uint8_t>(1 + rng.NextU64() % 255);
      }
    }
    size_t consumed = 0;
    auto parsed = ParseFrame(bytes, &consumed);
    if (parsed.ok()) {
      EXPECT_LE(consumed, bytes.size());
    } else {
      EXPECT_TRUE(parsed.status().code() == StatusCode::kUnavailable ||
                  parsed.status().code() == StatusCode::kInvalidArgument)
          << parsed.status().ToString();
    }
  }
}

// --- AsyncBlockService (pump mode) ------------------------------------------

SosDeviceConfig SmallDeviceConfig(uint64_t seed) {
  SosDeviceConfig config;
  config.nand.num_blocks = 48;
  config.nand.wordlines_per_block = 8;
  config.nand.page_size_bytes = 512;
  config.nand.seed = seed;
  config.nand.store_payloads = true;
  config.spare_ecc = EccPreset::kWeakBch;  // checkable degradable reads
  return config;
}

std::vector<uint8_t> FillPage(uint64_t lba, uint32_t version) {
  return std::vector<uint8_t>(512, static_cast<uint8_t>(lba * 37 + version * 101 + 1));
}

TEST(ServeServiceTest, PumpModeReadYourWrites) {
  SimClock clock;
  SosDevice device(SmallDeviceConfig(3), &clock);
  AsyncBlockService service(&device, &clock, ServeConfig{});
  InProcessClient client(&service);

  auto handle = client.OpenPlacement({Durability::kCritical});
  ASSERT_TRUE(handle.ok());

  for (uint64_t lba = 0; lba < 16; ++lba) {
    ASSERT_TRUE(client.Write(lba, FillPage(lba, 1), handle.value()).ok());
  }
  for (uint64_t lba = 0; lba < 16; ++lba) {
    auto read = client.Read(lba, handle.value());
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value().data, FillPage(lba, 1)) << "lba " << lba;
  }
  // Overwrite, then re-read: latest version wins.
  ASSERT_TRUE(client.Write(5, FillPage(5, 2), handle.value()).ok());
  EXPECT_EQ(client.Read(5, handle.value()).value().data, FillPage(5, 2));

  EXPECT_EQ(client.Read(4000, PlacementHandle()).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(client.Trim(5).ok());
  EXPECT_EQ(client.Read(5, PlacementHandle()).status().code(), StatusCode::kNotFound);

  auto described = client.DescribePlacement(handle.value());
  ASSERT_TRUE(described.ok());
  EXPECT_EQ(described.value().durability, Durability::kCritical);
  EXPECT_TRUE(client.Flush().ok());
  EXPECT_TRUE(client.ClosePlacement(handle.value()).ok());

  const ServeStats stats = service.Stats();
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_GT(stats.per_class[0].completed, 0u);  // sys reads
  EXPECT_GT(stats.per_class[1].completed, 0u);  // sys writes
}

TEST(ServeServiceTest, ClassificationFollowsHandleDurability) {
  SimClock clock;
  SosDevice device(SmallDeviceConfig(4), &clock);
  AsyncBlockService service(&device, &clock, ServeConfig{});
  InProcessClient client(&service);

  auto critical = client.OpenPlacement({Durability::kCritical});
  auto degradable = client.OpenPlacement({Durability::kDegradable});
  ASSERT_TRUE(critical.ok());
  ASSERT_TRUE(degradable.ok());
  ASSERT_TRUE(client.Write(1, FillPage(1, 1), critical.value()).ok());
  ASSERT_TRUE(client.Write(2, FillPage(2, 1), degradable.value()).ok());
  ASSERT_TRUE(client.Read(1, critical.value()).ok());
  ASSERT_TRUE(client.Read(2, degradable.value()).ok());

  const ServeStats stats = service.Stats();
  EXPECT_EQ(stats.per_class[static_cast<int>(QosClass::kSysWrite)].completed, 1u);
  EXPECT_EQ(stats.per_class[static_cast<int>(QosClass::kSysRead)].completed, 1u);
  EXPECT_EQ(stats.per_class[static_cast<int>(QosClass::kBulk)].completed, 2u);
}

TEST(ServeServiceTest, AdjacentReadsCoalesceIntoOneBatch) {
  SimClock clock;
  SosDevice device(SmallDeviceConfig(5), &clock);
  AsyncBlockService service(&device, &clock, ServeConfig{});
  InProcessClient client(&service);
  auto handle = client.OpenPlacement({Durability::kCritical});
  ASSERT_TRUE(handle.ok());
  for (uint64_t lba = 0; lba < 8; ++lba) {
    ASSERT_TRUE(client.Write(lba, FillPage(lba, 1), handle.value()).ok());
  }
  const uint64_t batches_before = service.Stats().batches;

  auto batch = client.ReadBatch(0, 8, handle.value());
  ASSERT_TRUE(batch.ok());
  for (uint64_t lba = 0; lba < 8; ++lba) {
    EXPECT_EQ(batch.value()[lba].data, FillPage(lba, 1)) << "lba " << lba;
  }
  const ServeStats stats = service.Stats();
  EXPECT_EQ(stats.batches, batches_before + 1);  // one coalesced dispatch
  EXPECT_GE(stats.coalesced, 7u);
}

TEST(ServeServiceTest, BatchAndSerialPathsReturnIdenticalData) {
  // Same seed, two devices: one written/read through coalesced batches, one
  // through the serial device API. Every logical block must match bit for
  // bit -- the coalescer may change op grouping but never content.
  SimClock clock_a;
  SosDevice device_a(SmallDeviceConfig(6), &clock_a);
  AsyncBlockService service(&device_a, &clock_a, ServeConfig{});
  InProcessClient client(&service);
  auto handle_a = client.OpenPlacement({Durability::kCritical});
  ASSERT_TRUE(handle_a.ok());

  SimClock clock_b;
  SosDevice device_b(SmallDeviceConfig(6), &clock_b);
  auto handle_b = device_b.OpenPlacement({Durability::kCritical});
  ASSERT_TRUE(handle_b.ok());

  for (uint64_t lba = 0; lba < 24; ++lba) {
    const auto page = FillPage(lba, 7);
    ASSERT_TRUE(client.Write(lba, page, handle_a.value()).ok());
    ASSERT_TRUE(device_b.Write(lba, page, handle_b.value()).ok());
  }
  auto batched = client.ReadBatch(0, 24, handle_a.value());
  ASSERT_TRUE(batched.ok());
  for (uint64_t lba = 0; lba < 24; ++lba) {
    auto serial = device_b.Read(lba);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ(batched.value()[lba].data, serial.value().data) << "lba " << lba;
  }
}

TEST(ServeServiceTest, ErrorsPropagateThroughFutures) {
  SimClock clock;
  SosDevice device(SmallDeviceConfig(7), &clock);
  AsyncBlockService service(&device, &clock, ServeConfig{});
  InProcessClient client(&service);

  // Write without an open handle.
  EXPECT_EQ(client.Write(0, FillPage(0, 1), PlacementHandle()).code(),
            StatusCode::kInvalidArgument);
  // Describe of a never-opened slot.
  EXPECT_EQ(client.DescribePlacement(PlacementHandle(3)).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.Stats().per_class[static_cast<int>(QosClass::kBulk)].errors, 1u);
}

TEST(ServeServiceTest, SubmitAfterShutdownResolvesUnavailable) {
  SimClock clock;
  SosDevice device(SmallDeviceConfig(8), &clock);
  AsyncBlockService service(&device, &clock, ServeConfig{});
  service.Shutdown();
  ServeRequest req;
  req.op = ServeOp::kRead;
  auto response = service.Submit(std::move(req)).get();
  EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.Stats().rejected, 1u);
}

TEST(ServeServiceTest, LatencyIsSimTimeNotWallTime) {
  SimClock clock;
  SosDevice device(SmallDeviceConfig(9), &clock);
  AsyncBlockService service(&device, &clock, ServeConfig{});
  InProcessClient client(&service);
  auto handle = client.OpenPlacement({Durability::kCritical});
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(client.Write(0, FillPage(0, 1), handle.value()).ok());
  ASSERT_TRUE(client.Read(0, handle.value()).ok());
  const LatencySummary reads = service.Latency(QosClass::kSysRead);
  EXPECT_EQ(reads.count, 1u);
  EXPECT_GT(reads.p50, 0.0);  // NAND read advanced the sim clock
  EXPECT_LE(reads.p50, reads.p999);
}

// --- Socket transport -------------------------------------------------------

struct SocketHarness {
  SimClock clock;
  std::unique_ptr<SosDevice> device;
  std::unique_ptr<AsyncBlockService> service;
  std::unique_ptr<SosdServer> server;
  std::thread server_thread;
  int client_fd = -1;

  explicit SocketHarness(uint64_t seed, size_t workers = 0) {
    device = std::make_unique<SosDevice>(SmallDeviceConfig(seed), &clock);
    ServeConfig config;
    config.workers = workers;
    service = std::make_unique<AsyncBlockService>(device.get(), &clock, config);
    server = std::make_unique<SosdServer>(service.get());
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    client_fd = fds[0];
    const int server_fd = fds[1];
    server_thread = std::thread([this, server_fd] {
      server->ServeConnection(server_fd);
      ::close(server_fd);
    });
  }

  ~SocketHarness() {
    server_thread.join();
    service->Shutdown();
  }
};

TEST(SosdServerTest, SocketClientRoundTrip) {
  SocketHarness harness(21);
  {
    SocketClient client(harness.client_fd);  // closes fd -> server exits
    auto handle = client.OpenPlacement({Durability::kCritical, LifetimeHint::kLong});
    ASSERT_TRUE(handle.ok());

    for (uint64_t lba = 0; lba < 8; ++lba) {
      ASSERT_TRUE(client.Write(lba, FillPage(lba, 1), handle.value()).ok());
    }
    auto one = client.Read(3, handle.value());
    ASSERT_TRUE(one.ok());
    EXPECT_EQ(one.value().data, FillPage(3, 1));

    auto batch = client.ReadBatch(0, 8, handle.value());
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch.value().size(), 8u);
    for (uint64_t lba = 0; lba < 8; ++lba) {
      EXPECT_EQ(batch.value()[lba].data, FillPage(lba, 1));
    }

    auto described = client.DescribePlacement(handle.value());
    ASSERT_TRUE(described.ok());
    EXPECT_EQ(described.value().lifetime, LifetimeHint::kLong);

    EXPECT_EQ(client.Read(4000, PlacementHandle()).status().code(), StatusCode::kNotFound);
    ASSERT_TRUE(client.Trim(3).ok());
    EXPECT_EQ(client.Read(3, PlacementHandle()).status().code(), StatusCode::kNotFound);
    EXPECT_TRUE(client.Flush().ok());
    EXPECT_TRUE(client.ClosePlacement(handle.value()).ok());
  }
}

TEST(SosdServerTest, SocketClientAgainstAsyncWorkers) {
  SocketHarness harness(22, /*workers=*/2);
  {
    SocketClient client(harness.client_fd);
    auto handle = client.OpenPlacement({Durability::kCritical});
    ASSERT_TRUE(handle.ok());
    for (uint64_t lba = 0; lba < 12; ++lba) {
      ASSERT_TRUE(client.Write(lba, FillPage(lba, 2), handle.value()).ok());
    }
    auto batch = client.ReadBatch(0, 12, handle.value());
    ASSERT_TRUE(batch.ok());
    for (uint64_t lba = 0; lba < 12; ++lba) {
      EXPECT_EQ(batch.value()[lba].data, FillPage(lba, 2));
    }
  }
}

TEST(SosdServerTest, MalformedFrameGetsErrorReplyAndDisconnect) {
  SocketHarness harness(23);
  std::vector<uint8_t> garbage(64, 0x5a);  // wrong magic
  ASSERT_EQ(::write(harness.client_fd, garbage.data(), garbage.size()),
            static_cast<ssize_t>(garbage.size()));

  // The server answers with one kInvalidArgument error reply, then closes.
  std::vector<uint8_t> buffer;
  uint8_t chunk[256];
  for (;;) {
    const ssize_t n = ::read(harness.client_fd, chunk, sizeof(chunk));
    if (n <= 0) {
      break;
    }
    buffer.insert(buffer.end(), chunk, chunk + n);
  }
  size_t consumed = 0;
  auto reply = ParseFrame(buffer, &consumed);
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply.value().reply);
  EXPECT_EQ(reply.value().status, StatusCode::kInvalidArgument);
  ::close(harness.client_fd);
}

TEST(SosdServerTest, FuzzedStreamsNeverWedgeTheServer) {
  // Adversarial connection fuzz: each round opens a fresh socketpair, sends
  // a seeded mix of garbage and corrupted frames, and the server must
  // terminate the connection (never hang, never crash).
  Rng rng(DeriveSeed({0x736f636bull /* "sock" */}));
  SimClock clock;
  SosDevice device(SmallDeviceConfig(24), &clock);
  AsyncBlockService service(&device, &clock, ServeConfig{});
  SosdServer server(&service);

  Frame valid;
  valid.type = FrameType::kWrite;
  valid.payload.assign(16, 1);
  std::vector<uint8_t> seedbytes;
  AppendFrame(seedbytes, valid);

  for (int round = 0; round < 40; ++round) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::thread server_thread([&server, fd = fds[1]] {
      server.ServeConnection(fd);
      ::close(fd);
    });
    std::vector<uint8_t> bytes = seedbytes;
    const size_t flips = 1 + rng.NextBounded(6);
    for (size_t f = 0; f < flips; ++f) {
      bytes[rng.NextBounded(bytes.size())] ^= static_cast<uint8_t>(1 + rng.NextU64() % 255);
    }
    IgnoreResult(::write(fds[0], bytes.data(), bytes.size()));
    ::shutdown(fds[0], SHUT_WR);
    // Drain whatever the server replies until it closes its end.
    uint8_t sink[256];
    while (::read(fds[0], sink, sizeof(sink)) > 0) {
    }
    ::close(fds[0]);
    server_thread.join();
  }
}

// --- Accept loop ------------------------------------------------------------

// A listening AF_UNIX socket in the abstract namespace (no file to clean
// up), serving `service` through ServeListener on its own thread.
struct ListenerHarness {
  sockaddr_un addr{};
  socklen_t addr_len = 0;
  int listen_fd = -1;
  std::atomic<bool> stop{false};
  SosdServer server;
  std::thread thread;
  std::future<void> returned;

  ListenerHarness(AsyncBlockService* service, const std::string& name) : server(service) {
    addr.sun_family = AF_UNIX;
    const std::string path = name + "." + std::to_string(::getpid());
    std::memcpy(addr.sun_path + 1, path.data(), path.size());  // sun_path[0] == 0: abstract
    addr_len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + 1 + path.size());
    listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), addr_len), 0);
    EXPECT_EQ(::listen(listen_fd, 16), 0);
    std::promise<void> done;
    returned = done.get_future();
    thread = std::thread([this, done = std::move(done)]() mutable {
      server.ServeListener(listen_fd, stop);
      done.set_value();
    });
  }

  ~ListenerHarness() {
    stop.store(true);
    thread.join();
    ::close(listen_fd);
  }

  int Connect() const {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), addr_len), 0);
    return fd;
  }
};

size_t TaskCount() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<size_t>(std::distance(begin(tasks), end(tasks)));
}

// Virtual size of this process in kB. An exited but unjoined thread is gone
// from /proc/self/task at once, yet its stack stays mapped until the join,
// so this is where leaked connection threads show. (Call with malloc held to
// one arena: each extra glibc arena reserves 64 MiB of address space.)
uint64_t VmSizeKb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmSize:") {
      uint64_t kb = 0;
      status >> kb;
      return kb;
    }
  }
  return 0;
}

TEST(SosdServerTest, ListenerJoinsClosedConnections) {
  // Threads contending in malloc would otherwise each add an arena, which
  // moves VmSize by as much as a handful of leaked stacks.
  mallopt(M_ARENA_MAX, 1);
  SimClock clock;
  SosDevice device(SmallDeviceConfig(25), &clock);
  AsyncBlockService service(&device, &clock, ServeConfig{});
  ListenerHarness listener(&service, "sosd-reap");

  // One request per connection proves the server thread ran before the
  // client hangs up.
  const auto cycle = [&listener] {
    SocketClient client(listener.Connect());
    EXPECT_EQ(client.Read(4000, PlacementHandle()).status().code(), StatusCode::kNotFound);
  };
  // Wait (bounded) for the listener to join what the cycles left behind.
  const auto settle = [](size_t tasks, uint64_t vm_kb) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while ((TaskCount() > tasks || VmSizeKb() > vm_kb) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  };
  for (int i = 0; i < 4; ++i) {
    cycle();  // warm the allocator's thread-stack cache
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));  // 3 accept-loop polls
  const size_t tasks_before = TaskCount();
  const uint64_t vm_before_kb = VmSizeKb();

  for (int i = 0; i < 64; ++i) {
    cycle();
  }
  // Slack far below the 64 thread stacks a missing join would keep mapped.
  constexpr uint64_t kSlackKb = 64 * kMiB / kKiB;
  settle(tasks_before, vm_before_kb + kSlackKb);
  EXPECT_LE(TaskCount(), tasks_before);
  EXPECT_LE(VmSizeKb(), vm_before_kb + kSlackKb);
}

TEST(SosdServerTest, ListenerStopsPromptlyWithIdleClientConnected) {
  SimClock clock;
  SosDevice device(SmallDeviceConfig(26), &clock);
  AsyncBlockService service(&device, &clock, ServeConfig{});
  ListenerHarness listener(&service, "sosd-stop");

  const int fd = listener.Connect();
  {
    // A served request puts the connection thread back into read(), idle.
    Frame flush;
    flush.type = FrameType::kFlush;
    std::vector<uint8_t> bytes;
    AppendFrame(bytes, flush);
    ASSERT_EQ(::write(fd, bytes.data(), bytes.size()), static_cast<ssize_t>(bytes.size()));
    uint8_t reply[256];
    ASSERT_GT(::read(fd, reply, sizeof(reply)), 0);
  }

  listener.stop.store(true);
  EXPECT_EQ(listener.returned.wait_for(std::chrono::seconds(1)), std::future_status::ready)
      << "ServeListener still waiting on an idle connection";
  ::close(fd);  // lets a wedged listener finish, so the harness can join it
}

}  // namespace
}  // namespace sos::serve
