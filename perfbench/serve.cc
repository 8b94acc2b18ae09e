// Copyright (c) 2026 The SOS Authors. MIT License.
//
// serve_mixed: a `sosd` child (--workers=2) driven over AF_UNIX by
// SocketClient from a closed loop of two connections. Each connection owns
// its own LBA ranges, one written under a critical placement handle and one
// under a degradable handle, and issues 70/30 reads/writes split evenly
// across the two handles; a fifth of the degradable reads are 8-block
// ReadBatch runs so the service coalesces. Every reply is checked by a
// read-your-writes oracle.
//
// The traced run replays connection 0's op stream three ways -- over the
// socket, through InProcessClient over AsyncBlockService, and directly on
// SosDevice -- so the differences split a request's time into transport,
// service queue and device.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "perfbench/bench.h"
#include "src/common/rng.h"
#include "src/serve/client.h"
#include "src/serve/service.h"
#include "src/sos/sos_device.h"

extern char** environ;

namespace sosbench {
namespace {

using sos::BlockReadResult;
using sos::PlacementHandle;
using sos::serve::QosClass;
using sos::Result;
using sos::Status;

// A 32 MiB die: small enough that the closed loop cycles it many times a
// run, so sosd's memory reaches its steady state.
constexpr uint32_t kBlocks = 128;
constexpr uint32_t kPageSize = 4096;
constexpr uint32_t kWorkers = 2;
constexpr uint32_t kConnections = 2;
constexpr uint64_t kRangeLbas = 256;      // per handle, per connection
constexpr uint64_t kConnectionStride = 1024;
constexpr uint64_t kDegradableOffset = 512;
constexpr uint32_t kBatchBlocks = 8;
constexpr int kSetups = 7;                // setup_s is the median of these
constexpr size_t kReplayOps = 20000;

// --- Op stream ---------------------------------------------------------------

enum class OpKind : uint8_t { kRead, kReadBatch, kWrite };

struct Op {
  OpKind kind = OpKind::kRead;
  bool critical = true;
  uint64_t lba = 0;

  // The class AsyncBlockService schedules the request under.
  QosClass cls() const {
    if (!critical) {
      return QosClass::kBulk;
    }
    return kind == OpKind::kWrite ? QosClass::kSysWrite : QosClass::kSysRead;
  }
};

uint64_t RangeBase(uint32_t conn, bool critical) {
  return conn * kConnectionStride + (critical ? 0 : kDegradableOffset);
}

// Connection `conn`'s seeded op stream; the same (seed, conn) always yields
// the same sequence.
class OpStream {
 public:
  OpStream(uint64_t seed, uint32_t conn)
      : rng_(sos::DeriveSeed({seed, 0x7365727665ull /* "serve" */, conn})), conn_(conn) {}

  Op Next() {
    Op op;
    op.critical = rng_.NextBool(0.5);
    if (rng_.NextBool(0.7)) {
      op.kind = !op.critical && rng_.NextBool(0.2) ? OpKind::kReadBatch : OpKind::kRead;
    } else {
      op.kind = OpKind::kWrite;
    }
    const uint64_t span = op.kind == OpKind::kReadBatch ? kRangeLbas - kBatchBlocks + 1 : kRangeLbas;
    op.lba = RangeBase(conn_, op.critical) + rng_.NextBounded(span);
    return op;
  }

 private:
  sos::Rng rng_;
  uint32_t conn_;
};

// Payload fingerprint: every byte derives from (conn, lba, version), so a
// stale version or another LBA's page never matches.
std::vector<uint8_t> FillPage(uint32_t conn, uint64_t lba, uint32_t version) {
  std::vector<uint8_t> page(kPageSize);
  uint64_t x = sos::DeriveSeed({conn, lba, version});
  for (size_t i = 0; i < page.size(); i += 8) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    std::memcpy(&page[i], &x, 8);
  }
  return page;
}

// --- Oracle ------------------------------------------------------------------

// One connection's view of its LBAs: the last acknowledged version of each.
// A write that failed leaves its LBA's content unspecified until the next
// acknowledged write, so reads of it are not checked.
class Oracle {
 public:
  explicit Oracle(uint32_t conn) : conn_(conn) {}

  void Acked(uint64_t lba, uint32_t version) { versions_[lba] = version; }
  void Unknown(uint64_t lba) { versions_[lba] = 0; }
  uint32_t NextVersion(uint64_t lba) { return ++issued_[lba]; }

  // Checks one read reply; returns an error description, or "" when fine.
  std::string Check(uint64_t lba, bool critical, const BlockReadResult& got) const {
    const auto it = versions_.find(lba);
    if (it == versions_.end() || it->second == 0) {
      return "";
    }
    if (!critical && got.degraded) {
      return "";  // degradable data may come back degraded, but only when flagged
    }
    if (got.data != FillPage(conn_, lba, it->second)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "conn %u %s LBA %" PRIu64 " read differs from acked version %u%s", conn_,
                    critical ? "critical" : "degradable", lba, it->second,
                    got.degraded ? " (flagged degraded)" : " (not flagged)");
      return buf;
    }
    return "";
  }

 private:
  uint32_t conn_;
  std::unordered_map<uint64_t, uint32_t> versions_;  // lba -> acked version (0 = unknown)
  std::unordered_map<uint64_t, uint32_t> issued_;    // lba -> last version sent
};

// --- One connection ----------------------------------------------------------

struct ConnStats {
  uint64_t attempted = 0;  // every op, warm-up included
  uint64_t failed = 0;
  std::vector<double> latency_us[sos::serve::kNumQosClasses];
  std::vector<double> all_us;    // every class, in completion order
  std::vector<int64_t> done_ns;  // completion time of each recorded op
  uint64_t violation_count = 0;
  std::vector<std::string> violations;  // the first few, for the report
};

class Connection {
 public:
  Connection(uint32_t conn, uint64_t seed, sos::serve::BlockServiceClient* client,
             bool inject_payload)
      : conn_(conn), stream_(seed, conn), oracle_(conn), client_(client),
        inject_payload_(inject_payload) {}

  // Opens the two handles and writes version 1 of every owned LBA.
  Status Prefill() {
    auto critical = client_->OpenPlacement({sos::Durability::kCritical, sos::LifetimeHint::kLong});
    auto degradable =
        client_->OpenPlacement({sos::Durability::kDegradable, sos::LifetimeHint::kShort});
    if (!critical.ok()) {
      return critical.status();
    }
    if (!degradable.ok()) {
      return degradable.status();
    }
    critical_ = critical.value();
    degradable_ = degradable.value();
    for (bool is_critical : {true, false}) {
      const uint64_t base = RangeBase(conn_, is_critical);
      for (uint64_t lba = base; lba < base + kRangeLbas; ++lba) {
        const uint32_t version = oracle_.NextVersion(lba);
        if (Status s = client_->Write(lba, FillPage(conn_, lba, version), Handle(is_critical));
            !s.ok()) {
          return s;
        }
        oracle_.Acked(lba, version);
      }
    }
    return Status::Ok();
  }

  // Issues the next op of the stream and checks the reply; its latency is
  // kept when `record` is set.
  void Step(ConnStats* stats, bool record) {
    const Op op = stream_.Next();
    const PlacementHandle handle = Handle(op.critical);
    bool ok = true;
    switch (op.kind) {
      case OpKind::kWrite: {
        const uint32_t version = oracle_.NextVersion(op.lba);
        const std::vector<uint8_t> page = FillPage(conn_, op.lba, version);
        const int64_t start = NowNs();
        ok = client_->Write(op.lba, page, handle).ok();
        Record(op, start, record, stats);
        if (ok) {
          oracle_.Acked(op.lba, version);
        } else {
          oracle_.Unknown(op.lba);
        }
        break;
      }
      case OpKind::kRead: {
        const int64_t start = NowNs();
        Result<BlockReadResult> got = client_->Read(op.lba, handle);
        Record(op, start, record, stats);
        ok = got.ok();
        if (ok) {
          Verify(op.lba, op.critical, &got.value(), stats);
        }
        break;
      }
      case OpKind::kReadBatch: {
        const int64_t start = NowNs();
        Result<std::vector<BlockReadResult>> got = client_->ReadBatch(op.lba, kBatchBlocks, handle);
        Record(op, start, record, stats);
        ok = got.ok() && got.value().size() == kBatchBlocks;
        if (ok) {
          for (uint32_t i = 0; i < kBatchBlocks; ++i) {
            Verify(op.lba + i, op.critical, &got.value()[i], stats);
          }
        }
        break;
      }
    }
    ++stats->attempted;
    if (!ok) {
      ++stats->failed;
    }
  }

 private:
  PlacementHandle Handle(bool critical) const { return critical ? critical_ : degradable_; }

  static void Record(const Op& op, int64_t start_ns, bool record, ConnStats* stats) {
    if (!record) {
      return;
    }
    const int64_t end_ns = NowNs();
    const double us = static_cast<double>(end_ns - start_ns) * 1e-3;
    stats->latency_us[static_cast<size_t>(op.cls())].push_back(us);
    stats->all_us.push_back(us);
    stats->done_ns.push_back(end_ns);
  }

  void Verify(uint64_t lba, bool critical, BlockReadResult* got, ConnStats* stats) {
    if (inject_payload_ && critical && !got->data.empty()) {
      got->data[0] ^= 0x5a;  // self-test: a corrupted payload must fail the run
      inject_payload_ = false;
    }
    std::string error = oracle_.Check(lba, critical, *got);
    if (!error.empty()) {
      ++stats->violation_count;
      if (stats->violations.size() < 8) {
        stats->violations.push_back(std::move(error));
      }
    }
  }

  uint32_t conn_;
  OpStream stream_;
  Oracle oracle_;
  sos::serve::BlockServiceClient* client_;
  bool inject_payload_;
  PlacementHandle critical_;
  PlacementHandle degradable_;
};

// --- sosd child --------------------------------------------------------------

// A running sosd. The destructor stops it (SIGTERM, then SIGKILL) and reaps
// it, so no path out of the benchmark leaves a child behind.
class Sosd {
 public:
  Sosd(const Options& options, int index)
      : socket_(PathStem(options, index) + ".sock"), log_(PathStem(options, index) + ".log") {
    const std::vector<std::string> args = {options.sosd,
                                           "--socket=" + socket_,
                                           "--workers=" + std::to_string(kWorkers),
                                           "--blocks=" + std::to_string(kBlocks),
                                           "--page-size=" + std::to_string(kPageSize),
                                           "--seed=" + std::to_string(options.seed)};
    std::vector<char*> argv;
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 2, log_.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                                     0644);
    if (posix_spawn(&pid_, options.sosd.c_str(), &actions, nullptr, argv.data(), environ) != 0) {
      pid_ = -1;
    }
    posix_spawn_file_actions_destroy(&actions);
  }

  ~Sosd() { (void)Stop(); }

  Sosd(const Sosd&) = delete;
  Sosd& operator=(const Sosd&) = delete;

  // Connects to the socket, retrying until sosd listens (10 s at most).
  Result<int> Connect() const {
    if (pid_ <= 0) {
      return Status(sos::StatusCode::kUnavailable, "could not spawn sosd");
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_.size() >= sizeof(addr.sun_path)) {
      return Status(sos::StatusCode::kInvalidArgument, "socket path too long: " + socket_);
    }
    std::memcpy(addr.sun_path, socket_.c_str(), socket_.size() + 1);
    const int64_t start = NowNs();
    while (SecondsSince(start) < 10.0) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd >= 0 && ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
        return fd;
      }
      if (fd >= 0) {
        ::close(fd);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return Status(sos::StatusCode::kUnavailable, "sosd did not accept on " + socket_);
  }

  double PeakRssMb() const { return sosbench::PeakRssMb(std::to_string(pid_)); }

  // Stops sosd and returns its stderr (the exit line carries ServeStats).
  std::string Stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      const int64_t start = NowNs();
      int status = 0;
      while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (SecondsSince(start) > 10.0) {
          ::kill(pid_, SIGKILL);
          ::waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      pid_ = -1;
    }
    std::ifstream in(log_);
    std::stringstream text;
    text << in.rdbuf();
    ::unlink(log_.c_str());
    ::unlink(socket_.c_str());
    return text.str();
  }

 private:
  static std::string PathStem(const Options& options, int index) {
    return options.run_dir + "/sosd-" + std::to_string(::getpid()) + "-" + std::to_string(index);
  }

  std::string socket_;
  std::string log_;
  pid_t pid_ = -1;
};

// Parses "[sosd] served N requests in B batches (C coalesced)".
bool ParseExitLine(const std::string& log, uint64_t* served, uint64_t* batches,
                   uint64_t* coalesced) {
  const size_t at = log.find("[sosd] served ");
  return at != std::string::npos &&
         std::sscanf(log.c_str() + at, "[sosd] served %" SCNu64 " requests in %" SCNu64
                                       " batches (%" SCNu64 " coalesced)",
                     served, batches, coalesced) == 3;
}

struct LoopResult {
  ConnStats total;
  double ops_per_s = 0.0;  // median over the measured one-second windows
};

// The measured closed loop: one thread per connection, each issuing its next
// op as soon as the previous reply arrives, until `seconds` pass. The first
// `warmup_s` of it is run but not recorded.
LoopResult ClosedLoop(std::vector<std::unique_ptr<Connection>>& conns, double warmup_s,
                      double seconds) {
  std::vector<ConnStats> stats(conns.size());
  const int64_t start = NowNs();
  {
    std::vector<std::jthread> threads;
    for (size_t c = 0; c < conns.size(); ++c) {
      threads.emplace_back([&, c] {
        while (SecondsSince(start) < warmup_s) {
          conns[c]->Step(&stats[c], false);
        }
        while (SecondsSince(start) < warmup_s + seconds) {
          conns[c]->Step(&stats[c], true);
        }
      });
    }
  }
  LoopResult out;
  const int64_t measure_start = start + static_cast<int64_t>(warmup_s * 1e9);
  std::vector<double> window_ops(std::max<size_t>(1, static_cast<size_t>(seconds)), 0.0);
  for (ConnStats& s : stats) {
    for (int64_t done : s.done_ns) {
      const auto window = static_cast<size_t>((done - measure_start) / 1'000'000'000);
      if (done >= measure_start && window < window_ops.size()) {
        window_ops[window] += 1.0;
      }
    }
    out.total.attempted += s.attempted;
    out.total.failed += s.failed;
    out.total.violation_count += s.violation_count;
    for (uint32_t k = 0; k < sos::serve::kNumQosClasses; ++k) {
      out.total.latency_us[k].insert(out.total.latency_us[k].end(), s.latency_us[k].begin(),
                                     s.latency_us[k].end());
    }
    out.total.violations.insert(out.total.violations.end(), s.violations.begin(),
                                s.violations.end());
  }
  out.ops_per_s = Median(window_ops);
  std::string windows;
  for (double ops : window_ops) {
    windows += " " + std::to_string(static_cast<uint64_t>(ops));
  }
  std::fprintf(stderr, "[sosbench] ops per one-second window:%s\n", windows.c_str());
  return out;
}

sos::SosDeviceConfig SosdDeviceConfig(uint64_t seed) {
  // sosd's own defaults (tools/sosd/main.cc) with the flags this benchmark passes.
  sos::SosDeviceConfig config;
  config.nand.num_blocks = kBlocks;
  config.nand.wordlines_per_block = 64;
  config.nand.page_size_bytes = kPageSize;
  config.nand.seed = seed;
  return config;
}

// Direct SosDevice calls behind the client interface, so the same
// Connection code replays the op stream on the bare device.
class DirectClient final : public sos::serve::BlockServiceClient {
 public:
  explicit DirectClient(sos::SosDevice* device) : device_(device) {}

  Result<PlacementHandle> OpenPlacement(const sos::PlacementSpec& spec) override {
    return device_->OpenPlacement(spec);
  }
  Status ClosePlacement(PlacementHandle handle) override { return device_->ClosePlacement(handle); }
  Result<sos::PlacementSpec> DescribePlacement(PlacementHandle handle) override {
    return device_->DescribePlacement(handle);
  }
  Status Write(uint64_t lba, std::span<const uint8_t> data, PlacementHandle handle) override {
    return device_->Write(lba, data, handle);
  }
  Result<BlockReadResult> Read(uint64_t lba, PlacementHandle /*hint*/) override {
    return device_->Read(lba);
  }
  Result<std::vector<BlockReadResult>> ReadBatch(uint64_t lba, uint32_t count,
                                                 PlacementHandle /*hint*/) override {
    std::vector<BlockReadResult> out;
    for (Result<BlockReadResult>& r : device_->ReadBatch(lba, count)) {
      if (!r.ok()) {
        return r.status();
      }
      out.push_back(std::move(r.value()));
    }
    return out;
  }
  Status Trim(uint64_t lba) override { return device_->Trim(lba); }
  Status Flush() override { return Status::Ok(); }

 private:
  sos::SosDevice* device_;
};

// Replays connection 0's first kReplayOps ops through `client` after the
// same prefill; returns per-op latencies.
ConnStats Replay(uint64_t seed, sos::serve::BlockServiceClient* client, RunResult* out,
                 const char* path) {
  ConnStats stats;
  Connection conn(0, seed, client, false);
  if (Status s = conn.Prefill(); !s.ok()) {
    out->Fail(std::string(path) + " replay prefill: " + s.ToString());
    return stats;
  }
  for (size_t i = 0; i < kReplayOps; ++i) {
    conn.Step(&stats, true);
  }
  for (const std::string& v : stats.violations) {
    out->Fail(std::string(path) + " replay: " + v);
  }
  return stats;
}

// Spawns sosd, connects every connection and prefills. Returns the seconds
// it took, or nothing after recording the failure in `out`.
std::optional<double> SetUp(const Options& options, int index, std::unique_ptr<Sosd>* sosd,
             std::vector<std::unique_ptr<sos::serve::SocketClient>>* clients,
             std::vector<std::unique_ptr<Connection>>* conns, RunResult* out) {
  const int64_t start = NowNs();
  *sosd = std::make_unique<Sosd>(options, index);
  clients->clear();
  conns->clear();
  for (uint32_t c = 0; c < kConnections; ++c) {
    Result<int> fd = (*sosd)->Connect();
    if (!fd.ok()) {
      out->Fail(fd.status().ToString());
      return std::nullopt;
    }
    clients->push_back(std::make_unique<sos::serve::SocketClient>(fd.value()));
    conns->push_back(std::make_unique<Connection>(c, options.seed, clients->back().get(),
                                                  options.inject == "payload" && c == 0));
    if (Status s = conns->back()->Prefill(); !s.ok()) {
      out->Fail("prefill: " + s.ToString());
      return std::nullopt;
    }
  }
  return SecondsSince(start);
}

}  // namespace

RunResult RunServe(const Options& options) {
  RunResult out;
  std::unique_ptr<Sosd> sosd;
  std::vector<std::unique_ptr<sos::serve::SocketClient>> clients;
  std::vector<std::unique_ptr<Connection>> conns;

  // Several full set-ups; the last one stays up for the measurement.
  std::vector<double> setup_s;
  const int setups = options.trace ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    if (i > 0) {
      conns.clear();
      clients.clear();
      sosd.reset();
    }
    const std::optional<double> s = SetUp(options, i, &sosd, &clients, &conns, &out);
    if (!s.has_value()) {
      return out;
    }
    setup_s.push_back(*s);
  }

  const double measure_s = options.trace ? options.seconds / 2 : options.seconds;
  LoopResult loop = ClosedLoop(conns, std::min(1.0, measure_s / 10), measure_s);
  const double sosd_rss_mb = sosd->PeakRssMb();
  conns.clear();
  clients.clear();  // closes the connections so sosd's threads exit
  const std::string log = sosd->Stop();
  for (const std::string& v : loop.total.violations) {
    out.Fail(v);
  }
  out.attempted = loop.total.attempted;
  out.failed = loop.total.failed;
  const ConnStats& t = loop.total;
  std::fprintf(stderr, "[sosbench] serve_mixed seed=%" PRIu64 ": %" PRIu64 " requests, %" PRIu64
               " failed, %" PRIu64 " oracle violations\n",
               options.seed, t.attempted, t.failed, t.violation_count);

  if (!options.trace) {
    out.Add("setup_s", Median(setup_s), "s");
    out.Add("work_per_s", loop.ops_per_s, "1/s");
    out.Add("peak_rss_mb", sosd_rss_mb, "MB");
    return out;
  }

  uint64_t served = 0;
  uint64_t batches = 0;
  uint64_t coalesced = 0;
  if (!ParseExitLine(log, &served, &batches, &coalesced)) {
    out.Fail("sosd exit line missing: " + log);
    return out;
  }

  // The same op stream three ways.
  ConnStats socket_stats;
  {
    Sosd replay_sosd(options, setups);
    Result<int> fd = replay_sosd.Connect();
    if (!fd.ok()) {
      out.Fail(fd.status().ToString());
      return out;
    }
    sos::serve::SocketClient client(fd.value());
    socket_stats = Replay(options.seed, &client, &out, "socket");
  }
  ConnStats inproc_stats;
  {
    sos::SimClock clock;
    sos::SosDevice device(SosdDeviceConfig(options.seed), &clock);
    sos::serve::ServeConfig config;
    config.workers = kWorkers;
    sos::serve::AsyncBlockService service(&device, &clock, config);
    sos::serve::InProcessClient client(&service);
    inproc_stats = Replay(options.seed, &client, &out, "in-process");
    service.Shutdown();
  }
  ConnStats device_stats;
  {
    sos::SimClock clock;
    sos::SosDevice device(SosdDeviceConfig(options.seed), &clock);
    DirectClient client(&device);
    device_stats = Replay(options.seed, &client, &out, "device");
  }

  const double socket_p50 = Percentile(socket_stats.all_us, 0.5);
  const double inproc_p50 = Percentile(inproc_stats.all_us, 0.5);
  const double device_p50 = Percentile(device_stats.all_us, 0.5);
  double device_sum_us = 0.0;
  for (double us : device_stats.all_us) {
    device_sum_us += us;
  }
  const auto share = [](uint64_t num, uint64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  out.Add("serve.socket_rtt_p50_us", socket_p50, "us");
  out.Add("serve.inproc_rtt_p50_us", inproc_p50, "us");
  out.Add("serve.device_ns_per_op",
          device_stats.all_us.empty() ? 0.0
                                      : device_sum_us * 1e3 /
                                            static_cast<double>(device_stats.all_us.size()),
          "ns");
  out.Add("serve.transport_us", socket_p50 - inproc_p50, "us");
  out.Add("serve.queue_us", inproc_p50 - device_p50, "us");
  out.Add("serve.batches", static_cast<double>(batches), "count");
  out.Add("serve.coalesced_share", share(coalesced, served), "ratio");
  out.Add("serve.client.sys_read_p50_us",
          Percentile(t.latency_us[static_cast<size_t>(QosClass::kSysRead)], 0.5), "us");
  out.Add("serve.client.sys_read_p99_us",
          Percentile(t.latency_us[static_cast<size_t>(QosClass::kSysRead)], 0.99), "us");
  out.Add("serve.client.sys_write_p99_us",
          Percentile(t.latency_us[static_cast<size_t>(QosClass::kSysWrite)], 0.99), "us");
  out.Add("serve.client.bulk_p99_us",
          Percentile(t.latency_us[static_cast<size_t>(QosClass::kBulk)], 0.99), "us");
  out.Add("failed_share", share(t.failed, t.attempted), "ratio");
  return out;
}

}  // namespace sosbench
