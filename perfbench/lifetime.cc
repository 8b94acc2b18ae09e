// Copyright (c) 2026 The SOS Authors. MIT License.
//
// The two lifetime workloads: a 3-year SOS device under the mobile mix
// (lifetime_mobile) or under CacheLib-style TTL churn (lifetime_cache).
//
// Untraced runs time LifetimeSim itself: one loop per core repeats
// construction (setup_s, the median) and Run() (simulated days per second,
// summed over the loops) of the same seed until the run's time is spent. Traced runs alternate that with an outside-in replay of
// LifetimeSim::Run built from public APIs only -- a BlockDevice wrapper
// around SosDevice, a BinaryClassifier wrapper around each model, and timed
// calls to WorkloadGenerator::Day, the ExtentFileSystem ops, each daemon's
// RunOnce and Ftl::BackgroundCollect. The replay must reach the same outcome
// digest as LifetimeSim, which is what makes its layer split trustworthy.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "perfbench/bench.h"
#include "src/classify/corpus.h"
#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "src/sos/lifetime_sim.h"

namespace sosbench {
namespace {

using sos::BlockDevice;
using sos::BlockReadResult;
using sos::PlacementHandle;
using sos::PlacementSpec;
using sos::Result;
using sos::Status;

// The SOS row of bench_lifetime_gap (E4), optionally with the flash-cache
// workload on the same device and length.
sos::LifetimeSimConfig WorkloadConfig(const std::string& workload, uint64_t seed) {
  sos::LifetimeSimConfig config;
  config.kind = sos::DeviceKind::kSos;
  config.days = 365 * 3;
  config.seed = seed;
  config.nand.num_blocks = 256;
  config.training_files = 3000;
  config.workload.photos_per_day = 1.0;
  config.workload.cache_files_per_day = 6.0;
  config.workload.deletes_per_day = 5.0;
  config.workload.app_updates_per_day = 50.0;
  config.workload.reads_per_day = 60.0;
  config.workload.intensity = 1.0;
  config.file_size_cap = 32 * sos::kKiB;
  config.sample_period_days = 365;
  if (workload == "lifetime_cache") {
    config.workload_kind = sos::WorkloadKind::kFlashCache;
  }
  return config;
}

// Outcome digest: host bytes, FTL host/NAND page writes, migration counters
// and files alive, folded with FNV-1a.
struct Outcome {
  uint64_t host_bytes = 0;
  uint64_t ftl_host_writes = 0;
  uint64_t ftl_nand_writes = 0;
  sos::MigrationDaemon::RunStats migration;
  uint64_t files_alive = 0;

  uint64_t Digest() const {
    uint64_t h = 0xcbf29ce484222325ull;
    for (uint64_t v : {host_bytes, ftl_host_writes, ftl_nand_writes, migration.scanned,
                       migration.demoted, migration.promoted, migration.demote_failures,
                       files_alive}) {
      for (int byte = 0; byte < 8; ++byte) {
        h = (h ^ ((v >> (8 * byte)) & 0xff)) * 0x100000001b3ull;
      }
    }
    return h;
  }
};

Outcome OutcomeOf(const sos::LifetimeResult& r) {
  return {r.host_bytes_written(), r.ftl().host_writes(), r.ftl().nand_writes(), r.migration(),
          r.files_alive()};
}

// One LifetimeSim repetition, construction and Run() timed from outside.
struct SimRep {
  double setup_s = 0.0;
  double run_s = 0.0;
  sos::LifetimeResult result;
};

SimRep RunSim(const sos::LifetimeSimConfig& config) {
  SimRep rep;
  const int64_t t0 = NowNs();
  sos::LifetimeSim sim(config);
  rep.setup_s = SecondsSince(t0);
  const int64_t t1 = NowNs();
  rep.result = sim.Run();
  rep.run_s = SecondsSince(t1);
  return rep;
}

// --- Outside-in replay -------------------------------------------------------

struct Layers {
  Layer workload;   // WorkloadGenerator::Day
  Layer fs;         // ExtentFileSystem create/read/overwrite/delete
  Layer device;     // every BlockDevice call into SosDevice
  Layer classify;   // BinaryClassifier::Score
  Layer migration;  // MigrationDaemon::RunOnce
  Layer monitor;    // DegradationMonitor::RunOnce
  Layer autodelete; // AutoDeleteManager::RunOnce
  Layer gc;         // Ftl::BackgroundCollect
  uint64_t describe_calls = 0;
};

class TimedDevice final : public BlockDevice {
 public:
  TimedDevice(sos::SosDevice* inner, Tracer* tracer, Layers* layers)
      : inner_(inner), tracer_(tracer), layers_(layers) {}

  uint32_t block_size() const override { return inner_->block_size(); }
  uint64_t capacity_blocks() const override { return inner_->capacity_blocks(); }
  Result<PlacementHandle> OpenPlacement(const PlacementSpec& spec) override {
    Tracer::Span span(tracer_, &layers_->device);
    return inner_->OpenPlacement(spec);
  }
  Status ClosePlacement(PlacementHandle handle) override {
    Tracer::Span span(tracer_, &layers_->device);
    return inner_->ClosePlacement(handle);
  }
  Result<PlacementSpec> DescribePlacement(PlacementHandle handle) const override {
    Tracer::Span span(tracer_, &layers_->device);
    ++layers_->describe_calls;
    return inner_->DescribePlacement(handle);
  }
  Status Write(uint64_t lba, std::span<const uint8_t> data, PlacementHandle handle) override {
    Tracer::Span span(tracer_, &layers_->device);
    return inner_->Write(lba, data, handle);
  }
  Result<BlockReadResult> Read(uint64_t lba) override {
    Tracer::Span span(tracer_, &layers_->device);
    return inner_->Read(lba);
  }
  Status Trim(uint64_t lba) override {
    Tracer::Span span(tracer_, &layers_->device);
    return inner_->Trim(lba);
  }
  Status Reclassify(uint64_t lba, PlacementHandle handle) override {
    Tracer::Span span(tracer_, &layers_->device);
    return inner_->Reclassify(lba, handle);
  }
  void SetCapacityListener(CapacityListener listener) override {
    inner_->SetCapacityListener(std::move(listener));
  }

 private:
  sos::SosDevice* inner_;
  Tracer* tracer_;
  Layers* layers_;
};

class TimedClassifier final : public sos::BinaryClassifier {
 public:
  TimedClassifier(const sos::BinaryClassifier* inner, Tracer* tracer, Layer* layer)
      : inner_(inner), tracer_(tracer), layer_(layer) {}

  double Score(const sos::FileMeta& meta, sos::SimTimeUs now_us) const override {
    Tracer::Span span(tracer_, layer_);
    return inner_->Score(meta, now_us);
  }

 private:
  const sos::BinaryClassifier* inner_;
  Tracer* tracer_;
  Layer* layer_;
};

struct ReplayRep {
  double setup_device_s = 0.0;
  double setup_corpus_s = 0.0;
  double setup_train_s = 0.0;
  double run_s = 0.0;
  Layers layers;
  Outcome outcome;
  uint64_t creates = 0;
  uint64_t create_failures = 0;
  sos::FtlStats ftl;
  sos::DegradationMonitor::RunStats monitor;
  sos::NandStats nand;
  // Power-cut probe (lifetime_cache only).
  bool probed = false;
  double recover_ms = 0.0;
  uint64_t resurrected_lbas = 0;
  std::string recover_error;
};

// LifetimeSim::Run for the configuration WorkloadConfig builds (SOS device,
// payloads off, no retraining, no cloud), rebuilt from public APIs in the
// same order of operations. The periodic health/sample bookkeeping is left
// out: it only reads device state and does not change the outcome.
class Replay {
 public:
  Replay(const sos::LifetimeSimConfig& config, ReplayRep* rep)
      : config_(config), rep_(rep), trace_(config.trace_capacity) {
    Layers& layers = rep_->layers;
    int64_t t = NowNs();
    sos::SosDeviceConfig sos_config = config_.sos;
    sos_config.nand = config_.nand;
    sos_device_ = std::make_unique<sos::SosDevice>(sos_config, &clock_);
    initial_capacity_ = sos_device_->capacity_blocks();
    device_ = std::make_unique<TimedDevice>(sos_device_.get(), &tracer_, &layers);
    placements_ = std::make_unique<sos::PlacementDirectory>(device_.get());
    fs_ = std::make_unique<sos::ExtentFileSystem>(device_.get(), &clock_);
    const uint64_t workload_seed = sos::DeriveSeed({config_.seed, 0x776cull});
    if (config_.workload_kind == sos::WorkloadKind::kMobile) {
      sos::MobileWorkloadConfig wl = config_.workload;
      wl.seed = workload_seed;
      workload_ = std::make_unique<sos::MobileWorkloadGenerator>(wl);
    } else {
      sos::FlashCacheWorkloadConfig wl = config_.cache_workload;
      wl.seed = workload_seed;
      workload_ = std::make_unique<sos::FlashCacheWorkloadGenerator>(wl);
    }
    rep_->setup_device_s = SecondsSince(t);

    t = NowNs();
    sos::CorpusConfig corpus_config;
    corpus_config.num_files = config_.training_files;
    corpus_config.seed = sos::DeriveSeed({config_.seed, 0x747261696eull /* "train" */});
    const std::vector<sos::FileMeta> corpus = sos::GenerateCorpus(corpus_config);
    rep_->setup_corpus_s = SecondsSince(t);

    t = NowNs();
    const auto pointers = sos::AsPointers(corpus);
    priority_model_ = std::make_unique<sos::LogisticClassifier>(sos::LogisticClassifier::Train(
        pointers, &sos::ExpendableLabel, corpus_config.device_age_us));
    deletion_model_ = std::make_unique<sos::LogisticClassifier>(sos::LogisticClassifier::Train(
        pointers, &sos::DeletionLabel, corpus_config.device_age_us));
    rep_->setup_train_s = SecondsSince(t);

    priority_ = std::make_unique<TimedClassifier>(priority_model_.get(), &tracer_, &layers.classify);
    deletion_ = std::make_unique<TimedClassifier>(deletion_model_.get(), &tracer_, &layers.classify);
    migration_ = std::make_unique<sos::MigrationDaemon>(fs_.get(), placements_.get(),
                                                        priority_.get(), config_.migration);
    monitor_ = std::make_unique<sos::DegradationMonitor>(fs_.get(), sos_device_.get(),
                                                         config_.monitor, nullptr);
    if (config_.enable_autodelete) {
      autodelete_ =
          std::make_unique<sos::AutoDeleteManager>(fs_.get(), deletion_.get(), config_.autodelete);
      autodelete_->SetTraceSink(&trace_);
    }
    sos_device_->ftl().SetTraceSink(&trace_);
  }

  void Run() {
    Layers& layers = rep_->layers;
    const int64_t start = NowNs();
    for (uint32_t day = 0; day < config_.days; ++day) {
      const sos::SimTimeUs day_start = static_cast<sos::SimTimeUs>(day) * sos::kUsPerDay;
      if (day_start > clock_.now()) {
        clock_.AdvanceTo(day_start);
      }
      std::vector<sos::WorkloadEvent> events;
      {
        Tracer::Span span(&tracer_, &layers.workload);
        events = workload_->Day(day);
      }
      for (const sos::WorkloadEvent& event : events) {
        ApplyEvent(event);
      }
      RunDaemons(day);
    }
    rep_->run_s = SecondsSince(start);

    const sos::Ftl& ftl = sos_device_->ftl();
    rep_->ftl = ftl.stats();
    rep_->monitor = monitor_->lifetime_stats();
    rep_->outcome = {host_bytes_, rep_->ftl.host_writes(), rep_->ftl.nand_writes(),
                     migration_->lifetime_stats(), fs_->Stats().files};
    rep_->nand = ftl.nand().stats();
  }

  // Cuts power and remounts, counting LBAs that come back mapped although
  // they were unmapped (trimmed or never written) before the cut.
  void PowerCutProbe() {
    sos::Ftl& ftl = sos_device_->ftl();
    const uint64_t lbas = initial_capacity_;
    std::vector<bool> mapped(lbas);
    for (uint64_t lba = 0; lba < lbas; ++lba) {
      mapped[lba] = ftl.IsMapped(lba);
    }
    ftl.nand().PowerCut();
    const int64_t t = NowNs();
    const Status recovered = sos_device_->RecoverFromPowerLoss();
    rep_->recover_ms = SecondsSince(t) * 1e3;
    rep_->probed = true;
    if (!recovered.ok()) {
      rep_->recover_error = recovered.ToString();
      return;
    }
    for (uint64_t lba = 0; lba < lbas; ++lba) {
      if (!mapped[lba] && ftl.IsMapped(lba)) {
        ++rep_->resurrected_lbas;
      }
    }
  }

 private:
  void ApplyEvent(const sos::WorkloadEvent& event) {
    if (event.at > clock_.now()) {
      clock_.AdvanceTo(event.at);
    }
    Layer* fs_layer = &rep_->layers.fs;
    switch (event.op) {
      case sos::WorkloadOp::kCreate: {
        ++rep_->creates;
        sos::FileMeta meta = event.meta;
        meta.size_bytes = std::min(meta.size_bytes, config_.file_size_cap);
        PlacementSpec spec;
        spec.durability = config_.workload_kind == sos::WorkloadKind::kFlashCache &&
                                  meta.true_priority == sos::Priority::kExpendable
                              ? sos::Durability::kDegradable
                              : sos::Durability::kCritical;
        spec.lifetime = sos::LifetimeHintFor(meta);
        const auto handle = placements_->For(spec);
        if (!handle.ok()) {
          DropCreate(event.file_ref);
          return;
        }
        auto create = [&] {
          Tracer::Span span(&tracer_, fs_layer);
          return fs_->CreateFile(meta, {}, handle.value());
        };
        Result<uint64_t> created = create();
        if (!created.ok() && autodelete_ != nullptr) {
          {
            // Emergency space reclamation, then retry once.
            Tracer::Span span(&tracer_, &rep_->layers.autodelete);
            autodelete_->RunOnce(clock_.now());
          }
          created = create();
        }
        if (!created.ok()) {
          DropCreate(event.file_ref);
          return;
        }
        ref_to_fsid_[event.file_ref] = created.value();
        host_bytes_ += meta.size_bytes;
        break;
      }
      case sos::WorkloadOp::kRead: {
        auto it = ref_to_fsid_.find(event.file_ref);
        if (it != ref_to_fsid_.end()) {
          Tracer::Span span(&tracer_, fs_layer);
          (void)fs_->ReadFile(it->second);  // degraded reads are an expected outcome
        }
        break;
      }
      case sos::WorkloadOp::kUpdate: {
        auto it = ref_to_fsid_.find(event.file_ref);
        if (it == ref_to_fsid_.end()) {
          return;
        }
        const sos::FileMeta* meta = fs_->Lookup(it->second);
        if (meta == nullptr) {
          return;
        }
        const uint64_t bytes = std::min(meta->size_bytes, config_.file_size_cap);
        Tracer::Span span(&tracer_, fs_layer);
        if (fs_->OverwriteFile(it->second, {}).ok()) {
          host_bytes_ += bytes;
        }
        break;
      }
      case sos::WorkloadOp::kDelete: {
        auto it = ref_to_fsid_.find(event.file_ref);
        if (it != ref_to_fsid_.end()) {
          {
            Tracer::Span span(&tracer_, fs_layer);
            // kNotFound is legal: auto-delete may have reclaimed the file.
            sos::IgnoreResult(fs_->DeleteFile(it->second));
          }
          ref_to_fsid_.erase(it);
        }
        break;
      }
    }
  }

  void DropCreate(uint64_t file_ref) {
    ++rep_->create_failures;
    workload_->DropRef(file_ref);
  }

  void RunDaemons(uint32_t day) {
    Layers& layers = rep_->layers;
    if (sos_device_->staging_enabled()) {
      sos::IgnoreResult(sos_device_->FlushStage());
    }
    {
      Tracer::Span span(&tracer_, &layers.gc);
      (void)sos_device_->ftl().BackgroundCollect();
    }
    if (config_.classify_period_days > 0 && day % config_.classify_period_days == 0) {
      Tracer::Span span(&tracer_, &layers.migration);
      migration_->RunOnce(clock_.now());
    }
    if (config_.scrub_period_days > 0 && day % config_.scrub_period_days == 0 && day > 0) {
      Tracer::Span span(&tracer_, &layers.monitor);
      monitor_->RunOnce(clock_.now());
    }
    if (autodelete_ != nullptr) {
      Tracer::Span span(&tracer_, &layers.autodelete);
      autodelete_->RunOnce(clock_.now());
    }
  }

  const sos::LifetimeSimConfig config_;
  ReplayRep* rep_;
  Tracer tracer_;
  sos::SimClock clock_;
  sos::obs::TraceSink trace_;
  std::unique_ptr<sos::SosDevice> sos_device_;
  std::unique_ptr<TimedDevice> device_;
  std::unique_ptr<sos::PlacementDirectory> placements_;
  std::unique_ptr<sos::ExtentFileSystem> fs_;
  std::unique_ptr<sos::WorkloadGenerator> workload_;
  std::unique_ptr<sos::LogisticClassifier> priority_model_;
  std::unique_ptr<sos::LogisticClassifier> deletion_model_;
  std::unique_ptr<TimedClassifier> priority_;
  std::unique_ptr<TimedClassifier> deletion_;
  std::unique_ptr<sos::MigrationDaemon> migration_;
  std::unique_ptr<sos::DegradationMonitor> monitor_;
  std::unique_ptr<sos::AutoDeleteManager> autodelete_;
  std::unordered_map<uint64_t, uint64_t> ref_to_fsid_;  // lookup/erase only, never iterated
  uint64_t host_bytes_ = 0;
  uint64_t initial_capacity_ = 0;  // LBA space the file system allocates from
};

// Writes the run's outcome rows (LifetimeResult::ToMetrics) under the same
// prefix bench_lifetime_gap gives its first job, for the golden comparison.
void WriteRows(const sos::LifetimeResult& result, const std::string& path, RunResult* out) {
  sos::obs::MetricRegistry registry;
  result.ToMetrics(registry, std::string("run.0.") + sos::DeviceKindSlug(result.kind()) + ".");
  if (Status s = sos::obs::WriteFile(path, registry.ToJson()); !s.ok()) {
    out->Fail("writing outcome rows: " + s.ToString());
  }
}

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

constexpr unsigned kMaxThreads = 4;

}  // namespace

RunResult RunLifetime(const Options& options) {
  RunResult out;
  const sos::LifetimeSimConfig config = WorkloadConfig(options.workload, options.seed);
  const double days = static_cast<double>(config.days);
  const int64_t start = NowNs();

  std::mutex mu;  // guards everything below that the workers append to
  std::vector<double> setup_s;
  std::vector<double> sim_run_s;
  std::vector<ReplayRep> traced;
  uint64_t reference = 0;
  // Every repetition must reach the first finished one's digest.
  auto check = [&](uint64_t digest, const std::string& what) {
    if (options.inject == "digest" && out.attempted == 1) {
      digest ^= 1;  // self-test: a corrupted digest must fail the run
    }
    if (out.attempted == 0) {
      reference = digest;
    } else if (digest != reference) {
      out.Fail(what + " digest " + Hex(digest) + " != first repetition's " + Hex(reference));
    }
    ++out.attempted;
  };
  // One repetition loop per core (at most kMaxThreads), as in an
  // ExperimentDriver sweep: each simulation is share-nothing. A traced run
  // alternates LifetimeSim and the replay so both face the same load.
  auto run_one = [&](uint64_t k) {
    if (!options.trace || k % 2 == 0) {
      SimRep rep = RunSim(config);
      const std::lock_guard<std::mutex> lock(mu);
      setup_s.push_back(rep.setup_s);
      sim_run_s.push_back(rep.run_s);
      if (k == 0 && !options.rows_out.empty()) {
        WriteRows(rep.result, options.rows_out, &out);
      }
      check(OutcomeOf(rep.result).Digest(), "LifetimeSim");
      return;
    }
    ReplayRep rep;
    {
      Replay replay(config, &rep);
      replay.Run();
      if (options.workload == "lifetime_cache") {
        replay.PowerCutProbe();
      }
    }
    const std::lock_guard<std::mutex> lock(mu);
    if (!rep.recover_error.empty()) {
      out.Fail("RecoverFromPowerLoss: " + rep.recover_error);
    }
    check(rep.outcome.Digest(), "traced replay");
    traced.push_back(std::move(rep));
  };
  // The first repetition runs alone, so peak memory is one simulation's.
  run_one(0);
  const double peak_rss_mb = PeakRssMb();
  std::atomic<uint64_t> next{1};
  auto worker = [&] {
    for (uint64_t k = next.fetch_add(1); k < 2 || SecondsSince(start) < options.seconds;
         k = next.fetch_add(1)) {
      run_one(k);
    }
  };
  const unsigned threads = std::clamp(std::thread::hardware_concurrency(), 1u, kMaxThreads);
  {
    std::vector<std::jthread> pool;
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back(worker);
    }
  }
  std::string times;
  for (double t : sim_run_s) {
    times += " " + std::to_string(t);
  }
  std::fprintf(stderr, "[sosbench] %s seed=%llu: %llu repetitions, digest %s, Run() seconds:%s\n",
               options.workload.c_str(), static_cast<unsigned long long>(options.seed),
               static_cast<unsigned long long>(out.attempted), Hex(reference).c_str(),
               times.c_str());

  if (!options.trace) {
    // Sweep throughput: simulated days per second summed over the loops.
    // Averaging over every repetition on every core is far steadier on a
    // shared host than any single repetition (fastest or median).
    double run_s_sum = 0.0;
    for (double t : sim_run_s) {
      run_s_sum += t;
    }
    out.Add("setup_s", Median(setup_s), "s");
    out.Add("work_per_s", threads * days * static_cast<double>(sim_run_s.size()) / run_s_sum,
            "1/s");
    out.Add("peak_rss_mb", peak_rss_mb, "MB");
    return out;
  }

  // Per-layer figures come from the median-time traced repetition.
  std::sort(traced.begin(), traced.end(),
            [](const ReplayRep& a, const ReplayRep& b) { return a.run_s < b.run_s; });
  const ReplayRep& rep = traced[traced.size() / 2];
  const Layers& l = rep.layers;
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };

  out.Add("host.workload.busy_s", l.workload.busy_s(), "s");
  out.Add("host.fs.self_s", l.fs.self_s(), "s");
  out.Add("host.fs.ops", static_cast<double>(l.fs.calls), "count");
  out.Add("sos.device.busy_s", l.device.busy_s(), "s");
  out.Add("sos.device.calls", static_cast<double>(l.device.calls), "count");
  out.Add("sos.device.ns_per_call", ratio(static_cast<double>(l.device.busy_ns), static_cast<double>(l.device.calls)), "ns");
  out.Add("sos.device.describe_calls", static_cast<double>(l.describe_calls), "count");
  out.Add("classify.score_calls", static_cast<double>(l.classify.calls), "count");
  out.Add("classify.busy_s", l.classify.busy_s(), "s");
  out.Add("classify.ns_per_score", ratio(static_cast<double>(l.classify.busy_ns), static_cast<double>(l.classify.calls)), "ns");
  const sos::MigrationDaemon::RunStats& mig = rep.outcome.migration;
  out.Add("sos.migration.self_s", l.migration.self_s(), "s");
  out.Add("sos.migration.scanned", static_cast<double>(mig.scanned), "count");
  out.Add("sos.migration.useful_ratio",
          ratio(static_cast<double>(mig.demoted + mig.promoted), static_cast<double>(mig.scanned)),
          "ratio");
  out.Add("sos.monitor.busy_s", l.monitor.busy_s(), "s");
  out.Add("sos.monitor.pages_scanned", static_cast<double>(rep.monitor.pages_scanned), "count");
  out.Add("sos.autodelete.busy_s", l.autodelete.busy_s(), "s");
  out.Add("ftl.gc.busy_s", l.gc.busy_s(), "s");
  out.Add("ftl.waf", rep.ftl.WriteAmplification(), "ratio");
  out.Add("ftl.gc_relocations", static_cast<double>(rep.ftl.gc_relocations()), "count");
  out.Add("flash.reads", static_cast<double>(rep.nand.reads), "count");
  out.Add("flash.programs", static_cast<double>(rep.nand.programs), "count");
  out.Add("flash.erases", static_cast<double>(rep.nand.erases), "count");
  out.Add("setup.corpus_s", rep.setup_corpus_s, "s");
  out.Add("setup.train_s", rep.setup_train_s, "s");
  out.Add("setup.device_s", rep.setup_device_s, "s");
  if (rep.probed) {
    out.Add("ftl.recover_ms", rep.recover_ms, "ms");
    out.Add("ftl.recover.resurrected_lbas", static_cast<double>(rep.resurrected_lbas), "count");
  }
  out.Add("failed_share",
          ratio(static_cast<double>(rep.create_failures), static_cast<double>(rep.creates)),
          "ratio");
  out.Add("trace.overhead_share", rep.run_s / Median(sim_run_s) - 1.0, "ratio");
  return out;
}

}  // namespace sosbench
