// Copyright (c) 2026 The SOS Authors. MIT License.
//
// AsyncBlockService: a thread-safe async request core over SosDevice
// (DESIGN.md §14 -- the sosd tentpole).
//
// SosDevice and the FTL beneath it are single-caller by design: the
// deterministic sim path drives them from one thread and the goldens depend
// on that op schedule. This layer is the multi-caller adapter. Clients hand
// it requests from any number of threads; internally the service
//
//   1. classifies each request into a QosClass from its op and the placement
//      handle's declared durability (critical -> SYS classes),
//   2. admits it into a bounded submission queue with per-class capacity
//      (bulk/maintenance can occupy at most half the depth -- per-pool
//      admission, so background work never starves SYS),
//   3. dispatches via a weighted scheduler (qos.h), coalescing adjacent-LBA
//      requests of the same class/op/handle into one ReadBatch/WriteBatch
//      (which the device turns into physical ReadRun/ProgramRun stretches),
//   4. serializes all device + sim-clock access behind one device gate
//      mutex, so the device itself never sees concurrency, and
//   5. delivers completions inline on whichever thread executed the batch,
//      recording per-class sim-time latency.
//
// Two entry points share the scheduler:
//   Call()    -- caller-runs dispatch. The calling thread enqueues its
//                requests and pops and executes scheduler batches itself
//                until none of its own requests is still queued, then waits
//                for any another dispatcher took. No thread hand-off on the
//                common path; sosd connections and InProcessClient use it.
//   Submit()  -- returns a future. Someone else must dispatch: the worker
//                pool in async mode, RunPending() in pump mode.
//
// Two execution modes, same scheduling logic:
//   workers == 0  -- deterministic pump mode: no threads are created; the
//                    caller drives dispatch with RunPending() or Call().
//                    Benches and QoS unit tests use this so latency goldens
//                    are exact.
//   workers > 0   -- async mode: N long-lived worker jobs on a ThreadPool
//                    dispatch for Submit()-only callers. The stress harness
//                    runs this under TSan.
//
// Every dispatcher -- worker, Call() thread or RunPending() caller -- pops
// from the one QosScheduler under mu_ and executes under device_mu_, so QoS
// weights, coalescing and the lock order are the same whoever runs a batch.
//
// Latency is sim time end to end: admission stamps the current sim time,
// completion stamps it again after the device batch ran. Wall clock never
// enters any number this class reports.

#ifndef SOS_SRC_SERVE_SERVICE_H_
#define SOS_SRC_SERVE_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/sim_clock.h"
#include "src/common/stats.h"
#include "src/common/thread_pool.h"
#include "src/serve/qos.h"
#include "src/serve/request.h"
#include "src/sos/sos_device.h"

namespace sos::serve {

struct ServeConfig {
  // 0 = pump mode (caller drives via RunPending or Call; fully
  // deterministic). Workers dispatch only for Submit()-only callers.
  size_t workers = 0;
  // Total submission-queue depth; bulk/maintenance classes are each capped
  // at half of it (see QosScheduler::HasRoom).
  size_t submission_depth = 256;
  bool qos = true;
  QosWeights weights;
  // Coalescing: merge up to max_coalesce forward-adjacent same-class
  // same-op same-handle requests per dispatch, scanning at most
  // coalesce_window queued entries per probe.
  bool coalesce = true;
  uint32_t max_coalesce = 8;
  uint32_t coalesce_window = 32;
};

// Per-class completion statistics snapshot.
struct ClassStats {
  uint64_t completed = 0;
  uint64_t errors = 0;  // completions with !status.ok()
};

struct ServeStats {
  ClassStats per_class[kNumQosClasses];
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t rejected = 0;  // refused at admission (shutdown)
  uint64_t batches = 0;   // device dispatches
  uint64_t coalesced = 0; // requests that rode along in a multi-request batch
};

// Sim-time latency percentiles for one class, in microseconds.
struct LatencySummary {
  uint64_t count = 0;
  double p50 = 0;
  double p99 = 0;
  double p999 = 0;
};

class AsyncBlockService {
 public:
  // `device` and `clock` must outlive the service. The clock must be the
  // device's own sim clock (the gate advances it on every dispatch).
  AsyncBlockService(SosDevice* device, SimClock* clock, const ServeConfig& config);
  ~AsyncBlockService();

  AsyncBlockService(const AsyncBlockService&) = delete;
  AsyncBlockService& operator=(const AsyncBlockService&) = delete;

  // --- Control plane (synchronous; brokered so classification can see the
  // declared durability without a device round-trip per request) -----------

  [[nodiscard]] Result<PlacementHandle> OpenPlacement(const PlacementSpec& spec);
  [[nodiscard]] Status ClosePlacement(PlacementHandle handle);

  // --- Data plane ----------------------------------------------------------

  // Thread-safe, synchronous: runs `reqs` to completion and returns their
  // responses in order. The calling thread dispatches scheduler batches
  // itself (including other callers' requests that the scheduler picks
  // first) until none of its own is queued, then waits for any another
  // dispatcher took. When a class quota is full it makes room by
  // dispatching inline, never by blocking. Requests arriving after shutdown
  // began resolve to kUnavailable.
  [[nodiscard]] std::vector<ServeResponse> Call(std::vector<ServeRequest> reqs);

  // Thread-safe. Blocks while the target class's admission quota is full;
  // fails fast (future resolves to kUnavailable) once shutdown began. The
  // future is resolved by whichever dispatcher runs the request: a worker,
  // a Call() thread, or RunPending().
  [[nodiscard]] std::future<ServeResponse> Submit(ServeRequest req);

  // Pump mode only (workers == 0): dispatches up to `max_batches` scheduler
  // batches inline on the calling thread, delivering completions before
  // returning. Returns the number of requests completed. Callers that only
  // hold futures from Submit() use it; Call() dispatches for itself.
  size_t RunPending(size_t max_batches = ~size_t{0});

  // Blocks until every admitted request has completed. In pump mode this
  // pumps inline; in async mode it waits on the dispatchers.
  void Drain();

  // Orderly stop: drains queued work, then joins the workers. Idempotent;
  // the destructor calls it. Submit()s and Call()s racing with shutdown
  // resolve to kUnavailable instead of blocking.
  void Shutdown();

  // --- Introspection -------------------------------------------------------

  ServeStats Stats() const;
  // Exact percentiles, read under the service mutex; callable concurrently.
  // Each class keeps one count per distinct latency in sim microseconds, so
  // memory does not grow with requests served.
  LatencySummary Latency(QosClass cls) const;

  SosDevice* device() { return device_; }
  const ServeConfig& config() const { return config_; }

 private:
  // One dispatched device batch: 1..max_coalesce requests, ascending
  // contiguous LBAs when size > 1.
  struct Batch {
    std::vector<Pending> reqs;
  };

  QosClass Classify(const ServeRequest& req) const;  // callers hold mu_
  bool PopBatchLocked(Batch* batch);                 // callers hold mu_
  // Pops one batch under `lock` (which must hold mu_), executes and delivers
  // it with mu_ released, and re-locks. Returns the batch size, 0 when the
  // scheduler was empty.
  size_t DispatchOne(std::unique_lock<std::mutex>& lock);
  void ExecuteBatch(Batch batch);
  void WorkerLoop();

  SosDevice* const device_;
  SimClock* const clock_;
  const ServeConfig config_;

  // Guards scheduler_, handle_specs_, seq_, stats counters, the latency
  // samplers, and every in-flight Call()'s CallState. Never held across a
  // device call.
  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // Submit() queued work / stopping
  std::condition_variable space_cv_;  // scheduler freed admission space
  std::condition_variable idle_cv_;   // completed_ caught up to submitted_
  QosScheduler scheduler_;
  std::map<uint32_t, PlacementSpec> handle_specs_;  // open slot id -> spec
  uint64_t seq_ = 0;
  ServeStats stats_;
  Percentiles latency_us_[kNumQosClasses];
  bool stopping_ = false;

  // The device gate: all SosDevice and SimClock access happens under this
  // mutex, one batch at a time -- the external synchronization layer that
  // keeps the device single-caller. Acquired after (never while holding)
  // mu_.
  std::mutex device_mu_;
  // Sim-time mirror maintained under device_mu_, readable without it for
  // the admission timestamp.
  std::atomic<uint64_t> sim_now_us_;

  // Async mode only.
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::future<void>> worker_futures_;
};

}  // namespace sos::serve

#endif  // SOS_SRC_SERVE_SERVICE_H_
