// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/serve/service.h"

#include <utility>

namespace sos::serve {

// The caller side of one Call(): responses land in `resps` instead of in
// promises. Every field is guarded by the service mutex.
struct CallState {
  explicit CallState(size_t n) : resps(n) {}

  std::vector<ServeResponse> resps;
  size_t queued = 0;       // own requests still in the scheduler
  size_t undelivered = 0;  // own requests admitted but not yet delivered
  std::condition_variable done_cv;
};

AsyncBlockService::AsyncBlockService(SosDevice* device, SimClock* clock,
                                     const ServeConfig& config)
    : device_(device),
      clock_(clock),
      config_(config),
      scheduler_(config.qos, config.weights),
      sim_now_us_(clock->now()) {
  if (config_.workers > 0) {
    pool_ = std::make_unique<ThreadPool>(config_.workers);
    worker_futures_.reserve(config_.workers);
    for (size_t i = 0; i < config_.workers; ++i) {
      worker_futures_.push_back(pool_->Submit([this] { WorkerLoop(); }));
    }
  }
}

AsyncBlockService::~AsyncBlockService() { Shutdown(); }

Result<PlacementHandle> AsyncBlockService::OpenPlacement(const PlacementSpec& spec) {
  std::lock_guard<std::mutex> gate(device_mu_);
  auto opened = device_->OpenPlacement(spec);
  if (opened.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    handle_specs_[opened.value().id()] = spec;
  }
  return opened;
}

Status AsyncBlockService::ClosePlacement(PlacementHandle handle) {
  std::lock_guard<std::mutex> gate(device_mu_);
  Status closed = device_->ClosePlacement(handle);
  if (closed.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    handle_specs_.erase(handle.id());
  }
  return closed;
}

QosClass AsyncBlockService::Classify(const ServeRequest& req) const {
  switch (req.op) {
    case ServeOp::kFlush:
      return QosClass::kMaintenance;
    case ServeOp::kTrim:
      return QosClass::kBulk;
    case ServeOp::kDescribePlacement:
      return QosClass::kSysRead;
    case ServeOp::kRead:
    case ServeOp::kWrite:
      break;
  }
  // Reads carry the handle as a durability hint; writes place under it. A
  // handle this service did not broker (or an invalid one) defaults to bulk
  // -- the device will report the lifecycle error on the write path.
  auto it = handle_specs_.find(req.handle.id());
  const bool critical = it != handle_specs_.end() && it->second.durability == Durability::kCritical;
  if (!critical) {
    return QosClass::kBulk;
  }
  return req.op == ServeOp::kRead ? QosClass::kSysRead : QosClass::kSysWrite;
}

std::vector<ServeResponse> AsyncBlockService::Call(std::vector<ServeRequest> reqs) {
  CallState call(reqs.size());
  std::unique_lock<std::mutex> lock(mu_);
  for (size_t i = 0; i < reqs.size(); ++i) {
    Pending pending;
    pending.req = std::move(reqs[i]);
    pending.cls = Classify(pending.req);
    // Make room by dispatching inline rather than waiting for someone else
    // to: this thread may be the only dispatcher there is.
    while (!stopping_ && !scheduler_.HasRoom(pending.cls, config_.submission_depth) &&
           DispatchOne(lock) > 0) {
    }
    if (stopping_) {
      ++stats_.rejected;
      call.resps[i].status = Status(StatusCode::kUnavailable, "service is shutting down");
      call.resps[i].cls = pending.cls;
      continue;
    }
    pending.seq = seq_++;
    pending.submit_sim_us = sim_now_us_.load(std::memory_order_relaxed);
    pending.call = &call;
    pending.slot = i;
    ++stats_.submitted;
    ++call.queued;
    ++call.undelivered;
    scheduler_.Enqueue(std::move(pending));
  }
  // No stranding: a request of ours leaves the scheduler only when some
  // dispatcher pops it, and that dispatcher delivers it. So dispatch until
  // none is left queued, then wait out the ones others are executing.
  while (call.queued > 0) {
    DispatchOne(lock);
  }
  call.done_cv.wait(lock, [&call] { return call.undelivered == 0; });
  return std::move(call.resps);
}

std::future<ServeResponse> AsyncBlockService::Submit(ServeRequest req) {
  std::promise<ServeResponse> promise;
  std::future<ServeResponse> future = promise.get_future();

  Pending pending;
  pending.req = std::move(req);

  std::unique_lock<std::mutex> lock(mu_);
  pending.cls = Classify(pending.req);
  if (config_.workers == 0) {
    // Pump mode is single-caller: blocking on space would deadlock, so make
    // room by dispatching inline instead.
    while (!stopping_ && !scheduler_.HasRoom(pending.cls, config_.submission_depth) &&
           DispatchOne(lock) > 0) {
    }
  } else {
    space_cv_.wait(lock, [&] {
      return stopping_ || scheduler_.HasRoom(pending.cls, config_.submission_depth);
    });
  }
  if (stopping_) {
    ++stats_.rejected;
    lock.unlock();
    ServeResponse resp;
    resp.status = Status(StatusCode::kUnavailable, "service is shutting down");
    resp.cls = pending.cls;
    promise.set_value(std::move(resp));
    return future;
  }
  pending.seq = seq_++;
  pending.submit_sim_us = sim_now_us_.load(std::memory_order_relaxed);
  pending.promise = std::move(promise);
  ++stats_.submitted;
  scheduler_.Enqueue(std::move(pending));
  lock.unlock();
  work_cv_.notify_one();
  return future;
}

bool AsyncBlockService::PopBatchLocked(Batch* batch) {
  std::optional<Pending> first = scheduler_.Next();
  if (!first.has_value()) {
    return false;
  }
  const QosClass cls = first->cls;
  const ServeOp op = first->req.op;
  const uint64_t start_lba = first->req.lba;
  const PlacementHandle handle = first->req.handle;
  batch->reqs.push_back(std::move(*first));
  if (config_.coalesce && (op == ServeOp::kRead || op == ServeOp::kWrite)) {
    while (batch->reqs.size() < config_.max_coalesce) {
      std::optional<Pending> next = scheduler_.TakeAdjacent(
          cls, op, start_lba + batch->reqs.size(), handle, config_.coalesce_window);
      if (!next.has_value()) {
        break;
      }
      batch->reqs.push_back(std::move(*next));
    }
  }
  for (const Pending& p : batch->reqs) {
    if (p.call != nullptr) {
      --p.call->queued;
    }
  }
  return true;
}

size_t AsyncBlockService::DispatchOne(std::unique_lock<std::mutex>& lock) {
  Batch batch;
  if (!PopBatchLocked(&batch)) {
    return 0;
  }
  const size_t n = batch.reqs.size();
  lock.unlock();
  space_cv_.notify_all();
  ExecuteBatch(std::move(batch));
  lock.lock();
  return n;
}

void AsyncBlockService::ExecuteBatch(Batch batch) {
  const size_t n = batch.reqs.size();
  std::vector<ServeResponse> resps(n);

  std::unique_lock<std::mutex> gate(device_mu_);
  const ServeOp op = batch.reqs.front().req.op;
  if (op == ServeOp::kRead && n > 1) {
    auto results = device_->ReadBatch(batch.reqs.front().req.lba, static_cast<uint32_t>(n));
    for (size_t i = 0; i < n; ++i) {
      if (results[i].ok()) {
        resps[i].data = std::move(results[i].value().data);
        resps[i].degraded = results[i].value().degraded;
      } else {
        resps[i].status = results[i].status();
      }
    }
  } else if (op == ServeOp::kWrite && n > 1) {
    std::vector<std::vector<uint8_t>> pages;
    pages.reserve(n);
    for (Pending& p : batch.reqs) {
      pages.push_back(std::move(p.req.data));
    }
    std::vector<Status> statuses =
        device_->WriteBatch(batch.reqs.front().req.lba, pages, batch.reqs.front().req.handle);
    for (size_t i = 0; i < n; ++i) {
      resps[i].status = statuses[i];
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      Pending& p = batch.reqs[i];
      switch (p.req.op) {
        case ServeOp::kRead: {
          auto result = device_->Read(p.req.lba);
          if (result.ok()) {
            resps[i].data = std::move(result.value().data);
            resps[i].degraded = result.value().degraded;
          } else {
            resps[i].status = result.status();
          }
          break;
        }
        case ServeOp::kWrite:
          resps[i].status = device_->Write(p.req.lba, p.req.data, p.req.handle);
          break;
        case ServeOp::kTrim:
          resps[i].status = device_->Trim(p.req.lba);
          break;
        case ServeOp::kFlush: {
          if (device_->staging_enabled()) {
            auto flushed = device_->FlushStage();
            if (!flushed.ok()) {
              resps[i].status = flushed.status();
            }
          }
          device_->ftl().BackgroundCollect();
          break;
        }
        case ServeOp::kDescribePlacement: {
          auto described = device_->DescribePlacement(p.req.handle);
          if (described.ok()) {
            resps[i].spec = described.value();
          } else {
            resps[i].status = described.status();
          }
          break;
        }
      }
    }
  }
  const uint64_t now = clock_->now();
  sim_now_us_.store(now, std::memory_order_relaxed);
  gate.unlock();

  // Deliver inline, one mu_ section for the whole batch. A Call() slot is
  // filled and its owner notified under mu_, because the owner's CallState
  // dies as soon as it sees undelivered == 0; promises are set after.
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.batches;
    stats_.coalesced += n - 1;
    for (size_t i = 0; i < n; ++i) {
      Pending& p = batch.reqs[i];
      ServeResponse& resp = resps[i];
      resp.cls = p.cls;
      resp.submit_sim_us = p.submit_sim_us;
      resp.complete_sim_us = now;
      const uint32_t c = static_cast<uint32_t>(p.cls);
      ++stats_.completed;
      ++stats_.per_class[c].completed;
      if (!resp.status.ok()) {
        ++stats_.per_class[c].errors;
      }
      latency_us_[c].Add(static_cast<double>(now - p.submit_sim_us));
      if (p.call != nullptr) {
        p.call->resps[p.slot] = std::move(resp);
        if (--p.call->undelivered == 0) {
          p.call->done_cv.notify_one();
        }
      }
    }
    if (stats_.completed >= stats_.submitted) {
      idle_cv_.notify_all();
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (batch.reqs[i].call == nullptr) {
      batch.reqs[i].promise.set_value(std::move(resps[i]));
    }
  }
}

void AsyncBlockService::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stopping_ || !scheduler_.empty(); });
    if (DispatchOne(lock) == 0 && stopping_) {
      return;
    }
  }
}

size_t AsyncBlockService::RunPending(size_t max_batches) {
  if (config_.workers != 0) {
    return 0;  // async mode dispatches itself
  }
  size_t completed = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (size_t b = 0; b < max_batches; ++b) {
    const size_t ran = DispatchOne(lock);
    if (ran == 0) {
      break;
    }
    completed += ran;
  }
  return completed;
}

void AsyncBlockService::Drain() {
  if (config_.workers == 0) {
    RunPending();
  }
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return stats_.completed >= stats_.submitted; });
}

void AsyncBlockService::Shutdown() {
  Drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return;
    }
    stopping_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  if (config_.workers > 0) {
    for (std::future<void>& worker : worker_futures_) {
      worker.get();
    }
    pool_->Shutdown();
  }
}

ServeStats AsyncBlockService::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

LatencySummary AsyncBlockService::Latency(QosClass cls) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Percentiles& samples = latency_us_[static_cast<uint32_t>(cls)];
  LatencySummary summary;
  summary.count = samples.count();
  summary.p50 = samples.Get(50);
  summary.p99 = samples.Get(99);
  summary.p999 = samples.Get(99.9);
  return summary;
}

}  // namespace sos::serve
