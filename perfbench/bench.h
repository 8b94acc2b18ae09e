// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Shared pieces of sosbench: run options, the result record it
// prints, and the outside-in span tracer.
//
// The tracer times calls into a layer's public functions from the
// benchmark's own code; the repository's code carries no instrumentation.
// Spans nest on one stack, so a layer's self time is its busy time minus the
// time of the spans opened inside it (a device call inside a file-system op,
// a classifier score inside a daemon pass).

#ifndef SOS_PERFBENCH_BENCH_H_
#define SOS_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace sosbench {

struct Options {
  std::string workload;
  uint64_t seed = 7;
  double seconds = 10.0;
  bool trace = false;
  std::string inject;     // "", "digest" or "payload": deliberate corruption for the self-test
  std::string rows_out;   // lifetime: where to write the run's outcome rows (JSON)
  std::string sosd;       // serve: path of the sosd binary
  std::string run_dir;    // serve: directory for the socket
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  // each correctness violation, printed to stderr

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

RunResult RunLifetime(const Options& options);
RunResult RunServe(const Options& options);

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// Median of `values` (0 when empty).
double Median(std::vector<double> values);

// Nearest-rank percentile, q in [0, 1] (0 when empty).
double Percentile(std::vector<double> values, double q);

// Peak resident set (VmHWM) of process `pid` in MB; "self" for this one.
double PeakRssMb(const std::string& pid = "self");

// Per-layer wall-time accumulator.
struct Layer {
  int64_t busy_ns = 0;
  int64_t child_ns = 0;  // time of spans nested inside this layer's spans
  uint64_t calls = 0;

  double busy_s() const { return static_cast<double>(busy_ns) * 1e-9; }
  double self_s() const { return static_cast<double>(busy_ns - child_ns) * 1e-9; }
};

class Tracer {
 public:
  // Opens a span on `layer`; the span ends when the returned scope dies.
  class Span {
   public:
    Span(Tracer* tracer, Layer* layer)
        : tracer_(tracer), layer_(layer), parent_(tracer->top_), start_ns_(NowNs()) {
      tracer_->top_ = layer_;
    }
    ~Span() {
      const int64_t dur = NowNs() - start_ns_;
      layer_->busy_ns += dur;
      ++layer_->calls;
      if (parent_ != nullptr) {
        parent_->child_ns += dur;
      }
      tracer_->top_ = parent_;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    Layer* layer_;
    Layer* parent_;
    int64_t start_ns_;
  };

 private:
  Layer* top_ = nullptr;
};

}  // namespace sosbench

#endif  // SOS_PERFBENCH_BENCH_H_
