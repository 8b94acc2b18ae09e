// Copyright (c) 2026 The SOS Authors. MIT License.
//
// sosbench: runs one benchmark workload and prints its result as one JSON
// line on stdout (perfbench/run.py builds this binary and checks the line
// against BENCHMARK.json).
//
//   sosbench --workload=lifetime_mobile|lifetime_cache|serve_mixed
//            --seed=N --seconds=N --trace=0|1
//            [--rows-out=FILE] [--sosd=PATH --run-dir=DIR] [--inject=digest|payload]
//
// Exit code 0 when every output check passed, 1 otherwise.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench/bench_util.h"
#include "perfbench/bench.h"

namespace sosbench {

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double PeakRssMb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::stoull(line.substr(6))) * 1024.0 / 1e6;  // KiB -> MB
    }
  }
  return 0.0;
}

namespace {

std::string JsonLine(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  char buf[160];
  std::snprintf(buf, sizeof(buf), ", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64, result.attempted,
                result.failed);
  out += buf;
  out += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    out += buf;
  }
  out += "}}";
  return out;
}

}  // namespace
}  // namespace sosbench

int main(int argc, char** argv) {
  sos::FlagSet flags("sosbench", "one workload of the repository benchmark");
  std::string* workload = flags.Enum("workload", "lifetime_mobile",
                                     {"lifetime_mobile", "lifetime_cache", "serve_mixed"},
                                     "workload to run");
  uint64_t* seed = flags.U64("seed", 7, "workload seed");
  size_t* seconds = flags.Size("seconds", 10, "measurement time in seconds");
  size_t* trace = flags.Size("trace", 0, "1 = traced run (per-layer metrics)");
  std::string* inject =
      flags.Enum("inject", "none", {"none", "digest", "payload"}, "deliberate corruption (self-test)");
  std::string* rows_out = flags.Path("rows-out", "lifetime: write the outcome rows here");
  std::string* sosd = flags.Path("sosd", "serve: sosd binary");
  std::string* run_dir = flags.Path("run-dir", "serve: directory for the sosd socket");
  flags.ParseOrDie(argc, argv);

  sosbench::Options options;
  options.workload = *workload;
  options.seed = *seed;
  options.seconds = static_cast<double>(*seconds);
  options.trace = *trace != 0;
  options.inject = *inject == "none" ? "" : *inject;
  options.rows_out = *rows_out;
  options.sosd = *sosd;
  options.run_dir = *run_dir;

  const sosbench::RunResult result = options.workload == "serve_mixed"
                                         ? sosbench::RunServe(options)
                                         : sosbench::RunLifetime(options);
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "[sosbench] CHECK FAILED: %s\n", error.c_str());
  }
  std::printf("%s\n", sosbench::JsonLine(result).c_str());
  return result.correct ? 0 : 1;
}
