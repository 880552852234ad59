//===- perfbench/src/Trace.h - Spans, samples and the result line ---------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own instrumentation. Spans are recorded from the
/// benchmark's files around calls into the library's public seams, kept
/// in memory while tracing is on, and written out when the run ends. A
/// span's self time is its duration minus the part of it that its child
/// spans cover.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double msBetween(int64_t StartNs, int64_t EndNs) {
  return static_cast<double>(EndNs - StartNs) / 1e6;
}

/// Linear-interpolated quantile (\p Q in [0,1]) of \p V; 0 when empty.
double quantile(std::vector<double> V, double Q);

/// One recorded interval. Name points at a string literal. Spans of one
/// request share Req; Parent is 0 for a root span.
struct Span {
  const char *Name = "";
  uint64_t Id = 0;
  uint64_t Parent = 0;
  uint64_t Req = 0;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
};

class Tracer {
public:
  static Tracer &get();

  /// Spans are recorded only while this is set.
  bool on() const { return On.load(std::memory_order_relaxed); }
  void setOn(bool V) { On.store(V, std::memory_order_relaxed); }

  uint64_t newId() { return NextId.fetch_add(1, std::memory_order_relaxed); }

  /// Records a span and returns its id (0 when tracing is off).
  uint64_t record(const char *Name, uint64_t Parent, uint64_t Req,
                  int64_t StartNs, int64_t EndNs);

  std::vector<Span> spans() const;

  /// Per span name: total self time in ms and number of spans.
  std::map<std::string, std::pair<double, uint64_t>> selfTimes() const;

  /// Writes every span as one JSON object per line; false on I/O error.
  bool writeJsonLines(const std::string &Path) const;

private:
  std::atomic<bool> On{false};
  std::atomic<uint64_t> NextId{1};
  mutable std::mutex Mu;
  std::vector<Span> Spans;
};

/// Named metrics of one run, printed as the result line.
class Report {
public:
  void set(const std::string &Name, double Value, const std::string &Unit) {
    Metrics[Name] = {Value, Unit};
  }
  /// Free-form context recorded with the result (seed, rates, hardware).
  void meta(const std::string &Key, const std::string &Value) {
    Meta[Key] = Value;
  }
  void meta(const std::string &Key, double Value);

  std::map<std::string, std::pair<double, std::string>> Metrics;
  std::map<std::string, std::string> Meta;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Correctness violations; any entry makes the run fail.
  std::vector<std::string> Violations;

  void violation(std::string What) { Violations.push_back(std::move(What)); }
};

/// Peak resident set size of this process in MiB.
double peakRssMb();

/// CPU time (user + system, all threads) this process has used, in
/// seconds. Time the hypervisor gives to other guests is not in it.
double cpuSeconds();

} // namespace pb

#endif // PERFBENCH_TRACE_H
