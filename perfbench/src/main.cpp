//===- perfbench/src/main.cpp - The repository benchmark ------------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload <corpus_diff|serve_write|serve_read_mixed>
///           --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
///           [--work <dir>]
///
/// Builds the workload's inputs from the seed, measures for the given
/// seconds, checks the outputs, and prints every metric by name with its
/// unit, then one JSON result line. --trace 0 reports the end-to-end
/// metrics; --trace 1 reports the per-layer metrics of a traced run and
/// writes its spans to <out>/<workload>-seed<n>.spans.jsonl. Exits
/// non-zero if any correctness check fails.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <unistd.h>
#include <sys/utsname.h>
#include <thread>

using namespace pb;

namespace {

struct MetricSpec {
  const char *Name;
  const char *Unit;
};

/// The bounded end-to-end metrics every workload reports with tracing off
/// (see perfbench/README.md for why these, and for the other end-to-end
/// numbers each run prints). Keep in step with BENCHMARK.json.
const MetricSpec EndToEnd[] = {
    {"setup_s", "s"}, {"peak_rss_mb", "MiB"}, {"cpu_ms_per_op", "ms"}};

/// The per-layer metrics of a traced run. A layer that does not run in a
/// workload reports 0. Keep in step with BENCHMARK.json.
const MetricSpec PerLayer[] = {
    {"python.parse_ms_p50", "ms"},
    {"tree.build_ms_p50", "ms"},
    {"tree.sexpr_parse_ms_p50", "ms"},
    {"persist.decode_tree_ms_p50", "ms"},
    {"truediff.compare_ms_p50", "ms"},
    {"truediff.compare_ms_p99", "ms"},
    {"truediff.rehash_frac", "ratio"},
    {"truechange.serialize_ms_p50", "ms"},
    {"truechange.edits_per_script", "edits"},
    {"truechange.script_bytes", "bytes"},
    {"truechange.typecheck_ms_p50", "ms"},
    {"truechange.patch_ms_p50", "ms"},
    {"service.handler_ms_p50.submit", "ms"},
    {"service.handler_ms_p99.submit", "ms"},
    {"service.handler_ms_p50.rollback", "ms"},
    {"service.handler_ms_p99.rollback", "ms"},
    {"service.queue_wait_ms_p50", "ms"},
    {"service.queue_wait_ms_p99", "ms"},
    {"service.worker_ms_p50", "ms"},
    {"service.commit_fanout_ms_p50", "ms"},
    {"service.commit_fanout_ms_p99", "ms"},
    {"persist.listener_ms_p50", "ms"},
    {"persist.listener_ms_p99", "ms"},
    {"persist.write_ms_p50", "ms"},
    {"persist.fsync_ms_p50", "ms"},
    {"persist.fsync_ms_p99", "ms"},
    {"persist.fsyncs_per_record", "ratio"},
    {"persist.bytes_per_payload_byte", "ratio"},
    {"persist.recover_nodes_per_ms", "nodes/ms"},
    {"replica.listener_ms_p50", "ms"},
    {"replica.read_handler_ms_p50.get", "ms"},
    {"replica.read_handler_ms_p99.get", "ms"},
    {"replica.read_handler_ms_p50.blame", "ms"},
    {"replica.read_handler_ms_p99.blame", "ms"},
    {"replica.records_applied", "count"},
    {"replica.resync_frac", "ratio"},
    {"replica.dup_frac", "ratio"},
    {"blame.fold_ms_p50", "ms"},
    {"net.self_ms_p50", "ms"},
    {"net.self_ms_p99", "ms"},
    {"net.bytes_out_per_req", "bytes"},
    {"net.sends_per_req", "ratio"},
    {"loadgen.late_ms_p99", "ms"},
    {"trace.overhead_frac", "ratio"},
    {"trace.overhead_frac.cpu_ms_per_op", "ratio"},
    {"self.net_ms_per_op", "ms"},
    {"self.service_ms_per_op", "ms"},
    {"self.replica_read_ms_per_op", "ms"},
    {"self.persist_ms_per_op", "ms"},
    {"self.persist_io_ms_per_op", "ms"},
    {"self.blame_ms_per_op", "ms"},
    {"self.replica_ms_per_op", "ms"},
    {"self.tree_build_ms_per_op", "ms"},
    {"self.truediff_ms_per_op", "ms"},
};

std::string firstLineWith(const char *Path, const char *Key) {
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind(Key, 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos) {
        size_t Start = Line.find_first_not_of(" \t", Colon + 1);
        return Start == std::string::npos ? "" : Line.substr(Start);
      }
    }
  return "unknown";
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Out += C;
  }
  return Out;
}

std::string number(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  return Buf;
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <corpus_diff|serve_write|"
               "serve_read_mixed> --seed <n> --seconds <s> --trace <0|1> "
               "[--out <dir>] [--work <dir>]\n",
               Argv0);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  RunArgs A;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage(Argv[0]);
    std::string Val = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = Val;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Val.c_str(), &End, 10);
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Val.c_str(), &End);
    } else if (Flag == "--trace") {
      A.Trace = Val == "1";
      End = Val == "0" || Val == "1" ? nullptr : Val.data();
    } else if (Flag == "--out") {
      A.OutDir = Val;
    } else if (Flag == "--work") {
      A.WorkDir = Val;
    } else {
      return usage(Argv[0]);
    }
    if (End != nullptr && *End != '\0')
      return usage(Argv[0]);
  }
  if (!HaveWorkload || A.Seconds <= 0 ||
      (A.Workload != "corpus_diff" && A.Workload != "serve_write" &&
       A.Workload != "serve_read_mixed"))
    return usage(Argv[0]);
  // Data directories of this run (and of its forked set-ups) live in
  // one private directory, removed when the run ends.
  A.WorkDir = (A.WorkDir.empty() ? std::string(".") : A.WorkDir) + "/run-" +
              std::to_string(::getpid());
  std::filesystem::create_directories(A.WorkDir);

  Report R;
  if (A.Workload == "corpus_diff")
    runCorpusDiff(A, R);
  else if (A.Workload == "serve_write")
    runServeWrite(A, R);
  else
    runServeReadMixed(A, R);
  R.set("peak_rss_mb", peakRssMb(), "MiB");
  if (A.Trace) {
    // Per-layer self time: each span minus what its children cover,
    // summed per layer and divided by the operations traced (root spans).
    static const std::pair<const char *, const char *> SelfOf[] = {
        {"client.request", "self.net_ms_per_op"},
        {"service.handler", "self.service_ms_per_op"},
        {"replica.read_handler", "self.replica_read_ms_per_op"},
        {"persist.listener", "self.persist_ms_per_op"},
        {"persist.io", "self.persist_io_ms_per_op"},
        {"blame.fold", "self.blame_ms_per_op"},
        {"replica.listener", "self.replica_ms_per_op"},
        {"tree.build", "self.tree_build_ms_per_op"},
        {"truediff.compare", "self.truediff_ms_per_op"},
    };
    auto Self = Tracer::get().selfTimes();
    double Ops = 0;
    for (const char *Root : {"client.request", "corpus.pair"})
      if (Self.count(Root))
        Ops += static_cast<double>(Self[Root].second);
    for (const auto &[Span, Metric] : SelfOf)
      if (Ops > 0 && Self.count(Span))
        R.set(Metric, Self[Span].first / Ops, "ms");
  }
  R.set("fail_frac",
        R.Attempted ? static_cast<double>(R.Failed) /
                          static_cast<double>(R.Attempted)
                    : 0,
        "ratio");

  struct utsname U {};
  uname(&U);
  R.meta("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  R.meta("cpu_model", firstLineWith("/proc/cpuinfo", "model name"));
  R.meta("kernel", std::string(U.sysname) + " " + U.release);
  R.meta("seed", static_cast<double>(A.Seed));
  R.meta("seconds", A.Seconds);
  R.meta("trace", A.Trace ? "1" : "0");

  // Everything measured, by name, before the result line.
  for (const auto &[Key, Val] : R.Meta)
    std::printf("# %s %s = %s\n", A.Workload.c_str(), Key.c_str(),
                Val.c_str());
  for (const auto &[Name, VU] : R.Metrics)
    std::printf("%s %s = %s %s\n", A.Workload.c_str(), Name.c_str(),
                number(VU.first).c_str(), VU.second.c_str());
  for (const std::string &V : R.Violations)
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", V.c_str());

  std::string Metrics;
  auto Add = [&](const MetricSpec &M) {
    auto It = R.Metrics.find(M.Name);
    double V = It == R.Metrics.end() ? 0 : It->second.first;
    if (!Metrics.empty())
      Metrics += ", ";
    Metrics += std::string("\"") + M.Name + "\": {\"value\": " + number(V) +
               ", \"unit\": \"" + M.Unit + "\"}";
  };
  if (A.Trace) {
    for (const MetricSpec &M : PerLayer)
      Add(M);
  } else {
    for (const MetricSpec &M : EndToEnd) {
      if (!R.Metrics.count(M.Name))
        R.violation(std::string("workload did not measure ") + M.Name);
      Add(M);
    }
  }
  bool Correct = R.Violations.empty();
  std::string Line = std::string("{\"correct\": ") +
                     (Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(R.Attempted) +
                     ", \"failed\": " + std::to_string(R.Failed) +
                     ", \"metrics\": {" + Metrics + "}}";

  if (!A.OutDir.empty()) {
    // The full record: every metric and the run's context.
    std::filesystem::create_directories(A.OutDir);
    std::string Path = A.OutDir + "/" + A.Workload + "-seed" +
                       std::to_string(A.Seed) + "-trace" +
                       (A.Trace ? "1" : "0") + ".json";
    std::ofstream Out(Path);
    Out << "{\"workload\": \"" << A.Workload << "\", \"meta\": {";
    bool First = true;
    for (const auto &[Key, Val] : R.Meta) {
      Out << (First ? "" : ", ") << "\"" << Key << "\": \"" << jsonEscape(Val)
          << "\"";
      First = false;
    }
    Out << "}, \"metrics\": {";
    First = true;
    for (const auto &[Name, VU] : R.Metrics) {
      Out << (First ? "" : ", ") << "\"" << Name
          << "\": {\"value\": " << number(VU.first) << ", \"unit\": \""
          << VU.second << "\"}";
      First = false;
    }
    Out << "}, \"violations\": " << R.Violations.size() << "}\n";
    if (A.Trace)
      Tracer::get().writeJsonLines(A.OutDir + "/" + A.Workload + "-seed" +
                                   std::to_string(A.Seed) + ".spans.jsonl");
  }
  std::filesystem::remove_all(A.WorkDir);
  std::printf("%s\n", Line.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
