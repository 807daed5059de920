//===- perfbench/bench/Main.cpp - Benchmark entry point --------------------===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
// Usage:
//   perfbench --workload compile|update|verified|serve
//             --seed N --seconds S --trace 0|1
//   perfbench --selftest
//
// Prints the host record, the workload's figures under their own names,
// and as the last line one JSON object: correct, attempted, failed and
// the metrics (the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1). A traced run also writes its spans as Chrome
// trace_event JSON under .bench_out/.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/stat.h>

using namespace perfbench;

namespace {

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// The end-to-end metrics, printed by every untraced run.
const MetricDef EndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_per_s", "1/s"},
};

/// The per-layer metrics, printed by every traced run (0 where the
/// workload does not cross the layer). README.md maps each to the
/// end-to-end metric it should move.
const MetricDef PerLayer[] = {
    {"stateful.parse_s", "s"},
    {"ets.build_s", "s"},
    {"nes.from_ets_s", "s"},
    {"engine.lower_s", "s"},
    {"fdd.compile_s", "s"},
    {"ets.states", "count"},
    {"flowtable.rules", "count"},
    {"engine.classifier_words", "count"},
    {"engine.construct_s", "s"},
    {"engine.inject_s", "s"},
    {"engine.quiesce_wait_s", "s"},
    {"engine.cpu_s", "s"},
    {"engine.ns_per_hop", "ns"},
    {"engine.classifier_ns_per_lookup", "ns"},
    {"engine.queue_ns_per_msg", "ns"},
    {"netkat.packet_getset_ns", "ns"},
    {"engine.queue_hwm", "count"},
    {"engine.idle_sleeps", "count"},
    {"engine.edge_cut", "count"},
    {"engine.update_same_shard_p99_us", "us"},
    {"engine.update_cross_shard_p99_us", "us"},
    {"engine.fast_learns", "count"},
    {"engine.ctrl_deltas", "count"},
    {"engine.stream_drain_s", "s"},
    {"engine.backlog_wait_s", "s"},
    {"consistency.feed_s", "s"},
    {"consistency.advance_s", "s"},
    {"consistency.ns_per_entry", "ns"},
    {"consistency.cpu_s", "s"},
    {"consistency.peak_window", "count"},
    {"consistency.peak_resident_mb", "MB"},
    {"net.server_cpu_s", "s"},
    {"net.ns_per_frame", "ns"},
    {"net.reassembly_partial", "count"},
    {"net.client_encode_ns", "ns"},
    {"net.client_decode_ns", "ns"},
    {"net.send_lag_us", "us"},
    {"trace.window_s", "s"},
    {"trace.unattributed_s", "s"},
    {"trace.spans", "count"},
};

Outcome dispatch(const RunOptions &O) {
  if (O.Workload == "compile")
    return runCompile(O);
  if (O.Workload == "update")
    return runUpdate(O);
  if (O.Workload == "verified")
    return runVerified(O);
  return runServe(O);
}

bool knownWorkload(const std::string &W) {
  return W == "compile" || W == "update" || W == "verified" ||
         W == "serve";
}

/// A JSON number with every significant digit (never NaN or Inf).
std::string num(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

int usage() {
  fprintf(stderr,
          "usage: perfbench --workload compile|update|verified|serve"
          " --seed N --seconds S --trace 0|1\n"
          "       perfbench --selftest\n");
  return 2;
}

/// Every output check must accept a clean run and reject each corrupted
/// one.
int selfTest() {
  struct Case {
    const char *Workload;
    int Corruptions;
  };
  const Case Cases[] = {{"compile", CompileCorruptions},
                        {"update", UpdateCorruptions},
                        {"verified", VerifiedCorruptions},
                        {"serve", ServeCorruptions}};
  bool AllOk = true;
  for (const Case &C : Cases)
    for (int K = 0; K <= C.Corruptions; ++K) {
      RunOptions O;
      O.Workload = C.Workload;
      O.Seed = 7;
      O.Seconds = 0.3;
      O.Corrupt = K;
      Outcome R = dispatch(O);
      bool Rejected = !R.Correct || R.Failed != 0;
      bool Ok = Rejected == (K != 0);
      AllOk &= Ok;
      std::string Why = "accepted";
      if (Rejected)
        Why = "rejected: " + (R.Errors.empty() ? "?" : R.Errors.front());
      printf("selftest %-8s corruption %d: %s (%s)\n", C.Workload, K,
             Ok ? "ok" : "FAILED", Why.c_str());
    }
  printf("selftest: %s\n", AllOk ? "all oracles accept clean output and "
                                   "reject every corruption"
                                 : "FAILED");
  return AllOk ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  markProcessStart();
  RunOptions O;
  bool HaveWorkload = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--selftest")
      return selfTest();
    if (I + 1 >= argc)
      return usage();
    std::string V = argv[++I];
    char *End = nullptr;
    errno = 0;
    if (A == "--workload") {
      O.Workload = V;
      HaveWorkload = knownWorkload(V);
    } else if (A == "--seed") {
      O.Seed = strtoull(V.c_str(), &End, 10);
    } else if (A == "--seconds") {
      O.Seconds = strtod(V.c_str(), &End);
      if (!(O.Seconds > 0 && O.Seconds <= 120))
        return usage();
    } else if (A == "--trace") {
      O.Trace = V == "1";
      if (V != "0" && V != "1")
        return usage();
    } else {
      return usage();
    }
    if (End && (*End || errno))
      return usage();
  }
  if (!HaveWorkload)
    return usage();

  TracingOn = O.Trace;
  Outcome R = dispatch(O);
  R.noteThreads();
  unsigned Cpus = usableCpus();
  if (R.MaxThreads > Cpus)
    R.fail("ran " + std::to_string(R.MaxThreads) + " threads on " +
           std::to_string(Cpus) + " CPUs");

  std::string Host = hostRecordJson();
  printf("host: %s\n", Host.c_str());
  printf("workload %s seed %llu seconds %g trace %d threads %zu\n",
         O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
         O.Seconds, O.Trace ? 1 : 0, R.MaxThreads);
  for (const Outcome::Named &N : R.Report)
    printf("  %-28s %s %s\n", N.Name.c_str(), num(N.Value).c_str(),
           N.Unit.c_str());
  for (size_t I = 0; I != R.Errors.size() && I != 20; ++I)
    fprintf(stderr, "check failed: %s\n", R.Errors[I].c_str());

  std::string Metrics;
  auto Add = [&](const MetricDef &M, double V) {
    Metrics += std::string(Metrics.empty() ? "" : ", ") + "\"" + M.Name +
               "\": {\"value\": " + num(V) + ", \"unit\": \"" + M.Unit +
               "\"}";
  };
  if (O.Trace) {
    R.Layer["trace.spans"] = static_cast<double>(spanCount());
    for (const MetricDef &M : PerLayer) {
      auto It = R.Layer.find(M.Name);
      Add(M, It == R.Layer.end() ? 0.0 : It->second);
    }
    mkdir(".bench_out", 0755);
    std::string Path = ".bench_out/trace-" + O.Workload + "-seed" +
                       std::to_string(O.Seed) + ".json";
    std::string Meta = "{\"host\": " + Host + ", \"workload\": \"" +
                       O.Workload + "\", \"seed\": " +
                       std::to_string(O.Seed) + "}";
    if (writeChromeTrace(Path, Meta))
      printf("trace: %s\n", Path.c_str());
  } else {
    Add(EndToEnd[0], R.SetupS);
    Add(EndToEnd[1], peakRssMb());
    Add(EndToEnd[2], R.Throughput);
  }
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
         "\"metrics\": {%s}}\n",
         R.Correct ? "true" : "false",
         static_cast<unsigned long long>(R.Attempted),
         static_cast<unsigned long long>(R.Failed), Metrics.c_str());
  return 0;
}
