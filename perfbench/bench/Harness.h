//===- perfbench/bench/Harness.h - Shared benchmark machinery ---*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the end-to-end benchmark shares: the options
/// one run receives, the outcome it reports, the span tracer that the
/// traced run records around each call into a library layer, percentile
/// and CPU-time helpers, and the host record printed with every result.
///
/// The tracer is off in measured runs: a Span then costs one branch on a
/// global flag and takes no timestamps, so the end-to-end metrics and the
/// per-layer metrics come from separate runs and their difference is the
/// tracing overhead.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

/// One run's parameters, as given on the command line.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Self-test only: which corruption (1-based, per workload) to apply
  /// to the outputs just before they are checked; 0 = none.
  int Corrupt = 0;
};

/// What a workload reports. The end-to-end figures (setup, throughput)
/// have the same meaning on every workload relative to that workload's
/// unit of work; Named carries these and the workload's latencies under
/// the workload's own names for the human-readable report.
struct Outcome {
  bool Correct = true;
  std::vector<std::string> Errors;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  double SetupS = 0;
  double Throughput = 0; ///< units of work per second (fastRate)

  struct Named {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Named> Report; ///< workload-named end-to-end figures
  /// Per-layer metrics (traced run only); absent names print as 0.
  std::map<std::string, double> Layer;
  /// Most threads the process had at any sampled point.
  size_t MaxThreads = 0;

  /// Records a failed output check.
  void fail(std::string Why) {
    Correct = false;
    Errors.push_back(std::move(Why));
  }
  void report(std::string Name, double Value, std::string Unit) {
    Report.push_back({std::move(Name), Value, std::move(Unit)});
  }
  /// Samples the process's thread count (call once all threads run).
  void noteThreads();
};

//===----------------------------------------------------------------------===//
// Time
//===----------------------------------------------------------------------===//

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// steady_clock at the top of main(): set-up time counts from here.
int64_t processStartNs();
void markProcessStart();

/// Seconds elapsed since \p StartNs.
inline double secondsSince(int64_t StartNs) {
  return static_cast<double>(nowNs() - StartNs) * 1e-9;
}

/// Exact percentile (nearest rank) of \p V; sorts in place. 0 if empty.
double percentile(std::vector<double> &V, double Q);

/// The throughput a workload reports: the 90th percentile of its
/// per-operation rates (per pass, storm, batch or time slice), the rate
/// the fastest tenth of operations reached. A shared host alternates
/// between a fast and a slow state for seconds at a time, so within one
/// run the rates fall in two groups and their median jumps between the
/// groups from run to run; the fast group's rate repeats (README.md).
inline double fastRate(std::vector<double> &Rates) {
  return percentile(Rates, 0.9);
}

//===----------------------------------------------------------------------===//
// Process and thread accounting (Linux /proc)
//===----------------------------------------------------------------------===//

/// Kernel thread id of the calling thread.
pid_t currentTid();
/// Thread ids currently in this process.
std::vector<pid_t> listTasks();
/// Ids in \p After that are not in \p Before (threads a call started).
std::vector<pid_t> newTasks(const std::vector<pid_t> &Before,
                            const std::vector<pid_t> &After);
/// CPU seconds of thread \p Tid of this process (/proc schedstat, or
/// stat's tick counts where schedstat is missing); 0 once it has exited.
double threadCpuSeconds(pid_t Tid);
/// Sum of threadCpuSeconds over \p Tids.
double cpuSeconds(const std::vector<pid_t> &Tids);
/// Peak resident set size of the process, MB.
double peakRssMb();
/// CPUs this process may run on (what `nproc` prints).
unsigned usableCpus();

/// One line describing the host: nproc, CPU model, compiler, build type,
/// kernel. Printed before every result and written into every trace.
std::string hostRecordJson();

//===----------------------------------------------------------------------===//
// Span tracer
//===----------------------------------------------------------------------===//

/// Whether spans are recorded (set once, before any workload thread
/// starts).
extern bool TracingOn;

/// A scoped span around one call into a library layer. Spans of one
/// thread nest; each records its enclosing span as parent. \p Id is the
/// batch, pass or request the call served.
class Span {
public:
  Span(const char *Name, uint64_t Id = 0) {
    if (TracingOn)
      begin(Name, Id);
  }
  ~Span() {
    if (Slot >= 0)
      end();
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  void begin(const char *Name, uint64_t Id);
  void end();
  int64_t Slot = -1;
};

/// Per-name totals over spans that started inside [FromNs, ToNs).
struct SpanTotals {
  double TotalS = 0; ///< summed durations
  double SelfS = 0;  ///< durations minus time covered by child spans
  uint64_t Count = 0;
};
std::map<std::string, SpanTotals> spanTotals(int64_t FromNs, int64_t ToNs);

/// Sum of the durations of root spans recorded by the calling thread
/// inside the window (what the thread's spans attribute of it).
double rootSpanSeconds(int64_t FromNs, int64_t ToNs);

/// Most spans one trace file holds (about 30 MB of JSON).
inline constexpr size_t MaxWrittenSpans = 200000;

/// Writes the recorded spans (at most MaxWrittenSpans) as Chrome
/// trace_event JSON, with \p Meta as its otherData.
bool writeChromeTrace(const std::string &Path, const std::string &Meta);

/// Number of spans recorded so far.
uint64_t spanCount();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
