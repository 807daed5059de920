//===- perfbench/bench/Harness.cpp - Shared benchmark machinery ------------===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <dirent.h>
#include <fstream>
#include <memory>
#include <mutex>
#include <sched.h>
#include <sstream>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/utsname.h>
#include <unistd.h>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {
int64_t StartNs = 0;
} // namespace

void markProcessStart() { StartNs = nowNs(); }
int64_t processStartNs() { return StartNs; }

double percentile(std::vector<double> &V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * V.size()));
  return V[std::min(V.size() - 1, Rank ? Rank - 1 : 0)];
}

//===----------------------------------------------------------------------===//
// /proc accounting
//===----------------------------------------------------------------------===//

pid_t currentTid() { return static_cast<pid_t>(syscall(SYS_gettid)); }

std::vector<pid_t> listTasks() {
  std::vector<pid_t> Out;
  DIR *D = opendir("/proc/self/task");
  if (!D)
    return Out;
  while (dirent *Ent = readdir(D))
    if (Ent->d_name[0] >= '0' && Ent->d_name[0] <= '9')
      Out.push_back(static_cast<pid_t>(atoi(Ent->d_name)));
  closedir(D);
  std::sort(Out.begin(), Out.end());
  return Out;
}

std::vector<pid_t> newTasks(const std::vector<pid_t> &Before,
                            const std::vector<pid_t> &After) {
  std::vector<pid_t> Out;
  std::set_difference(After.begin(), After.end(), Before.begin(),
                      Before.end(), std::back_inserter(Out));
  return Out;
}

double threadCpuSeconds(pid_t Tid) {
  std::string Dir = "/proc/self/task/" + std::to_string(Tid);
  // schedstat's first field is the thread's time on a CPU in ns; stat's
  // utime and stime count whole clock ticks (10 ms), too coarse for
  // threads that live a few milliseconds.
  std::ifstream Sched(Dir + "/schedstat");
  unsigned long long RunNs = 0;
  if (Sched >> RunNs)
    return static_cast<double>(RunNs) * 1e-9;
  std::ifstream In(Dir + "/stat");
  std::string Line;
  if (!std::getline(In, Line))
    return 0;
  // Fields after the parenthesised command name: state is field 3,
  // utime and stime are fields 14 and 15.
  size_t Close = Line.rfind(')');
  if (Close == std::string::npos)
    return 0;
  std::istringstream Rest(Line.substr(Close + 2));
  std::string Tok;
  unsigned long long UTime = 0, STime = 0;
  for (int Field = 3; Rest >> Tok; ++Field) {
    if (Field == 14)
      UTime = std::stoull(Tok);
    if (Field == 15) {
      STime = std::stoull(Tok);
      break;
    }
  }
  return static_cast<double>(UTime + STime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double cpuSeconds(const std::vector<pid_t> &Tids) {
  double S = 0;
  for (pid_t T : Tids)
    S += threadCpuSeconds(T);
  return S;
}

void Outcome::noteThreads() {
  MaxThreads = std::max(MaxThreads, listTasks().size());
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

unsigned usableCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&Set)));
}

namespace {
std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out;
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos)
        return Line.substr(Colon + 2);
    }
  return "unknown";
}
} // namespace

std::string hostRecordJson() {
  utsname U{};
  uname(&U);
  std::ostringstream OS;
  OS << "{\"nproc\": " << usableCpus() << ", \"cpu\": \""
     << jsonEscape(cpuModel()) << "\", \"compiler\": \"gcc "
     << jsonEscape(__VERSION__) << "\", \"build_type\": \""
     << PERFBENCH_BUILD_TYPE << "\", \"kernel\": \""
     << jsonEscape(std::string(U.sysname) + " " + U.release) << "\"}";
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Span tracer
//===----------------------------------------------------------------------===//

bool TracingOn = false;

namespace {

struct SpanRec {
  const char *Name;
  int64_t StartNs;
  int64_t EndNs;
  int64_t Parent; ///< index into the same thread's log, -1 for a root
  uint64_t Id;
};

/// One thread's spans. Owned by the registry so they outlive the thread.
struct ThreadLog {
  pid_t Tid = 0;
  std::vector<SpanRec> Spans;
  std::vector<int64_t> Open; ///< stack of unfinished span indices
};

std::mutex RegistryMu;
std::vector<std::unique_ptr<ThreadLog>> Registry;

ThreadLog &myLog() {
  thread_local ThreadLog *Log = nullptr;
  if (!Log) {
    auto L = std::make_unique<ThreadLog>();
    L->Tid = currentTid();
    L->Spans.reserve(1 << 16);
    Log = L.get();
    std::lock_guard<std::mutex> G(RegistryMu);
    Registry.push_back(std::move(L));
  }
  return *Log;
}

} // namespace

void Span::begin(const char *Name, uint64_t Id) {
  ThreadLog &L = myLog();
  int64_t Parent = L.Open.empty() ? -1 : L.Open.back();
  Slot = static_cast<int64_t>(L.Spans.size());
  L.Spans.push_back({Name, nowNs(), 0, Parent, Id});
  L.Open.push_back(Slot);
}

void Span::end() {
  ThreadLog &L = myLog();
  L.Spans[static_cast<size_t>(Slot)].EndNs = nowNs();
  L.Open.pop_back();
}

std::map<std::string, SpanTotals> spanTotals(int64_t FromNs, int64_t ToNs) {
  std::map<std::string, SpanTotals> Out;
  std::lock_guard<std::mutex> G(RegistryMu);
  for (const auto &L : Registry) {
    std::vector<int64_t> ChildNs(L->Spans.size(), 0);
    for (const SpanRec &S : L->Spans)
      if (S.Parent >= 0)
        ChildNs[static_cast<size_t>(S.Parent)] += S.EndNs - S.StartNs;
    for (size_t I = 0; I != L->Spans.size(); ++I) {
      const SpanRec &S = L->Spans[I];
      if (S.StartNs < FromNs || S.StartNs >= ToNs || S.EndNs == 0)
        continue;
      SpanTotals &T = Out[S.Name];
      T.TotalS += static_cast<double>(S.EndNs - S.StartNs) * 1e-9;
      T.SelfS += static_cast<double>(S.EndNs - S.StartNs - ChildNs[I]) * 1e-9;
      ++T.Count;
    }
  }
  return Out;
}

double rootSpanSeconds(int64_t FromNs, int64_t ToNs) {
  const ThreadLog &L = myLog();
  int64_t Sum = 0;
  for (const SpanRec &S : L.Spans)
    if (S.Parent < 0 && S.StartNs >= FromNs && S.StartNs < ToNs &&
        S.EndNs != 0)
      Sum += S.EndNs - S.StartNs;
  return static_cast<double>(Sum) * 1e-9;
}

uint64_t spanCount() {
  std::lock_guard<std::mutex> G(RegistryMu);
  uint64_t N = 0;
  for (const auto &L : Registry)
    N += L->Spans.size();
  return N;
}

bool writeChromeTrace(const std::string &Path, const std::string &Meta) {
  FILE *F = fopen(Path.c_str(), "w");
  if (!F)
    return false;
  fprintf(F, "{\"otherData\": %s,\n\"traceEvents\": [\n", Meta.c_str());
  std::lock_guard<std::mutex> G(RegistryMu);
  bool First = true;
  int64_t Base = processStartNs();
  // Each thread's first spans up to a fixed share of the cap; the totals
  // (spanTotals) still cover every span.
  size_t PerThread = MaxWrittenSpans / std::max<size_t>(1, Registry.size());
  for (const auto &L : Registry)
    for (size_t I = 0; I != L->Spans.size() && I != PerThread; ++I) {
      const SpanRec &S = L->Spans[I];
      if (S.EndNs == 0)
        continue;
      fprintf(F,
              "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
              "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
              "\"parent\":%lld}}",
              First ? "" : ",\n", S.Name, static_cast<int>(L->Tid),
              static_cast<double>(S.StartNs - Base) * 1e-3,
              static_cast<double>(S.EndNs - S.StartNs) * 1e-3,
              static_cast<unsigned long long>(S.Id),
              static_cast<long long>(S.Parent));
      First = false;
    }
  fprintf(F, "\n]}\n");
  return fclose(F) == 0;
}

} // namespace perfbench
