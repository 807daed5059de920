//===- perfbench/bench/Verified.cpp - Checked-forwarding workload ----------===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
// The ring program on one long-lived 1-shard engine whose trace streams
// into the Definition 6 streaming checker, fed by this file's own
// collector thread. The injecting thread runs closed-loop: after each batch has
// quiesced it waits until the stream backlog is below one batch's worth,
// so the engine runs at the rate the checker sustains and nothing is
// shed. The checker is the bottleneck here; the forwarding work is the
// same kind as in the other engine workloads. The seed draws each
// packet's direction (H1->H2 or H2->H1) and where the probes sit.
//
//===----------------------------------------------------------------------===//

#include "Oracles.h"
#include "Workloads.h"

#include "apps/Programs.h"
#include "consistency/StreamCheck.h"
#include "engine/Engine.h"
#include "nes/Pipeline.h"
#include "sim/Wire.h"

#include <atomic>
#include <random>
#include <thread>

using namespace eventnet;

namespace perfbench {

namespace {

constexpr unsigned BatchPackets = 512;
constexpr unsigned PoolBatches = 32;
constexpr unsigned WarmupBatches = 4;
/// Stream items a batch leaves behind at most before the next may go:
/// enough work (10-20 ms of checking) that the checker does not run dry
/// while the injecting thread waits to be scheduled.
constexpr uint64_t BacklogLimit = 16 * BatchPackets;

/// The collector: drains the engine's trace stream into the checker
/// while the run is live.
class Collector {
public:
  Collector(engine::Engine &E, consistency::StreamChecker &Chk)
      : E(E), Chk(Chk), Th([this] { loop(); }) {}
  ~Collector() { stop(); }
  Collector(const Collector &) = delete;
  Collector &operator=(const Collector &) = delete;

  /// Joins the thread, then drains what the last iteration raced past.
  /// Idempotent: only the first call drains.
  void stop() {
    if (Stop.exchange(true))
      return;
    Th.join();
    drainOnce();
  }

  double cpuSeconds() const { return threadCpuSeconds(Tid.load()); }
  uint64_t entries() const { return Entries.load(std::memory_order_relaxed); }

private:
  void loop() {
    Tid.store(currentTid());
    while (!Stop.load(std::memory_order_acquire))
      if (!drainOnce())
        std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

  bool drainOnce() {
    Buf.clear();
    uint64_t W;
    {
      Span S("engine.drainTraceStream");
      W = E.drainTraceStream(Buf);
    }
    // Declared before feeding: a gappy feed may only degrade the verdict.
    if (!Gap && E.streamLagShed() > 0) {
      Gap = true;
      Chk.noteGap("stream_backlog");
    }
    {
      Span S("consistency.feed");
      for (const engine::Engine::StreamItem &It : Buf) {
        if (It.K == engine::Engine::StreamItem::Excuse) {
          Chk.feedExcuse(It.Ticket);
        } else {
          Chk.feedEntry(It.Ticket, It.Parent, It.Lp, It.IsDelivery, It.IsDup);
          Entries.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    if (W > 0) {
      Span S("consistency.advance");
      Chk.advance(W - 1);
    }
    return !Buf.empty();
  }

  engine::Engine &E;
  consistency::StreamChecker &Chk;
  std::vector<engine::Engine::StreamItem> Buf;
  std::atomic<uint64_t> Entries{0};
  bool Gap = false;
  std::atomic<bool> Stop{false};
  std::atomic<pid_t> Tid{0};
  std::thread Th; ///< last: starts after every member it uses
};

struct Batch {
  std::vector<engine::Injection> Inj;
};

std::vector<Batch> makePool(uint64_t Seed) {
  std::mt19937_64 R(Seed);
  std::vector<Batch> Pool(PoolBatches);
  uint64_t Seq = 1;
  for (unsigned B = 0; B != PoolBatches; ++B) {
    for (unsigned I = 0; I != BatchPackets; ++I) {
      bool Forward = R() % 2;
      HostId From = Forward ? topo::HostH1 : topo::HostH2;
      HostId To = Forward ? topo::HostH2 : topo::HostH1;
      Pool[B].Inj.push_back(
          {From, sim::makeWireHeader(From, To, sim::KindData, Seq++)});
    }
    // A quarter of the batches carry a probe; only the first to arrive
    // fires the event, the rest check the post-event configuration.
    if (R() % 4 == 0) {
      netkat::Packet P = sim::makeWireHeader(topo::HostH1, topo::HostH2,
                                             sim::KindProbe, Seq++);
      P.set(sim::probeField(), 1);
      auto At = Pool[B].Inj.begin() +
                static_cast<ptrdiff_t>(R() % (BatchPackets + 1));
      Pool[B].Inj.insert(At, {topo::HostH1, std::move(P)});
    }
  }
  return Pool;
}

} // namespace

Outcome runVerified(const RunOptions &O) {
  Outcome R;
  apps::App A = apps::ringApp(16, 8);
  api::Result<nes::CompiledProgram> C = nes::compileAst(A.Ast, A.Topo);
  if (!C.ok()) {
    R.fail("ring program failed to compile: " + C.status().str());
    return R;
  }
  const nes::Nes &N = *C->N;
  std::vector<Batch> Pool = makePool(O.Seed);

  engine::EngineConfig Cfg;
  Cfg.NumShards = 1;
  Cfg.RecordTrace = false;
  Cfg.StreamTrace = true;
  Cfg.RecordDeliveries = false;
  Cfg.EchoReplies = false;
  consistency::StreamOptions SO;
  SO.QuietHorizon = std::max<uint64_t>(8192, SO.Window / 2);

  int64_t C0 = nowNs();
  engine::Engine E(N, A.Topo, Cfg);
  double ConstructS = secondsSince(C0);
  consistency::StreamChecker Chk(N, A.Topo, SO);
  std::vector<pid_t> Before = listTasks();
  E.start();
  std::vector<pid_t> EngineTids = newTasks(Before, listTasks());
  Collector Col(E, Chk);

  uint64_t Roots = 0;
  auto RunBatch = [&](uint64_t I) {
    const Batch &B = Pool[I % Pool.size()];
    {
      Span S("engine.injectBatch", I);
      E.injectBatch(B.Inj.data(), B.Inj.size());
    }
    {
      Span S("engine.awaitQuiescence", I);
      E.awaitQuiescence();
    }
    {
      Span S("engine.backlogWait", I);
      while (E.streamBacklog() > BacklogLimit)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    Roots += B.Inj.size();
  };
  for (unsigned I = 0; I != WarmupBatches; ++I)
    RunBatch(I);
  R.noteThreads();
  R.SetupS = secondsSince(processStartNs());

  double Cpu0 = cpuSeconds(EngineTids), ColCpu0 = Col.cpuSeconds();
  engine::Stats S0 = E.stats();
  uint64_t Entries0 = Col.entries();
  std::vector<double> BatchS, BatchRate;
  uint64_t HopsBefore = S0.PacketsProcessed;
  int64_t WinStart = nowNs();
  int64_t Deadline = WinStart + static_cast<int64_t>(O.Seconds * 1e9);
  for (uint64_t I = WarmupBatches; BatchS.empty() || nowNs() < Deadline;
       ++I) {
    int64_t T0 = nowNs();
    RunBatch(I);
    double Dt = static_cast<double>(nowNs() - T0) * 1e-9;
    uint64_t Hops = E.stats().PacketsProcessed;
    BatchS.push_back(Dt);
    BatchRate.push_back(static_cast<double>(Hops - HopsBefore) / Dt);
    HopsBefore = Hops;
  }
  int64_t WinEnd = nowNs();
  engine::Stats S1 = E.stats();
  uint64_t WindowEntries = Col.entries() - Entries0;
  double CpuS = cpuSeconds(EngineTids) - Cpu0, ColCpuS = Col.cpuSeconds() - ColCpu0;
  uint64_t TimedHops = S1.PacketsProcessed - S0.PacketsProcessed;

  E.finish();
  Col.stop();
  uint64_t Shed = E.streamLagShed();
  if (Shed > 0)
    Chk.noteGap("stream_backlog");
  consistency::StreamResult SR = Chk.finish();

  VerifiedTally T;
  T.VerdictOk = SR.ok();
  T.Reason = SR.Reason;
  T.StreamShed = Shed;
  T.TreesRetired = SR.Stats.TreesRetired;
  T.RootsInjected = Roots;
  T.EntriesIngested = SR.Stats.EntriesIngested;
  T.EntriesChecked = SR.Stats.EntriesChecked;
  if (O.Corrupt == 1)
    --T.TreesRetired;
  if (O.Corrupt == 2)
    ++T.StreamShed;
  for (std::string &Err : checkVerified(T))
    R.fail(Err);
  R.Attempted = Col.entries() + Shed;
  R.Failed = Shed + (T.EntriesIngested - T.EntriesChecked);

  R.Throughput = fastRate(BatchRate);
  R.report("verified_mhops_per_s", R.Throughput / 1e6, "M hops/s");
  R.report("batch_p50_us", percentile(BatchS, 0.5) * 1e6, "us");
  R.report("entries_checked", static_cast<double>(T.EntriesChecked),
           "count");
  R.report("trees_retired", static_cast<double>(T.TreesRetired), "count");

  if (O.Trace) {
    std::map<std::string, SpanTotals> Tot = spanTotals(WinStart, WinEnd);
    double WindowS = static_cast<double>(WinEnd - WinStart) * 1e-9;
    double Feed = Tot["consistency.feed"].SelfS;
    double Adv = Tot["consistency.advance"].SelfS;
    R.Layer["engine.construct_s"] = ConstructS;
    R.Layer["engine.inject_s"] = Tot["engine.injectBatch"].SelfS;
    R.Layer["engine.quiesce_wait_s"] = Tot["engine.awaitQuiescence"].SelfS;
    R.Layer["engine.backlog_wait_s"] = Tot["engine.backlogWait"].SelfS;
    R.Layer["engine.stream_drain_s"] = Tot["engine.drainTraceStream"].SelfS;
    R.Layer["engine.cpu_s"] = CpuS;
    R.Layer["engine.ns_per_hop"] = CpuS * 1e9 / static_cast<double>(TimedHops);
    R.Layer["consistency.feed_s"] = Feed;
    R.Layer["consistency.advance_s"] = Adv;
    R.Layer["consistency.ns_per_entry"] =
        (Feed + Adv) * 1e9 / static_cast<double>(WindowEntries);
    R.Layer["consistency.cpu_s"] = ColCpuS;
    R.Layer["consistency.peak_window"] =
        static_cast<double>(SR.Stats.PeakWindow);
    R.Layer["consistency.peak_resident_mb"] =
        static_cast<double>(SR.Stats.PeakResidentBytes) / (1 << 20);
    R.Layer["trace.window_s"] = WindowS;
    R.Layer["trace.unattributed_s"] =
        WindowS - rootSpanSeconds(WinStart, WinEnd);
  }
  return R;
}

} // namespace perfbench
