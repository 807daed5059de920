//===- perfbench/bench/Update.cpp - Event-propagation latency workload -----===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
// The Section 5.2 ring (16 switches, H2 eight hops from H1) under a
// one-way H1->H2 data flood with the probe that fires the ring's event at
// a seeded position in the flood. The event fires once per engine, so
// every repetition builds a fresh 2-shard engine, injects the whole storm
// as one batch (the update races the backlog), waits for quiescence and
// reads every switch's register. A one-way flood leaves the far arc of
// the ring without data traffic to gossip the event, so its switches
// learn through the update pipeline: the shard-local fast path, the
// controller's deltas and the eventfd wake. Repetitions continue until
// the time is up and at least 2000 detect-to-learn samples exist. The
// storm also crosses the classifier, the MPSC rings and the 2-shard
// partition, so the traced run times those layers on the storm's headers.
//
//===----------------------------------------------------------------------===//

#include "Oracles.h"
#include "Workloads.h"

#include "apps/Programs.h"
#include "consistency/Check.h"
#include "engine/Compiled.h"
#include "engine/Engine.h"
#include "engine/Queue.h"
#include "nes/Pipeline.h"
#include "sim/Wire.h"

#include <algorithm>
#include <random>

using namespace eventnet;

namespace perfbench {

namespace {

constexpr unsigned RingSwitches = 16;
constexpr unsigned FloodPackets = 2000;
constexpr unsigned ProbePositions = 64;
constexpr size_t MinSamples = 2000;

engine::EngineConfig stormConfig(bool RecordTrace) {
  engine::EngineConfig Cfg;
  Cfg.NumShards = 2;
  Cfg.RecordTrace = RecordTrace;
  Cfg.RecordDeliveries = false;
  Cfg.EchoReplies = false;
  return Cfg;
}

/// The flood with the probe inserted at \p At.
std::vector<engine::Injection> storm(unsigned Packets, size_t At) {
  std::vector<engine::Injection> Inj;
  for (unsigned I = 0; I != Packets; ++I)
    Inj.push_back({topo::HostH1,
                   sim::makeWireHeader(topo::HostH1, topo::HostH2,
                                       sim::KindData, I + 1)});
  netkat::Packet Probe = sim::makeWireHeader(topo::HostH1, topo::HostH2,
                                             sim::KindProbe, Packets + 1);
  Probe.set(sim::probeField(), 1);
  Inj.insert(Inj.begin() + static_cast<ptrdiff_t>(std::min<size_t>(At, Packets)),
             {topo::HostH1, std::move(Probe)});
  return Inj;
}

/// Nanoseconds per Classifier::apply over the storm's headers, each
/// located at its ingress port.
double classifierNsPerLookup(const nes::Nes &N, const topo::Topology &Topo,
                             const std::vector<engine::Injection> &Inj) {
  engine::SwitchIndex Idx(Topo);
  engine::CompiledNes Cn(N, Idx);
  std::vector<std::pair<uint32_t, netkat::Packet>> Located;
  for (const engine::Injection &In : Inj) {
    netkat::Packet P = In.Header;
    Location At = Topo.hostLoc(In.From);
    P.setLoc(At);
    Located.push_back({Idx.denseOf(At.Sw), std::move(P)});
  }
  engine::PacketBuf Out;
  uint64_t Emitted = 0, Lookups = 0;
  int64_t T0 = nowNs();
  for (int Rep = 0; Rep != 50; ++Rep)
    for (const auto &[D, P] : Located) {
      Out.reset();
      Cn.pipe(0, D).applyClassifier(P, Out);
      Emitted += Out.size();
      ++Lookups;
    }
  double Ns = static_cast<double>(nowNs() - T0);
  return Emitted ? Ns / static_cast<double>(Lookups) : 0;
}

/// Nanoseconds per message through a bounded MPSC ring, pushed and
/// popped in batches of 32 (the engine's hot-loop batch size).
double queueNsPerMsg(const std::vector<engine::Injection> &Inj) {
  engine::BoundedMpscQueue<engine::Injection> Q(1 << 12);
  std::vector<engine::Injection> Sink(32);
  uint64_t Moved = 0;
  int64_t T0 = nowNs();
  for (int Rep = 0; Rep != 50; ++Rep)
    for (size_t I = 0; I + 32 <= Inj.size(); I += 32) {
      size_t Pushed = Q.tryPushBatch(&Inj[I], 32);
      Moved += Q.tryPopBatch(Sink.data(), Pushed);
    }
  return static_cast<double>(nowNs() - T0) / static_cast<double>(Moved);
}

/// Nanoseconds per netkat::Packet get + set pair on the storm's headers.
double packetGetSetNs(const std::vector<engine::Injection> &Inj) {
  std::vector<netkat::Packet> Pkts;
  for (const engine::Injection &In : Inj)
    Pkts.push_back(In.Header);
  FieldId Dst = sim::ipDstField(), Seq = sim::seqField();
  Value Sum = 0;
  uint64_t Ops = 0;
  int64_t T0 = nowNs();
  for (int Rep = 0; Rep != 50; ++Rep)
    for (netkat::Packet &P : Pkts) {
      Sum += P.get(Dst);
      P.set(Seq, Sum & 0xffff);
      ++Ops;
    }
  double Ns = static_cast<double>(nowNs() - T0);
  return Sum != -1 ? Ns / static_cast<double>(Ops) : 0;
}

} // namespace

Outcome runUpdate(const RunOptions &O) {
  Outcome R;
  apps::App A = apps::ringApp(RingSwitches, RingSwitches / 2);
  api::Result<nes::CompiledProgram> C = nes::compileAst(A.Ast, A.Topo);
  if (!C.ok()) {
    R.fail("ring program failed to compile: " + C.status().str());
    return R;
  }
  const nes::Nes &N = *C->N;
  const topo::Topology &Topo = A.Topo;
  if (N.numEvents() != 1 || N.numSets() != 2) {
    R.fail("ring program does not have exactly one event");
    return R;
  }
  nes::SetId After = N.emptySet() == 0 ? 1 : 0;
  std::vector<SwitchId> Expected =
      changedSwitches(Topo, N.configOf(N.emptySet()), N.configOf(After));
  engine::SwitchIndex Idx(Topo);

  // Seeded probe positions, one per repetition, cycled. Position I falls
  // in the I-th of ProbePositions equal strata of the flood, so every
  // seed covers early, middle and late triggers alike.
  std::mt19937_64 Rng(O.Seed);
  std::vector<std::vector<engine::Injection>> Storms;
  for (unsigned I = 0; I != ProbePositions; ++I)
    Storms.push_back(storm(FloodPackets,
                           (I * (FloodPackets + 1) +
                            Rng() % (FloodPackets + 1)) /
                               ProbePositions));

  // One untimed repetition warms the allocator and the thread start path.
  {
    engine::Engine E(N, Topo, stormConfig(false));
    E.start();
    E.injectBatch(Storms[0].data(), Storms[0].size());
    E.awaitQuiescence();
    E.finish();
  }
  R.SetupS = secondsSince(processStartNs());

  std::vector<double> LatUs, LastLearnUs, SameUs, CrossUs, RepS, RepRate;
  uint64_t Hops = 0, FastLearns = 0, CtrlDeltas = 0, QueueHwm = 0,
           IdleSleeps = 0, EdgeCut = 0;
  double CpuS = 0;
  int64_t WinStart = nowNs();
  int64_t Deadline = WinStart + static_cast<int64_t>(O.Seconds * 1e9);
  for (uint64_t Rep = 0; LatUs.size() < MinSamples || nowNs() < Deadline;
       ++Rep) {
    const std::vector<engine::Injection> &Inj = Storms[Rep % Storms.size()];
    std::optional<engine::Engine> E;
    {
      Span S("engine.Engine", Rep);
      E.emplace(N, Topo, stormConfig(false));
    }
    std::vector<pid_t> Before = O.Trace ? listTasks() : std::vector<pid_t>();
    {
      Span S("engine.start", Rep);
      E->start();
    }
    if (Rep == 0)
      R.noteThreads();
    std::vector<pid_t> Tids =
        O.Trace ? newTasks(Before, listTasks()) : std::vector<pid_t>();
    int64_t T0 = nowNs();
    {
      Span S("engine.injectBatch", Rep);
      E->injectBatch(Inj.data(), Inj.size());
    }
    {
      Span S("engine.awaitQuiescence", Rep);
      E->awaitQuiescence();
    }
    RepS.push_back(static_cast<double>(nowNs() - T0) * 1e-9);

    std::vector<bool> Learned;
    {
      Span S("engine.readView", Rep);
      for (SwitchId Sw : Expected)
        Learned.push_back(E->readView(Sw).E.test(0));
    }
    if (O.Corrupt == 1 && Rep == 0)
      Learned[0] = false;
    R.Attempted += Expected.size();
    for (std::string &Err : checkLearns(Expected, Learned)) {
      ++R.Failed; // a missing learn is a failed operation, not bad output
      R.Errors.push_back(Err);
    }
    CpuS += cpuSeconds(Tids);
    {
      Span S("engine.finish", Rep);
      E->finish();
    }

    double LastUs = 0;
    for (int64_t Ns : E->transitionLatenciesNs()) {
      LatUs.push_back(static_cast<double>(Ns) * 1e-3);
      LastUs = std::max(LastUs, LatUs.back());
    }
    LastLearnUs.push_back(LastUs);
    engine::Stats St = E->stats();
    Hops += St.PacketsProcessed;
    RepRate.push_back(static_cast<double>(St.PacketsProcessed) / RepS.back());
    FastLearns += St.FastPathLearns;
    CtrlDeltas += St.CtrlDeltas;
    for (const engine::ShardStats &SS : St.Shards) {
      QueueHwm = std::max(QueueHwm, SS.QueueHighWater);
      IdleSleeps += SS.IdleSleeps;
    }
    EdgeCut = St.Partition.CutWeight;
    if (O.Trace) {
      // Split the learns by whether the learning switch shares a shard
      // with the detecting one (the earliest learner).
      const auto &Times = E->learnTimes();
      double Detect = 1e300;
      SwitchId DetectSw = 0;
      for (const auto &[Key, T] : Times)
        if (T < Detect) {
          Detect = T;
          DetectSw = Key.first;
        }
      const std::vector<uint32_t> &ShardOf = E->partition().ShardOf;
      uint32_t DetectShard = ShardOf[Idx.denseOf(DetectSw)];
      for (const auto &[Key, T] : Times) {
        if (Key.first == DetectSw)
          continue;
        double Us = (T - Detect) * 1e6;
        (ShardOf[Idx.denseOf(Key.first)] == DetectShard ? SameUs : CrossUs)
            .push_back(Us);
      }
    }
  }
  int64_t WinEnd = nowNs();

  // A small recorded storm must pass the batch Definition 6 checker. It
  // stays small: the batch checker's memory is quadratic in trace length.
  {
    engine::Engine E(N, Topo, stormConfig(true));
    std::vector<engine::Injection> Small = storm(200, Rng() % 201);
    E.start();
    E.injectBatch(Small.data(), Small.size());
    E.awaitQuiescence();
    E.finish();
    consistency::CheckResult Chk =
        consistency::checkAgainstNes(E.trace(), Topo, N);
    if (!Chk.Correct)
      R.fail("recorded storm violates Definition 6: " + Chk.Reason);
  }

  size_t Samples = LatUs.size();
  R.Throughput = fastRate(RepRate);
  // Per-learn latencies fall in two clusters: switches on the detecting
  // shard learn within ~15 us, the others after ~50-250 us, so their
  // median sits in the gap. The time until the last switch learned, one
  // sample per storm, has one mode.
  R.report("update_last_learn_p50_us", percentile(LastLearnUs, 0.5), "us");
  R.report("update_last_learn_p99_us", percentile(LastLearnUs, 0.99), "us");
  R.report("update_p50_us", percentile(LatUs, 0.5), "us");
  R.report("update_p99_us", percentile(LatUs, 0.99), "us");
  R.report("learn_samples", static_cast<double>(Samples), "count");
  R.report("repetitions", static_cast<double>(RepS.size()), "count");
  R.report("storm_mhops_per_s", R.Throughput / 1e6, "M hops/s");
  R.report("expected_learns_per_rep", static_cast<double>(Expected.size()),
           "count");

  if (O.Trace) {
    std::map<std::string, SpanTotals> T = spanTotals(WinStart, WinEnd);
    double WindowS = static_cast<double>(WinEnd - WinStart) * 1e-9;
    R.Layer["engine.construct_s"] = T["engine.Engine"].SelfS;
    R.Layer["engine.inject_s"] = T["engine.injectBatch"].SelfS;
    R.Layer["engine.quiesce_wait_s"] = T["engine.awaitQuiescence"].SelfS;
    R.Layer["engine.cpu_s"] = CpuS;
    R.Layer["engine.ns_per_hop"] = CpuS * 1e9 / static_cast<double>(Hops);
    R.Layer["engine.update_same_shard_p99_us"] = percentile(SameUs, 0.99);
    R.Layer["engine.update_cross_shard_p99_us"] = percentile(CrossUs, 0.99);
    R.Layer["engine.fast_learns"] = static_cast<double>(FastLearns);
    R.Layer["engine.ctrl_deltas"] = static_cast<double>(CtrlDeltas);
    R.Layer["engine.queue_hwm"] = static_cast<double>(QueueHwm);
    R.Layer["engine.idle_sleeps"] = static_cast<double>(IdleSleeps);
    R.Layer["engine.edge_cut"] = static_cast<double>(EdgeCut);
    R.Layer["engine.classifier_ns_per_lookup"] =
        classifierNsPerLookup(N, Topo, Storms[0]);
    R.Layer["engine.queue_ns_per_msg"] = queueNsPerMsg(Storms[0]);
    R.Layer["netkat.packet_getset_ns"] = packetGetSetNs(Storms[0]);
    R.Layer["trace.window_s"] = WindowS;
    R.Layer["trace.unattributed_s"] =
        WindowS - rootSpanSeconds(WinStart, WinEnd);
  }
  return R;
}

} // namespace perfbench
