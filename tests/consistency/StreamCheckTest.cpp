//===- tests/consistency/StreamCheckTest.cpp - streaming vs batch ---------===//
//
// The streaming Definition 6 checker's contract: on any trace the batch
// checker can hold, the streaming verdict agrees with checkAgainstNes —
// ok ⇔ Correct, violated ⇒ !Correct, and inconclusive only when a window
// or ordering cut genuinely removed information. Property-tested over
// apps × seeds × shards, with and without fault ledgers, plus window
// boundary and out-of-ticket-order regression cases.
//
//===----------------------------------------------------------------------===//

#include "consistency/StreamCheck.h"

#include "api/Api.h"
#include "api/StreamCollect.h"
#include "apps/Programs.h"
#include "consistency/Check.h"
#include "engine/Engine.h"
#include "engine/TrafficGen.h"
#include "faults/FaultPlan.h"
#include "faults/Injector.h"
#include "netkat/Ast.h"
#include "topo/Builders.h"

#include <gtest/gtest.h>

using namespace eventnet;
using namespace eventnet::engine;
using consistency::StreamOptions;
using consistency::StreamResult;
using consistency::StreamVerdict;

namespace {

struct Scenario {
  apps::App A;
  api::Result<api::Compilation> C;
  Workload W;
};

api::Result<api::Compilation> compileApp(const apps::App &A) {
  api::CompileOptions O;
  if (A.Source.empty())
    O.programAst(A.Ast);
  else
    O.programSource(A.Source);
  return api::compile(std::move(O.topology(A.Topo)));
}

Scenario firewallScenario(uint64_t Seed) {
  Scenario S{apps::firewallApp(), {}, {}};
  S.C = compileApp(S.A);
  TrafficGen G(S.A.Topo, Seed);
  S.W = G.ping(topo::HostH4, topo::HostH1);
  for (int I = 0; I != 12; ++I)
    S.W += G.ping(topo::HostH1, topo::HostH4);
  S.W += G.ping(topo::HostH4, topo::HostH1);
  return S;
}

Scenario authScenario(uint64_t Seed) {
  Scenario S{apps::authenticationApp(), {}, {}};
  S.C = compileApp(S.A);
  TrafficGen G(S.A.Topo, Seed);
  for (HostId To : {topo::HostH3, topo::HostH1, topo::HostH3, topo::HostH2,
                    topo::HostH3})
    S.W += G.ping(topo::HostH4, To);
  return S;
}

Scenario idsScenario(uint64_t Seed) {
  Scenario S{apps::idsApp(), {}, {}};
  S.C = compileApp(S.A);
  TrafficGen G(S.A.Topo, Seed);
  for (HostId To : {topo::HostH3, topo::HostH1, topo::HostH2, topo::HostH3,
                    topo::HostH3})
    S.W += G.ping(topo::HostH4, To);
  return S;
}

Scenario bwcapScenario(uint64_t Seed) {
  Scenario S{apps::bandwidthCapApp(5), {}, {}};
  S.C = compileApp(S.A);
  TrafficGen G(S.A.Topo, Seed);
  for (int I = 0; I != 9; ++I)
    S.W += G.ping(topo::HostH1, topo::HostH4);
  return S;
}

Scenario ringScenario(uint64_t Seed) {
  Scenario S{apps::ringApp(8, 4), {}, {}};
  S.C = compileApp(S.A);
  TrafficGen G(S.A.Topo, Seed);
  S.W = G.pings(2, 3);
  S.W += G.probe(topo::HostH1, topo::HostH2); // the update trigger
  S.W += G.pings(2, 3);
  return S;
}

using Maker = Scenario (*)(uint64_t);
constexpr Maker AllMakers[] = {firewallScenario, authScenario, idsScenario,
                               bwcapScenario, ringScenario};

/// Runs the engine and returns trace + ledger-derived fault context.
struct RunOut {
  consistency::NetworkTrace Trace;
  consistency::FaultContext Ctx;
  bool HasCtx = false;
};

RunOut runEngine(Scenario &S, unsigned Shards,
                 faults::Injector *Inj = nullptr,
                 OverloadPolicy Policy = OverloadPolicy::Block) {
  EngineConfig Cfg;
  Cfg.NumShards = Shards;
  Cfg.Overload = Policy;
  Cfg.Faults = Inj;
  Engine E(S.C->structure(), S.A.Topo, Cfg);
  E.run(S.W);
  RunOut R;
  R.Trace = E.trace();
  faults::FaultLedger L = E.takeFaultLedger();
  R.Ctx.ExcusedEntries = std::move(L.ExcusedEntries);
  R.HasCtx = !R.Ctx.empty();
  return R;
}

/// The differential property itself: streaming must be conclusive on a
/// trace the batch checker holds (default window dwarfs these traces),
/// and the verdicts must coincide.
void expectAgreement(const RunOut &R, const Scenario &S,
                     const std::string &Tag) {
  const consistency::FaultContext *Ctx = R.HasCtx ? &R.Ctx : nullptr;
  auto Batch = consistency::checkAgainstNes(R.Trace, S.A.Topo,
                                            S.C->structure(), Ctx);
  StreamResult Stream = consistency::streamCheckTrace(
      R.Trace, S.A.Topo, S.C->structure(), Ctx);
  EXPECT_NE(Stream.Verdict, StreamVerdict::Inconclusive)
      << Tag << ": inconclusive (" << Stream.Reason
      << ") on a fully-held trace";
  EXPECT_EQ(Stream.ok(), Batch.Correct)
      << Tag << ": stream=" << streamVerdictName(Stream.Verdict) << " ("
      << Stream.Reason << ") batch=" << (Batch.Correct ? "ok" : "fail")
      << " (" << Batch.Reason << ")";
  EXPECT_EQ(Stream.Stats.EntriesChecked, R.Trace.size()) << Tag;
}

} // namespace

class StreamDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamDifferential, AgreesWithBatchAllAppsAllShardCounts) {
  for (Maker Make : AllMakers) {
    for (unsigned Shards : {1u, 2u, 4u}) {
      Scenario S = Make(GetParam());
      ASSERT_TRUE(S.C.ok()) << S.A.Name << ": " << S.C.status().str();
      RunOut R = runEngine(S, Shards);
      expectAgreement(R, S,
                      S.A.Name + " shards=" + std::to_string(Shards));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamDifferential,
                         ::testing::Values(1, 7, 13, 42));

namespace {

faults::FaultPlan namedPlan(const std::string &Name) {
  faults::FaultPlan P;
  P.Seed = 19;
  if (Name == "drop")
    P.Links.push_back({-1, -1, 0.1, 0, 0, 0, -1});
  else if (Name == "dup")
    P.Links.push_back({-1, -1, 0, 0.1, 0, 0, -1});
  else if (Name == "delay")
    P.Links.push_back({-1, -1, 0, 0, 0.15, 0, -1});
  else { // "mixed"
    P.Links.push_back({-1, -1, 0.05, 0.05, 0.1, 0, -1});
    P.Stalls.push_back({-1, 8, 100});
    P.QueueCapacityClamp = 4;
    P.CtrlStormRepeat = 2;
  }
  return P;
}

} // namespace

/// With fault ledgers: excused prefixes must be honored identically by
/// both checkers, and duplicate subtrees checked like any other.
class StreamFaultDifferential
    : public ::testing::TestWithParam<
          std::tuple<const char *, OverloadPolicy>> {};

TEST_P(StreamFaultDifferential, AgreesWithBatchUnderLedgeredFaults) {
  auto [PlanName, Policy] = GetParam();
  faults::FaultPlan Plan = namedPlan(PlanName);
  faults::Injector Inj(Plan);
  for (Maker Make : {firewallScenario, ringScenario}) {
    Scenario S = Make(23);
    ASSERT_TRUE(S.C.ok()) << S.A.Name << ": " << S.C.status().str();
    RunOut R = runEngine(S, 3, &Inj, Policy);
    expectAgreement(R, S,
                    S.A.Name + " plan=" + PlanName + " policy=" +
                        overloadPolicyName(Policy));
  }
}

INSTANTIATE_TEST_SUITE_P(
    PlansByPolicy, StreamFaultDifferential,
    ::testing::Combine(::testing::Values("drop", "dup", "delay", "mixed"),
                       ::testing::Values(OverloadPolicy::Block,
                                         OverloadPolicy::ShedOldest)),
    [](const ::testing::TestParamInfo<
        std::tuple<const char *, OverloadPolicy>> &I) {
      std::string N = std::string(std::get<0>(I.param)) + "_" +
                      overloadPolicyName(std::get<1>(I.param));
      for (char &C : N)
        if (C == '-')
          C = '_';
      return N;
    });

/// Agreement on the *violated* side: truncating a chain without an
/// excusal must fail both checkers the same way.
TEST(StreamCheck, TruncatedChainViolatesLikeBatch) {
  Scenario S = firewallScenario(3);
  ASSERT_TRUE(S.C.ok()) << S.C.status().str();
  RunOut R = runEngine(S, 1);
  ASSERT_GT(R.Trace.size(), 4u);

  // Drop the last entry of some chain: rebuild the trace without the
  // final delivery entry (and anything parented on it).
  consistency::NetworkTrace Cut;
  int LastDelivery = -1;
  for (size_t I = 0; I != R.Trace.size(); ++I)
    if (R.Trace.entries()[I].IsDelivery)
      LastDelivery = (int)I;
  ASSERT_GE(LastDelivery, 0);
  for (size_t I = 0; I != R.Trace.size(); ++I) {
    if ((int)I == LastDelivery)
      continue;
    consistency::TraceEntry E = R.Trace.entries()[I];
    ASSERT_NE(E.Parent, LastDelivery) << "delivery had a child";
    if (E.Parent > LastDelivery)
      --E.Parent; // reindex past the removed entry
    Cut.append(std::move(E));
  }

  auto Batch =
      consistency::checkAgainstNes(Cut, S.A.Topo, S.C->structure());
  StreamResult Stream =
      consistency::streamCheckTrace(Cut, S.A.Topo, S.C->structure());
  EXPECT_FALSE(Batch.Correct);
  EXPECT_TRUE(Stream.violated())
      << streamVerdictName(Stream.Verdict) << ": " << Stream.Reason;
}

/// Window-eviction boundary: a window far smaller than the live set must
/// degrade to inconclusive(window_exceeded) — never to violated, and
/// never to a silent pass.
TEST(StreamCheck, TinyWindowIsInconclusiveNeverViolated) {
  Scenario S = ringScenario(5);
  ASSERT_TRUE(S.C.ok()) << S.C.status().str();
  RunOut R = runEngine(S, 2);
  ASSERT_GT(R.Trace.size(), 32u);

  StreamOptions O;
  O.Window = 4;
  StreamResult Res = consistency::streamCheckTrace(
      R.Trace, S.A.Topo, S.C->structure(),
      R.HasCtx ? &R.Ctx : nullptr, O);
  EXPECT_EQ(Res.Verdict, StreamVerdict::Inconclusive)
      << streamVerdictName(Res.Verdict) << ": " << Res.Reason;
  EXPECT_NE(Res.Reason.find("window_exceeded"), std::string::npos)
      << Res.Reason;
  EXPECT_LE(Res.Stats.PeakWindow, 4u + 1u); // cap enforced per commit
}

/// The boundary just above: a window that fits the whole trace behaves
/// exactly like the default.
TEST(StreamCheck, ExactFitWindowStaysConclusive) {
  Scenario S = firewallScenario(11);
  ASSERT_TRUE(S.C.ok()) << S.C.status().str();
  RunOut R = runEngine(S, 1);

  StreamOptions O;
  O.Window = R.Trace.size(); // never exceeded: nothing is force-cut
  StreamResult Res = consistency::streamCheckTrace(
      R.Trace, S.A.Topo, S.C->structure(),
      R.HasCtx ? &R.Ctx : nullptr, O);
  EXPECT_TRUE(Res.ok()) << streamVerdictName(Res.Verdict) << ": "
                        << Res.Reason;
  EXPECT_GT(Res.Stats.ChainsRetired, 0u);
}

/// A tiny quiet horizon cuts in-flight chains: inconclusive, never a
/// spurious violation on a healthy trace.
TEST(StreamCheck, TinyQuietHorizonNeverViolatesHealthyTrace) {
  Scenario S = ringScenario(17);
  ASSERT_TRUE(S.C.ok()) << S.C.status().str();
  RunOut R = runEngine(S, 4);

  StreamOptions O;
  O.QuietHorizon = 2;
  StreamResult Res = consistency::streamCheckTrace(
      R.Trace, S.A.Topo, S.C->structure(),
      R.HasCtx ? &R.Ctx : nullptr, O);
  EXPECT_FALSE(Res.violated()) << Res.Reason;
}

/// Out-of-ticket-order regression: an entry surfacing *behind* the
/// committed frontier (a watermark lie) degrades the verdict instead of
/// corrupting checker state or passing silently.
TEST(StreamCheck, OutOfOrderCommitIsInconclusive) {
  Scenario S = firewallScenario(29);
  ASSERT_TRUE(S.C.ok()) << S.C.status().str();
  RunOut R = runEngine(S, 1);
  const auto &Es = R.Trace.entries();
  ASSERT_GT(Es.size(), 6u);

  consistency::StreamChecker C(S.C->structure(), S.A.Topo);
  // Feed the whole trace, advance past it, then deliver a stale ticket
  // behind the committed frontier: a watermark lie, not a trace defect.
  for (size_t I = 0; I != Es.size(); ++I)
    C.feedEntry(I, Es[I].Parent, Es[I].Lp, Es[I].IsDelivery);
  C.advance(Es.size() - 1);
  C.feedEntry(3, Es[3].Parent, Es[3].Lp, Es[3].IsDelivery);
  StreamResult Res = C.finish();
  EXPECT_EQ(Res.Verdict, StreamVerdict::Inconclusive)
      << streamVerdictName(Res.Verdict) << ": " << Res.Reason;
  EXPECT_NE(Res.Reason.find("out_of_order"), std::string::npos)
      << streamVerdictName(Res.Verdict) << ": " << Res.Reason;
}

/// Embedder-reported causes (the trace ring dropped events) force the
/// verdict off "ok" even when everything the checker saw was clean.
TEST(StreamCheck, NotedCauseDegradesCleanRun) {
  Scenario S = authScenario(7);
  ASSERT_TRUE(S.C.ok()) << S.C.status().str();
  RunOut R = runEngine(S, 1);
  const auto &Es = R.Trace.entries();

  consistency::StreamChecker C(S.C->structure(), S.A.Topo);
  for (size_t I = 0; I != Es.size(); ++I)
    C.feedEntry(I, Es[I].Parent, Es[I].Lp, Es[I].IsDelivery);
  C.noteCause("trace_dropped");
  StreamResult Res = C.finish();
  EXPECT_EQ(Res.Verdict, StreamVerdict::Inconclusive);
  EXPECT_NE(Res.Reason.find("trace_dropped"), std::string::npos)
      << Res.Reason;
}

/// Peak accounting is populated and bounded by the window: the soak
/// report's memory attestation depends on these counters being real.
TEST(StreamCheck, PeakAccountingTracksWindow) {
  Scenario S = ringScenario(13);
  ASSERT_TRUE(S.C.ok()) << S.C.status().str();
  RunOut R = runEngine(S, 2);

  StreamOptions O;
  O.Window = 64;
  StreamResult Res = consistency::streamCheckTrace(
      R.Trace, S.A.Topo, S.C->structure(),
      R.HasCtx ? &R.Ctx : nullptr, O);
  EXPECT_GT(Res.Stats.PeakWindow, 0u);
  EXPECT_LE(Res.Stats.PeakWindow, 65u);
  EXPECT_GT(Res.Stats.PeakResidentBytes, 0u);
  EXPECT_GT(Res.Stats.EntriesChecked, 0u);
  EXPECT_EQ(Res.Stats.EntriesIngested, R.Trace.size());
}

//===----------------------------------------------------------------------===//
// Slab storage: long-lived trees, wide ticket spreads, retirement order
//===----------------------------------------------------------------------===//

namespace {

/// \p Base repeated \p Reps times, plus one excused copy of entry 0's
/// first hop under entry 0 per repetition: entry 0's tree stays active
/// (open) across the whole stream while every other tree retires.
RunOut longLivedStream(const consistency::NetworkTrace &Base,
                       unsigned Reps) {
  const auto &Es = Base.entries();
  int Hop = -1;
  for (size_t I = 0; I != Es.size() && Hop < 0; ++I)
    if (Es[I].Parent == 0)
      Hop = static_cast<int>(I);
  EXPECT_GE(Hop, 0) << "entry 0 has no child";
  RunOut Out;
  for (unsigned R = 0; R != Reps; ++R) {
    int Off = static_cast<int>(Out.Trace.size());
    for (consistency::TraceEntry E : Es) {
      if (E.Parent >= 0)
        E.Parent += Off;
      Out.Trace.append(std::move(E));
    }
    if (R != 0 && Hop >= 0) {
      consistency::TraceEntry X = Es[Hop];
      X.Parent = 0;
      Out.Ctx.ExcusedEntries.push_back(Out.Trace.append(std::move(X)));
    }
  }
  Out.HasCtx = true;
  return Out;
}

} // namespace

/// One tree stays open while far more than the window's worth of newer
/// entries retire. Its nodes sit in many slab chunks, yet the checker's
/// footprint follows the live entries, not the stream: a run four times
/// longer peaks at about the same resident bytes.
TEST(StreamCheck, LongLivedTreeKeepsFootprintBounded) {
  topo::Topology Topo = topo::ringTopology(8, 4);
  nes::Nes N = apps::staticRoutingNes(Topo);
  EngineConfig Cfg;
  Cfg.NumShards = 1;
  Engine E(N, Topo, Cfg);
  TrafficGen G(Topo, 5);
  E.run(G.pings(2, 6));
  consistency::NetworkTrace Base = E.trace();
  ASSERT_GT(Base.size(), 64u);

  StreamOptions O;
  O.Window = 2048;
  O.QuietHorizon = 2 * (Base.size() + 1); // the open tree never goes quiet
  uint64_t Peak[2] = {0, 0};
  for (int Long = 0; Long != 2; ++Long) {
    size_t Want = (Long ? 40 : 10) * O.Window;
    RunOut R = longLivedStream(Base, Want / (Base.size() + 1) + 1);
    ASSERT_GT(R.Trace.size(), Want);
    auto Batch = consistency::checkAgainstNes(R.Trace, Topo, N, &R.Ctx);
    StreamResult Res =
        consistency::streamCheckTrace(R.Trace, Topo, N, &R.Ctx, O);
    EXPECT_TRUE(Batch.Correct) << Batch.Reason;
    EXPECT_TRUE(Res.ok()) << streamVerdictName(Res.Verdict) << ": "
                          << Res.Reason;
    EXPECT_EQ(Res.Stats.EntriesChecked, R.Trace.size());
    EXPECT_LE(Res.Stats.PeakWindow, O.Window);
    Peak[Long] = Res.Stats.PeakResidentBytes;
  }
  EXPECT_LT(Peak[1], Peak[0] * 3 / 2)
      << "footprint grew with the stream: " << Peak[0] << " -> " << Peak[1];
  EXPECT_LT(Peak[1], uint64_t(4) << 20);
}

/// A 4-shard engine trace fed as four interleaved per-shard streams whose
/// fed frontiers lie thousands of tickets apart — wider than a slab chunk
/// — and, in a second pass, with tickets spread 1031 apart so the chunks
/// span more than the chunk-pointer cache. Commits stay in ticket order,
/// so verdict, reason and retirement counts equal the in-order replay.
TEST(StreamCheck, FourShardFeedWiderThanTheSlab) {
  Scenario S = firewallScenario(37);
  ASSERT_TRUE(S.C.ok()) << S.C.status().str();
  TrafficGen G(S.A.Topo, 37);
  S.W += G.bulk(topo::HostH1, topo::HostH4, 1500, 100);
  RunOut R = runEngine(S, 4);
  const auto &Es = R.Trace.entries();
  ASSERT_GT(Es.size(), 4000u);
  StreamResult InOrder = consistency::streamCheckTrace(
      R.Trace, S.A.Topo, S.C->structure(), R.HasCtx ? &R.Ctx : nullptr);
  auto Batch = consistency::checkAgainstNes(
      R.Trace, S.A.Topo, S.C->structure(), R.HasCtx ? &R.Ctx : nullptr);
  EXPECT_EQ(InOrder.ok(), Batch.Correct) << InOrder.Reason;

  std::vector<bool> Exc(Es.size(), false);
  for (int I : R.Ctx.ExcusedEntries)
    Exc[I] = true;
  for (uint64_t Stride : {1ull, 1031ull}) {
    // Shard s owns the entries with (index / 700) % 4 == s.
    std::vector<std::vector<size_t>> Shard(4);
    for (size_t I = 0; I != Es.size(); ++I)
      Shard[(I / 700) % 4].push_back(I);
    std::vector<size_t> Next(4, 0);
    StreamOptions O; // the quiet horizon is in tickets: scale it too
    O.QuietHorizon *= Stride;
    consistency::StreamChecker C(S.C->structure(), S.A.Topo, O);
    bool Left = true;
    while (Left) {
      for (unsigned Sh = 0; Sh != 4; ++Sh)
        for (unsigned K = 0; K != 300 && Next[Sh] != Shard[Sh].size(); ++K) {
          size_t I = Shard[Sh][Next[Sh]++];
          int64_t P = Es[I].Parent < 0 ? -1 : Es[I].Parent * (int64_t)Stride;
          C.feedEntry(I * Stride, P, Es[I].Lp, Es[I].IsDelivery);
          if (Exc[I])
            C.feedExcuse(I * Stride);
        }
      // The watermark: below every shard's next unfed entry.
      size_t Low = Es.size();
      Left = false;
      for (unsigned Sh = 0; Sh != 4; ++Sh)
        if (Next[Sh] != Shard[Sh].size()) {
          Low = std::min(Low, Shard[Sh][Next[Sh]]);
          Left = true;
        }
      if (Low > 0)
        C.advance((Low - 1) * Stride);
    }
    StreamResult Res = C.finish();
    EXPECT_EQ(Res.Verdict, InOrder.Verdict) << "stride " << Stride;
    EXPECT_EQ(Res.Reason, InOrder.Reason) << "stride " << Stride;
    EXPECT_EQ(Res.Stats.EntriesChecked, Es.size()) << "stride " << Stride;
    EXPECT_EQ(Res.Stats.TreesRetired, InOrder.Stats.TreesRetired);
    EXPECT_EQ(Res.Stats.ChainsRetired, InOrder.Stats.ChainsRetired);
  }
}

/// Two trees violate in the same quiet sweep, and the tree with the
/// lower root reports, although the other one went quiet first: a sweep
/// retires in ascending root order. Hand-built: one switch, two events
/// e0 (port 4) then e1 (port 5), and three configurations.
///   P = [p0 (ticket 2), p1 (ticket 4)] is only a trace of C0: too late
///       for e0.
///   Q = [q (ticket 3)] is a trace of C0 and C1 only: too late for e1.
/// Q's last activity (3) precedes P's (4); P's root (2) precedes Q's (3).
TEST(StreamCheck, SameSweepViolationsReportTheLowerRoot) {
  topo::Topology Topo;
  Topo.addSwitch(1);
  FieldId H = fieldOf("ip_dst");
  auto Forward = [&](Value V, PortId Out) {
    flowtable::Rule R;
    R.Priority = 1;
    R.Pattern.require(FieldPt, 1);
    R.Pattern.require(H, V);
    R.Actions = {flowtable::normalizeActionSeq({{FieldPt, Out}})};
    return R;
  };
  std::vector<topo::Configuration> Cs(3);
  Cs[0].setTable(1, flowtable::Table({Forward(7, 2)}));
  Cs[1].setTable(1, flowtable::Table({Forward(7, 3)}));
  Cs[2].setTable(1, flowtable::Table({Forward(7, 3), Forward(8, 3)}));
  std::vector<netkat::Event> Evs(2);
  Evs[0].Guard = netkat::pTrue();
  Evs[0].Loc = {1, 4};
  Evs[1].Guard = netkat::pTrue();
  Evs[1].Loc = {1, 5};
  DenseBitSet S1, S2;
  S1.set(0);
  S2.set(0);
  S2.set(1);
  nes::Nes N(Evs, {DenseBitSet(), S1, S2}, Cs, {{0}, {1}, {2}});

  auto At = [&](PortId Pt, Value V) {
    return netkat::makePacket({1, Pt}, {{H, V}});
  };
  consistency::NetworkTrace Tr;
  Tr.append({At(4, 0), -1, false}); // 0: e0's first occurrence
  Tr.append({At(5, 0), -1, false}); // 1: e1's first occurrence
  Tr.append({At(1, 7), -1, false}); // 2: p0
  Tr.append({At(1, 8), -1, false}); // 3: q
  Tr.append({At(2, 7), 2, false});  // 4: p1
  while (Tr.size() != 300)          // quiet filler, dropped everywhere
    Tr.append({At(6, 0), -1, false});

  StreamOptions O;
  O.QuietHorizon = 16; // the sweep at commit 256 retires P and Q together
  consistency::StreamChecker C(N, Topo, O);
  for (size_t I = 0; I != Tr.size(); ++I) {
    C.feedEntry(I, Tr.entries()[I].Parent, Tr.entries()[I].Lp, false);
    C.advance(I);
  }
  EXPECT_EQ(C.verdict(), StreamVerdict::Violated) << "not in a quiet sweep";
  StreamResult Res = C.finish();
  ASSERT_TRUE(Res.violated()) << Res.Reason;
  EXPECT_EQ(Res.Reason, "update happened too late: a packet trace entirely "
                        "after " +
                            N.event(0).str() +
                            " is only consistent with an earlier "
                            "configuration");
  EXPECT_FALSE(
      consistency::checkAgainstNes(Tr, Topo, N).Correct);
}

//===----------------------------------------------------------------------===//
// Live collector path (api::run with StreamingCheck)
//===----------------------------------------------------------------------===//

/// End-to-end through the façade: the engine's per-shard stream sink,
/// the collector thread's watermark protocol, and the checker — in
/// differential mode, so the online verdict is compared against the
/// batch replay of the very same run.
TEST(StreamCheckApi, LiveCollectorDifferentialAgrees) {
  for (uint64_t Seed : {1ull, 9ull, 23ull}) {
    Scenario S = ringScenario(Seed); // for the compilation only
    ASSERT_TRUE(S.C.ok()) << S.C.status().str();
    api::RunOptions O;
    O.seed(Seed)
        .shards(4)
        .workload("churn")
        .phases(4)
        .pingsPerPhase(16)
        .streamingCheck(true)
        .checkDifferential(true);
    auto R = api::run(*S.C, "engine", O);
    ASSERT_TRUE(R.ok()) << R.status().str();
    EXPECT_TRUE(R->StreamCheck.Enabled);
    EXPECT_TRUE(R->Checked);
    EXPECT_TRUE(R->StreamCheck.DifferentialRan);
    EXPECT_FALSE(R->StreamCheck.Result.violated())
        << "seed " << Seed << ": " << R->StreamCheck.Result.Reason;
    EXPECT_TRUE(R->StreamCheck.DifferentialMatched)
        << "seed " << Seed << ": stream="
        << streamVerdictName(R->StreamCheck.Result.Verdict) << " ("
        << R->StreamCheck.Result.Reason << ") batch="
        << (R->Consistency.Correct ? "ok" : "fail");
    // Every logged entry reached the checker through the stream.
    EXPECT_EQ(R->StreamCheck.Result.Stats.EntriesChecked, R->Trace.size())
        << "seed " << Seed;
  }
}

/// Streaming-only mode is the whole point of the checker: no merged
/// trace is retained, the batch replay is skipped (an empty trace would
/// pass vacuously), and the online verdict stands alone.
TEST(StreamCheckApi, StreamingOnlyRetainsNoTrace) {
  Scenario S = firewallScenario(21);
  ASSERT_TRUE(S.C.ok()) << S.C.status().str();
  api::RunOptions O;
  O.seed(21).shards(2).streamingCheck(true);
  auto R = api::run(*S.C, "engine", O);
  ASSERT_TRUE(R.ok()) << R.status().str();
  EXPECT_TRUE(R->StreamCheck.Enabled);
  EXPECT_FALSE(R->Checked);
  EXPECT_FALSE(R->StreamCheck.DifferentialRan);
  EXPECT_EQ(R->Trace.size(), 0u);
  EXPECT_EQ(R->StreamCheck.StreamShed, 0u);
  EXPECT_TRUE(R->StreamCheck.Result.ok()) << R->StreamCheck.Result.Reason;
  EXPECT_GT(R->StreamCheck.Result.Stats.EntriesChecked, 0u);
  EXPECT_GT(R->StreamCheck.Result.Stats.PeakResidentBytes, 0u);
}

/// A fault plan's excusals must flow through the stream: they ride the
/// per-shard buffers as Excuse items, and the teed batch trace is built
/// from the same items.
TEST(StreamCheckApi, LiveCollectorAgreesUnderFaults) {
  Scenario S = firewallScenario(23);
  ASSERT_TRUE(S.C.ok()) << S.C.status().str();
  auto Plan = std::make_shared<faults::FaultPlan>(namedPlan("mixed"));
  api::RunOptions O;
  O.seed(23)
      .shards(2)
      .faults(Plan)
      .streamingCheck(true)
      .checkDifferential(true);
  auto R = api::run(*S.C, "engine", O);
  ASSERT_TRUE(R.ok()) << R.status().str();
  EXPECT_TRUE(R->StreamCheck.DifferentialRan);
  EXPECT_FALSE(R->StreamCheck.Result.violated())
      << R->StreamCheck.Result.Reason;
  EXPECT_TRUE(R->StreamCheck.DifferentialMatched)
      << "stream=" << streamVerdictName(R->StreamCheck.Result.Verdict)
      << " (" << R->StreamCheck.Result.Reason << ") batch="
      << (R->Consistency.Correct ? "ok" : "fail");
}

/// A collector that lags the data path must cost counted sheds and a
/// stream_backlog inconclusive — never a blocked worker, never O(horizon)
/// stream memory, and never a violation fabricated from the chains the
/// gap truncated. The collector is attached only after the run so every
/// item beyond StreamBufCap is deterministically shed.
TEST(StreamCheckApi, LaggingCollectorShedsAndDegrades) {
  Scenario S = firewallScenario(31);
  ASSERT_TRUE(S.C.ok()) << S.C.status().str();
  EngineConfig Cfg;
  Cfg.NumShards = 2;
  Cfg.RecordTrace = false;
  Cfg.StreamTrace = true;
  Cfg.StreamBufCap = 64; // far below the workload's stream volume
  Engine E(S.C->structure(), S.A.Topo, Cfg);
  TrafficGen G(S.A.Topo, 31);
  Workload W = G.bulk(topo::HostH1, topo::HostH4, 2048, 512);
  E.run(W);
  ASSERT_GT(E.streamLagShed(), 0u)
      << "workload too small to overflow a 64-entry hand-off";
  Stats St = E.stats();
  api::detail::StreamCollector Col(E, S.C->structure(), S.A.Topo, {});
  StreamResult R = Col.finalize(St.TraceDropped);
  EXPECT_GT(Col.lagShed(), 0u);
  EXPECT_FALSE(R.violated()) << R.Reason;
  EXPECT_EQ(R.Verdict, StreamVerdict::Inconclusive)
      << streamVerdictName(R.Verdict);
  EXPECT_NE(R.Reason.find("stream_backlog"), std::string::npos) << R.Reason;
}
