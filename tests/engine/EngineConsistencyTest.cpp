//===- tests/engine/EngineConsistencyTest.cpp - Definition 6, concurrent --===//
//
// The theorem-level check: traces recorded by the sharded concurrent
// engine replay through consistency::checkAgainstNes — the same
// Definition 6 oracle the sequential runtime::Machine and the simulator
// are tested against — across applications, seeds, and shard counts.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "api/Api.h"
#include "apps/Programs.h"
#include "consistency/Check.h"
#include "engine/TrafficGen.h"
#include "faults/FaultPlan.h"
#include "faults/Injector.h"

#include <gtest/gtest.h>

#include <map>

using namespace eventnet;
using namespace eventnet::engine;

namespace {

struct Scenario {
  apps::App A;
  api::Result<api::Compilation> C;
  Workload W;
};

/// Compiles through the api façade, exercising the same surface the CLI
/// and embedding programs use.
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

/// Bandwidth cap under a probe-laced data storm: duplicates made by a
/// fault plan cross the capped link too and count toward the cap.
Scenario bwcapChurnScenario(uint64_t Seed) {
  Scenario S{apps::bandwidthCapApp(5), {}, {}};
  S.C = compileApp(S.A);
  TrafficGen G(S.A.Topo, Seed);
  S.W = G.pings(4, 5);
  S.W += G.churn(3, 20, 2);
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

consistency::CheckResult runAndCheck(Scenario &S, unsigned Shards,
                                     bool Classifier,
                                     PartitionStrategy Partition,
                                     bool Broadcast = false) {
  EngineConfig Cfg;
  Cfg.NumShards = Shards;
  Cfg.CtrlBroadcast = Broadcast;
  Cfg.UseClassifier = Classifier;
  // The classifier rows also take the batched loop shape; the oracle
  // rows re-verify the PR 1 message-at-a-time shape.
  Cfg.BatchSize = Classifier ? 32 : 1;
  Cfg.Partition = Partition;
  Engine E(S.C->structure(), S.A.Topo, Cfg);
  E.run(S.W);
  EXPECT_GT(E.trace().size(), 0u);
  return consistency::checkAgainstNes(E.trace(), S.A.Topo,
                                      S.C->structure());
}

} // namespace

/// (seed, classifier on/off, partition strategy): the Definition 6
/// theorem must hold on the classifier fast path exactly as on the
/// FDD-walk oracle path, under every shard placement — the tag/digest
/// protocol cannot care *where* a switch's owner thread runs.
class EngineConsistency
    : public ::testing::TestWithParam<
          std::tuple<uint64_t, bool, PartitionStrategy>> {
protected:
  uint64_t seed() const { return std::get<0>(GetParam()); }
  bool classifier() const { return std::get<1>(GetParam()); }
  PartitionStrategy partition() const { return std::get<2>(GetParam()); }
};

TEST_P(EngineConsistency, AllAppsAllShardCounts) {
  using Maker = Scenario (*)(uint64_t);
  for (Maker Make : {firewallScenario, authScenario, idsScenario,
                     bwcapScenario, ringScenario}) {
    for (unsigned Shards : {1u, 2u, 4u}) {
      Scenario S = Make(seed());
      ASSERT_TRUE(S.C.ok()) << S.A.Name << ": " << S.C.status().str();
      auto R = runAndCheck(S, Shards, classifier(), partition());
      EXPECT_TRUE(R.Correct)
          << S.A.Name << " shards=" << Shards
          << " classifier=" << classifier()
          << " partition=" << partitionStrategyName(partition()) << ": "
          << R.Reason;
    }
  }
}

TEST_P(EngineConsistency, FirewallWithControllerBroadcast) {
  Scenario S = firewallScenario(seed());
  ASSERT_TRUE(S.C.ok()) << S.C.status().str();
  auto R = runAndCheck(S, 4, classifier(), partition(),
                       /*Broadcast=*/true);
  EXPECT_TRUE(R.Correct) << R.Reason;
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByPath, EngineConsistency,
    ::testing::Combine(::testing::Values(1, 7, 13, 42), ::testing::Bool(),
                       ::testing::Values(PartitionStrategy::Modulo,
                                         PartitionStrategy::Contiguous,
                                         PartitionStrategy::Refined)));

TEST(EngineConsistency, StaticRoutingQuiescent) {
  // A zero-event NES: every packet trace must be a trace of g(∅); also
  // exercises the fat-tree builder end to end.
  topo::Topology Topo = topo::fatTreeTopology(4);
  nes::Nes N = apps::staticRoutingNes(Topo);

  EngineConfig Cfg;
  Cfg.NumShards = 4;
  Engine E(N, Topo, Cfg);
  TrafficGen G(Topo, 5);
  E.run(G.pings(3, 8));

  Stats S = E.stats();
  EXPECT_EQ(S.EventsDetected, 0u);
  EXPECT_EQ(S.ConfigTransitions, 0u);
  EXPECT_GT(S.PacketsDelivered, 0u);
  // Pings succeed: requests and replies (both counted as injections)
  // are each delivered exactly once.
  EXPECT_EQ(S.PacketsDelivered, S.PacketsInjected);

  auto R = consistency::checkAgainstNes(E.trace(), Topo, N);
  EXPECT_TRUE(R.Correct) << R.Reason;
}

class EngineBackpressure : public ::testing::TestWithParam<unsigned> {};

TEST_P(EngineBackpressure, TinyQueuesNeverDeadlockOrDrop) {
  // Queues far smaller than a phase keep the rings permanently full:
  // every producer exercises the overflow path (the ring is only the
  // fast path; producers never block, so no cycle of full queues can
  // deadlock), and nothing may be lost or reordered into inconsistency.
  apps::App A = apps::ringApp(6, 3);
  api::Result<api::Compilation> C = compileApp(A);
  ASSERT_TRUE(C.ok()) << C.status().str();

  EngineConfig Cfg;
  Cfg.NumShards = GetParam();
  Cfg.QueueCapacity = 2;
  Engine E(C->structure(), A.Topo, Cfg);
  TrafficGen G(A.Topo, 21);
  Workload W = G.bulk(topo::HostH1, topo::HostH2, 150, 75);
  W += G.probe(topo::HostH1, topo::HostH2); // transition under pressure
  W += G.bulk(topo::HostH1, topo::HostH2, 150, 75);
  E.run(W);

  Stats S = E.stats();
  EXPECT_EQ(S.PacketsInjected, 301u);
  EXPECT_EQ(S.PacketsDelivered, 301u); // bulk data plus the probe

  auto R =
      consistency::checkAgainstNes(E.trace(), A.Topo, C->structure());
  EXPECT_TRUE(R.Correct) << R.Reason;
}

INSTANTIATE_TEST_SUITE_P(Shards, EngineBackpressure,
                         ::testing::Values(1u, 3u));

namespace {

/// Named fault plans for the Definition 6 sweep below.
faults::FaultPlan namedPlan(const std::string &Name) {
  faults::FaultPlan P;
  P.Seed = 19;
  if (Name == "drop")
    P.Links.push_back({-1, -1, 0.1, 0, 0, 0, -1});
  else if (Name == "dup")
    P.Links.push_back({-1, -1, 0, 0.1, 0, 0, -1});
  else if (Name == "delay")
    P.Links.push_back({-1, -1, 0, 0, 0.15, 0, -1});
  else { // "mixed": everything at once plus overload pressure
    P.Links.push_back({-1, -1, 0.05, 0.05, 0.1, 0, -1});
    P.Stalls.push_back({-1, 8, 100});
    P.QueueCapacityClamp = 4;
    P.CtrlStormRepeat = 2;
  }
  return P;
}

} // namespace

/// The fault acceptance sweep: Definition 6 must hold on the surviving
/// trace with silent_loss == 0 for every (fault plan, overload policy)
/// pair — injected damage is excused via the ledger, and the overload
/// machinery never loses a packet without a ticket. Duplicates are
/// checked like any other packet: on the bandwidth cap a duplicate
/// counts toward the cap, and pruning its subtree (as the checker once
/// did) erased that detection and flagged later, correctly stamped
/// packets as "update happened too early".
class EngineFaultConsistency
    : public ::testing::TestWithParam<
          std::tuple<const char *, OverloadPolicy>> {};

TEST_P(EngineFaultConsistency, DefinitionSixHoldsWithZeroSilentLoss) {
  auto [PlanName, Policy] = GetParam();
  faults::FaultPlan Plan = namedPlan(PlanName);
  faults::Injector Inj(Plan);

  for (auto Make : {firewallScenario, ringScenario, bwcapChurnScenario}) {
    Scenario S = Make(23);
    ASSERT_TRUE(S.C.ok()) << S.A.Name << ": " << S.C.status().str();

    EngineConfig Cfg;
    Cfg.NumShards = 3;
    Cfg.Overload = Policy;
    Cfg.Faults = &Inj;
    Engine E(S.C->structure(), S.A.Topo, Cfg);
    E.run(S.W);

    // Exact conservation: dup-descended outcomes discounted, every
    // remaining injection delivered or drop-ticketed.
    Stats St = E.stats();
    uint64_t EffDelivered = St.PacketsDelivered - St.DupDelivered;
    uint64_t EffDropped = St.PacketsDropped - St.DupDropped;
    EXPECT_EQ(EffDelivered + EffDropped, St.PacketsInjected)
        << S.A.Name << " plan=" << PlanName << " policy="
        << overloadPolicyName(Policy) << ": silent loss";

    faults::FaultLedger L = E.takeFaultLedger();
    consistency::FaultContext Ctx;
    Ctx.ExcusedEntries = std::move(L.ExcusedEntries);
    auto R = consistency::checkAgainstNes(E.trace(), S.A.Topo,
                                          S.C->structure(), &Ctx);
    EXPECT_TRUE(R.Correct)
        << S.A.Name << " plan=" << PlanName
        << " policy=" << overloadPolicyName(Policy) << ": " << R.Reason;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PlansByPolicy, EngineFaultConsistency,
    ::testing::Combine(::testing::Values("drop", "dup", "delay", "mixed"),
                       ::testing::Values(OverloadPolicy::Block,
                                         OverloadPolicy::ShedOldest,
                                         OverloadPolicy::ShedNewest)),
    [](const ::testing::TestParamInfo<
        std::tuple<const char *, OverloadPolicy>> &I) {
      std::string N = std::string(std::get<0>(I.param)) + "_" +
                      overloadPolicyName(std::get<1>(I.param));
      for (char &C : N)
        if (C == '-')
          C = '_';
      return N;
    });

/// The event-storm sweep: the churn workload (distinct-flow data storm
/// with probe triggers scattered through it, so transitions race
/// sustained traffic) must hold Definition 6 across both update
/// pipelines, shard counts, partition strategies, and overload
/// policies. The queues are kept tiny so the shed policies genuinely
/// retire chains under plain pressure — no fault plan is armed, which
/// is the point: shed tickets must be ledgered and handed to the
/// checker as excusal context even without one.
class EngineStormConsistency
    : public ::testing::TestWithParam<
          std::tuple<bool, unsigned, PartitionStrategy, OverloadPolicy>> {
};

TEST_P(EngineStormConsistency, ChurnStormHoldsDefinitionSix) {
  auto [FastUpdates, Shards, Partition, Policy] = GetParam();
  apps::App A = apps::ringApp(8, 4);
  api::Result<api::Compilation> C = compileApp(A);
  ASSERT_TRUE(C.ok()) << C.status().str();

  EngineConfig Cfg;
  Cfg.NumShards = Shards;
  Cfg.Partition = Partition;
  Cfg.Overload = Policy;
  Cfg.FastUpdates = FastUpdates;
  Cfg.QueueCapacity = 8; // keep the storm pressing on the policy
  Engine E(C->structure(), A.Topo, Cfg);
  TrafficGen G(A.Topo, 31);
  E.run(G.churn(3, 40, 4));

  // Exact conservation: a shed is an accounted drop, never silent loss.
  Stats St = E.stats();
  EXPECT_EQ(St.PacketsDelivered + St.PacketsDropped, St.PacketsInjected)
      << "fast=" << FastUpdates << " shards=" << Shards
      << " policy=" << overloadPolicyName(Policy) << ": silent loss";

  faults::FaultLedger L = E.takeFaultLedger();
  consistency::FaultContext Ctx;
  Ctx.ExcusedEntries = std::move(L.ExcusedEntries);
  auto R = consistency::checkAgainstNes(E.trace(), A.Topo,
                                        C->structure(),
                                        Ctx.empty() ? nullptr : &Ctx);
  EXPECT_TRUE(R.Correct)
      << "fast=" << FastUpdates << " shards=" << Shards
      << " partition=" << partitionStrategyName(Partition)
      << " policy=" << overloadPolicyName(Policy) << ": " << R.Reason;
}

INSTANTIATE_TEST_SUITE_P(
    PipelinesByPressure, EngineStormConsistency,
    ::testing::Combine(::testing::Bool(), ::testing::Values(1u, 3u),
                       ::testing::Values(PartitionStrategy::Modulo,
                                         PartitionStrategy::Refined),
                       ::testing::Values(OverloadPolicy::Block,
                                         OverloadPolicy::ShedOldest,
                                         OverloadPolicy::ShedNewest)),
    [](const ::testing::TestParamInfo<
        std::tuple<bool, unsigned, PartitionStrategy, OverloadPolicy>>
           &I) {
      std::string N =
          std::string(std::get<0>(I.param) ? "fast" : "legacy") + "_s" +
          std::to_string(std::get<1>(I.param)) + "_" +
          partitionStrategyName(std::get<2>(I.param)) + "_" +
          overloadPolicyName(std::get<3>(I.param));
      for (char &C : N)
        if (C == '-')
          C = '_';
      return N;
    });

TEST(EngineUpdatePipeline, FastAndControllerPathsConvergeToSameViews) {
  // The same workload through the fast pipeline (shard-local fan-out +
  // priority-lane deltas) and the historical controller pipeline
  // (full-bitset CtrlMerge broadcast) must leave every switch in the
  // *identical* published state: same tag, same register, and — because
  // the ring fires exactly one event, so each switch transitions
  // exactly once — the same view version. Independent per-switch
  // publication changes when registers advance, never what they
  // converge to.
  apps::App A = apps::ringApp(8, 4);
  api::Result<api::Compilation> C = compileApp(A);
  ASSERT_TRUE(C.ok()) << C.status().str();

  auto finalViews = [&](bool FastUpdates) {
    EngineConfig Cfg;
    Cfg.NumShards = 3;
    Cfg.FastUpdates = FastUpdates;
    Cfg.CtrlBroadcast = true; // both pipelines must reach every switch
    Engine E(C->structure(), A.Topo, Cfg);
    TrafficGen G(A.Topo, 11);
    Workload W = G.pings(1, 4);
    W += G.probe(topo::HostH1, topo::HostH2);
    W += G.pings(2, 4);
    E.run(W);
    Stats St = E.stats();
    EXPECT_EQ(St.EventsDetected, 1u);
    if (FastUpdates) {
      EXPECT_GT(St.FastPathLearns + St.CtrlDeltas, 0u)
          << "fast pipeline was configured but never exercised";
    } else {
      EXPECT_EQ(St.FastPathLearns, 0u);
      EXPECT_EQ(St.CtrlDeltas, 0u);
    }
    std::map<SwitchId, Engine::ViewSnapshot> V;
    for (SwitchId Sw : A.Topo.switches())
      V[Sw] = E.readView(Sw);
    return V;
  };

  auto FastV = finalViews(true);
  auto CtrlV = finalViews(false);
  ASSERT_EQ(FastV.size(), CtrlV.size());
  for (auto &[Sw, F] : FastV) {
    const Engine::ViewSnapshot &L = CtrlV[Sw];
    EXPECT_EQ(F.Tag, L.Tag) << "switch " << Sw;
    EXPECT_TRUE(F.E == L.E) << "switch " << Sw << ": registers differ";
    EXPECT_EQ(F.Version, L.Version) << "switch " << Sw;
  }
}

TEST(EngineConsistency, EngineMatchesSimulatorDeliverySemantics) {
  // Bulk H1 -> H2 over the ring: the engine must deliver every packet
  // the static path allows, like the simulator's uncongested runs.
  apps::App A = apps::ringApp(6, 3);
  api::Result<api::Compilation> C = compileApp(A);
  ASSERT_TRUE(C.ok()) << C.status().str();

  EngineConfig Cfg;
  Cfg.NumShards = 2;
  Engine E(C->structure(), A.Topo, Cfg);
  TrafficGen G(A.Topo, 9);
  E.run(G.bulk(topo::HostH1, topo::HostH2, 200, 50));

  Stats S = E.stats();
  EXPECT_EQ(S.PacketsInjected, 200u);
  EXPECT_EQ(S.PacketsDelivered, 200u);
  EXPECT_EQ(S.PacketsDropped, 0u);

  auto R =
      consistency::checkAgainstNes(E.trace(), A.Topo, C->structure());
  EXPECT_TRUE(R.Correct) << R.Reason;
}
