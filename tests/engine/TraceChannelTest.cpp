//===- tests/engine/TraceChannelTest.cpp - One trace channel --------------===//
//
// The engine records each hop once, on its per-shard stream, and one
// builder (Engine::buildBatchTrace) turns that stream into the batch
// trace. A recording engine (RecordTrace) drains its own stream; a
// streaming one (StreamTrace) hands it to a collector, which tees it in
// differential mode. Both paths must yield the same entries, parents,
// tags and excused sets on a deterministic run: one shard, dequeuing one
// message at a time (each chain then runs to completion before the next
// injection, whatever the ring held when the worker looked).
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "api/Api.h"
#include "api/StreamCollect.h"
#include "apps/Programs.h"
#include "engine/TrafficGen.h"
#include "faults/FaultPlan.h"
#include "faults/Injector.h"
#include "topo/Builders.h"

#include <gtest/gtest.h>

#include <cstdint>

using namespace eventnet;
using namespace eventnet::engine;

namespace {

/// One run's batch view, however it was collected.
struct Collected {
  consistency::NetworkTrace Trace;
  std::vector<nes::SetId> Tags;
  std::vector<int> Excused;
};

Collected recorded(const nes::Nes &N, const topo::Topology &Topo,
                   const Workload &W, EngineConfig Cfg) {
  Cfg.RecordTrace = true;
  Cfg.StreamTrace = false;
  Engine E(N, Topo, Cfg);
  E.run(W);
  return {E.trace(), E.traceTags(), E.faultLedger().ExcusedEntries};
}

Collected teed(const nes::Nes &N, const topo::Topology &Topo,
               const Workload &W, EngineConfig Cfg) {
  Cfg.RecordTrace = false;
  Cfg.StreamTrace = true;
  Cfg.StreamBufCap = SIZE_MAX; // a tee must see every item
  Engine E(N, Topo, Cfg);
  api::detail::StreamCollector Col(E, N, Topo, {}, /*Tee=*/true);
  E.run(W);
  consistency::StreamResult R = Col.finalize(E.stats().TraceDropped);
  EXPECT_FALSE(R.violated()) << R.Reason;
  Engine::BatchTrace B = Col.teedTrace();
  EXPECT_EQ(E.trace().size(), 0u) << "a streaming engine keeps no trace";
  return {std::move(B.Trace), std::move(B.Tags), std::move(B.Excused)};
}

void expectSame(const Collected &A, const Collected &B) {
  ASSERT_EQ(A.Trace.size(), B.Trace.size());
  for (size_t I = 0; I != A.Trace.size(); ++I) {
    const consistency::TraceEntry &X = A.Trace.entries()[I];
    const consistency::TraceEntry &Y = B.Trace.entries()[I];
    EXPECT_EQ(X.Lp, Y.Lp) << "entry " << I;
    EXPECT_EQ(X.Parent, Y.Parent) << "entry " << I;
    EXPECT_EQ(X.IsDelivery, Y.IsDelivery) << "entry " << I;
  }
  EXPECT_EQ(A.Tags, B.Tags);
  EXPECT_EQ(A.Excused, B.Excused);
}

} // namespace

TEST(TraceChannel, RecordedAndTeedStaticRoutingAgree) {
  topo::Topology Topo = topo::fatTreeTopology(4);
  nes::Nes N = apps::staticRoutingNes(Topo);
  TrafficGen G(Topo, 5);
  Workload W = G.pings(3, 8);
  EngineConfig Cfg;
  Cfg.NumShards = 1;
  Cfg.BatchSize = 1;
  Collected A = recorded(N, Topo, W, Cfg);
  Collected B = teed(N, Topo, W, Cfg);
  ASSERT_GT(A.Trace.size(), 0u);
  expectSame(A, B);
}

TEST(TraceChannel, RecordedAndTeedFirewallAgreeUnderDrops) {
  apps::App A = apps::firewallApp();
  api::Result<api::Compilation> C = api::compile(
      api::CompileOptions().programSource(A.Source).topology(A.Topo));
  ASSERT_TRUE(C.ok()) << C.status().str();
  faults::FaultPlan Plan;
  Plan.Seed = 19;
  Plan.Links.push_back({-1, -1, 0.2, 0, 0, 0, -1});
  faults::Injector Inj(Plan);
  TrafficGen G(A.Topo, 23);
  Workload W = G.ping(topo::HostH4, topo::HostH1);
  for (int I = 0; I != 12; ++I)
    W += G.ping(topo::HostH1, topo::HostH4);
  W += G.ping(topo::HostH4, topo::HostH1);
  EngineConfig Cfg;
  Cfg.NumShards = 1;
  Cfg.BatchSize = 1;
  Cfg.Faults = &Inj;
  Collected Rec = recorded(C->structure(), A.Topo, W, Cfg);
  Collected Tee = teed(C->structure(), A.Topo, W, Cfg);
  ASSERT_FALSE(Rec.Excused.empty()) << "the plan dropped nothing";
  expectSame(Rec, Tee);
}
