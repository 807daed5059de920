//===- tests/topo/TopologyTest.cpp - Topology + Configuration tests -------===//

#include "topo/Builders.h"
#include "topo/Configuration.h"

#include "api/Api.h"
#include "apps/Programs.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace eventnet;
using namespace eventnet::topo;
using eventnet::netkat::Packet;
using eventnet::netkat::makePacket;

TEST(Topology, FirewallShape) {
  Topology T = firewallTopology();
  EXPECT_EQ(T.switches().size(), 2u);
  EXPECT_EQ(T.hosts().size(), 2u);
  EXPECT_EQ(T.hostLoc(HostH1), (Location{1, 2}));
  EXPECT_EQ(T.hostLoc(HostH4), (Location{4, 2}));
  ASSERT_TRUE(T.linkFrom({1, 1}).has_value());
  EXPECT_EQ(*T.linkFrom({1, 1}), (Location{4, 1}));
  EXPECT_EQ(*T.linkFrom({4, 1}), (Location{1, 1}));
  EXPECT_FALSE(T.linkFrom({1, 2}).has_value()); // host port
  EXPECT_TRUE(T.isHostPort({4, 2}));
  EXPECT_FALSE(T.isHostPort({4, 1}));
}

TEST(Topology, StarShape) {
  Topology T = starTopology();
  EXPECT_EQ(T.switches().size(), 4u);
  EXPECT_EQ(T.hosts().size(), 4u);
  EXPECT_EQ(*T.linkFrom({4, 3}), (Location{2, 1}));
  EXPECT_EQ(*T.linkFrom({3, 1}), (Location{4, 4}));
  EXPECT_EQ(T.switchDistance(1, 2), 2);
  EXPECT_EQ(T.switchDistance(1, 4), 1);
}

TEST(Topology, RingShapeAndDistance) {
  for (unsigned D = 1; D <= 4; ++D) {
    Topology T = ringTopology(8, D);
    EXPECT_EQ(T.switches().size(), 8u);
    EXPECT_EQ(T.hostLoc(HostH1), (Location{1, 3}));
    EXPECT_EQ(T.hostLoc(HostH2), (Location{1 + D, 3}));
    EXPECT_EQ(T.switchDistance(1, 1 + D), static_cast<int>(D)) << D;
  }
  // The ring wraps: clockwise port 1 of the last switch reaches switch 1.
  Topology T = ringTopology(5, 2);
  EXPECT_EQ(*T.linkFrom({5, 1}), (Location{1, 2}));
  EXPECT_EQ(*T.linkFrom({1, 2}), (Location{5, 1}));
}

TEST(Topology, DistanceUnreachable) {
  Topology T;
  T.addSwitch(1);
  T.addSwitch(2);
  EXPECT_EQ(T.switchDistance(1, 2), -1);
  EXPECT_EQ(T.switchDistance(1, 1), 0);
}

TEST(Configuration, StepThroughTableAndLink) {
  Topology T = firewallTopology();
  FieldId Dst = fieldOf("ip_dst");

  flowtable::Table S1;
  flowtable::Rule R;
  R.Priority = 10;
  R.Pattern.require(FieldPt, 2);
  R.Pattern.require(Dst, 4);
  R.Actions = {flowtable::normalizeActionSeq({{FieldPt, 1}})};
  S1.add(R);
  Configuration C;
  C.setTable(1, S1);

  Packet In = makePacket({1, 2}, {{Dst, 4}});
  auto Out = C.step(T, In);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].loc(), (Location{1, 1}));

  // From the egress port the step is the link move.
  auto Out2 = C.step(T, Out[0]);
  ASSERT_EQ(Out2.size(), 1u);
  EXPECT_EQ(Out2[0].loc(), (Location{4, 1}));
}

TEST(Configuration, RelatedChecksBothKinds) {
  Topology T = firewallTopology();
  Configuration C;
  flowtable::Table S1;
  flowtable::Rule R;
  R.Priority = 1;
  R.Actions = {flowtable::normalizeActionSeq({{FieldPt, 1}})};
  S1.add(R);
  C.setTable(1, S1);

  Packet A = makePacket({1, 2}, {});
  Packet B = makePacket({1, 1}, {});
  Packet Cross = makePacket({4, 1}, {});
  EXPECT_TRUE(C.related(T, A, B));
  EXPECT_TRUE(C.related(T, B, Cross));
  EXPECT_FALSE(C.related(T, A, Cross));
}

TEST(Configuration, CompleteTraceSemantics) {
  Topology T = firewallTopology();
  FieldId Dst = fieldOf("ip_dst");

  // s1 forwards dst=4 from pt 2 to pt 1; s4 delivers at pt 2.
  Configuration C;
  {
    flowtable::Table S1, S4;
    flowtable::Rule R1;
    R1.Priority = 10;
    R1.Pattern.require(FieldPt, 2);
    R1.Pattern.require(Dst, 4);
    R1.Actions = {flowtable::normalizeActionSeq({{FieldPt, 1}})};
    S1.add(R1);
    flowtable::Rule R4;
    R4.Priority = 10;
    R4.Pattern.require(FieldPt, 1);
    R4.Pattern.require(Dst, 4);
    R4.Actions = {flowtable::normalizeActionSeq({{FieldPt, 2}})};
    S4.add(R4);
    C.setTable(1, S1);
    C.setTable(4, S4);
  }

  Packet P0 = makePacket({1, 2}, {{Dst, 4}});
  Packet P1 = makePacket({1, 1}, {{Dst, 4}});
  Packet P2 = makePacket({4, 1}, {{Dst, 4}});
  Packet P3 = makePacket({4, 2}, {{Dst, 4}});

  // Full delivery trace is complete.
  EXPECT_TRUE(C.isCompleteTrace(T, {P0, P1, P2, P3}));
  // Truncated trace is not (the configuration keeps forwarding).
  EXPECT_FALSE(C.isCompleteTrace(T, {P0, P1}));
  // A single-entry trace is complete iff the table drops it.
  Packet Dropped = makePacket({1, 2}, {{Dst, 9}});
  EXPECT_TRUE(C.isCompleteTrace(T, {Dropped}));
  EXPECT_FALSE(C.isCompleteTrace(T, {P0}));
  // Unrelated consecutive entries are rejected.
  EXPECT_FALSE(C.isCompleteTrace(T, {P0, P2, P3}));
}

TEST(Configuration, TotalRules) {
  Configuration C;
  flowtable::Table A, B;
  flowtable::Rule R;
  R.Priority = 1;
  A.add(R);
  B.add(R);
  B.add(R);
  C.setTable(1, A);
  C.setTable(2, B);
  EXPECT_EQ(C.totalRules(), 3u);
}

namespace {

api::Result<api::Compilation> compileApp(const apps::App &A) {
  api::CompileOptions O;
  if (A.Source.empty())
    O.programAst(A.Ast);
  else
    O.programSource(A.Source);
  return api::compile(std::move(O.topology(A.Topo)));
}

/// A random located packet over the fields and values the tables use, so
/// rules match often enough to exercise every branch.
Packet randomPacket(Rng &R, const std::vector<SwitchId> &Sws,
                    const std::vector<std::pair<FieldId, Value>> &Pool) {
  Packet P = makePacket({Sws[R.below(Sws.size())],
                         static_cast<PortId>(1 + R.below(4))},
                        {});
  for (uint64_t K = R.below(6); K != 0; --K) {
    auto [F, V] = Pool[R.below(Pool.size())];
    if (F != FieldSw && F != FieldPt)
      P.set(F, R.below(4) == 0 ? V + 1 : V);
  }
  return P;
}

} // namespace

/// The in-place related/terminal predicates mean exactly the copy-based
/// definitions: To is among step(From), and step(Lp) is empty. Checked
/// over random packets for every configuration of the ring and firewall
/// programs, with To drawn from step outputs, perturbed step outputs and
/// unrelated packets.
TEST(Configuration, InPlacePredicatesMatchStep) {
  for (const apps::App &A : {apps::ringApp(8, 4), apps::firewallApp()}) {
    auto C = compileApp(A);
    ASSERT_TRUE(C.ok()) << A.Name << ": " << C.status().str();
    const nes::Nes &N = C->structure();
    std::vector<SwitchId> Sws(A.Topo.switches().begin(),
                              A.Topo.switches().end());
    std::vector<std::pair<FieldId, Value>> Pool = {{FieldPt, 1}};
    for (unsigned S = 0; S != N.numSets(); ++S)
      for (const auto &[Sw, T] : N.configOf(S).tables())
        for (const flowtable::Rule &Ru : T.rules()) {
          for (const auto &FV : Ru.Pattern.constraints())
            Pool.push_back(FV);
          for (const flowtable::ActionSeq &As : Ru.Actions)
            Pool.insert(Pool.end(), As.begin(), As.end());
        }
    Rng R(7);
    size_t Related = 0, Terminal = 0;
    for (unsigned S = 0; S != N.numSets(); ++S) {
      const Configuration &Cfg = N.configOf(S);
      for (int I = 0; I != 2000; ++I) {
        Packet From = randomPacket(R, Sws, Pool);
        std::vector<Packet> Steps = Cfg.step(A.Topo, From);
        ASSERT_EQ(Cfg.terminal(A.Topo, From), Steps.empty())
            << A.Name << " set " << S << ": " << From.str();
        Terminal += Steps.empty();
        Packet To;
        switch (R.below(3)) {
        case 0:
          To = Steps.empty() ? randomPacket(R, Sws, Pool)
                             : Steps[R.below(Steps.size())];
          break;
        case 1: {
          To = Steps.empty() ? From : Steps[R.below(Steps.size())];
          auto [F, V] = Pool[R.below(Pool.size())];
          if (R.below(2))
            To.set(F, V);
          else if (F != FieldSw && F != FieldPt)
            To.erase(F);
          break;
        }
        default:
          To = randomPacket(R, Sws, Pool);
        }
        bool Expected = std::find(Steps.begin(), Steps.end(), To) != Steps.end();
        ASSERT_EQ(Cfg.related(A.Topo, From, To), Expected)
            << A.Name << " set " << S << ": " << From.str() << " -> "
            << To.str();
        Related += Expected;
      }
    }
    // Both outcomes of both predicates were exercised.
    EXPECT_GT(Related, 100u) << A.Name;
    EXPECT_GT(Terminal, 100u) << A.Name;
  }
}
