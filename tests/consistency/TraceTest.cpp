//===- tests/consistency/TraceTest.cpp - happens-before tests -------------===//

#include "consistency/Trace.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <map>

using namespace eventnet;
using namespace eventnet::consistency;
using eventnet::netkat::makePacket;

namespace {
TraceEntry at(SwitchId Sw, PortId Pt, int Parent = -1) {
  TraceEntry E;
  E.Lp = makePacket({Sw, Pt}, {});
  E.Parent = Parent;
  return E;
}
} // namespace

TEST(NetworkTrace, SameSwitchOrder) {
  NetworkTrace T;
  int A = T.append(at(1, 1));
  int B = T.append(at(1, 2));
  int C = T.append(at(2, 1));
  EXPECT_TRUE(T.happensBefore(A, B));
  EXPECT_FALSE(T.happensBefore(B, A));
  // Different switches, no packet relation: incomparable.
  EXPECT_FALSE(T.happensBefore(A, C));
  EXPECT_FALSE(T.happensBefore(C, A));
  // Irreflexive.
  EXPECT_FALSE(T.happensBefore(A, A));
}

TEST(NetworkTrace, PacketTraceOrder) {
  NetworkTrace T;
  int A = T.append(at(1, 2));
  int B = T.append(at(1, 1, A));
  int C = T.append(at(4, 1, B));
  EXPECT_TRUE(T.happensBefore(A, B));
  EXPECT_TRUE(T.happensBefore(B, C));
  EXPECT_TRUE(T.happensBefore(A, C)); // transitivity
}

TEST(NetworkTrace, CrossSwitchViaPacketThenSwitchOrder) {
  // A packet carries the order from switch 1 to switch 4: an entry at
  // switch 4 logged after the packet's arrival is after everything that
  // preceded the packet at switch 1.
  NetworkTrace T;
  int Emit1 = T.append(at(1, 2));        // at s1
  int Arr4 = T.append(at(4, 1, Emit1));  // the packet reaches s4
  int Later4 = T.append(at(4, 2));       // an unrelated packet at s4
  EXPECT_TRUE(T.happensBefore(Emit1, Arr4));
  EXPECT_TRUE(T.happensBefore(Arr4, Later4));
  EXPECT_TRUE(T.happensBefore(Emit1, Later4));
}

TEST(NetworkTrace, PacketTracesLinearChain) {
  NetworkTrace T;
  int A = T.append(at(1, 2));
  int B = T.append(at(1, 1, A));
  auto Chains = T.packetTraces();
  ASSERT_EQ(Chains.size(), 1u);
  EXPECT_EQ(Chains[0], (std::vector<int>{A, B}));
}

TEST(NetworkTrace, PacketTracesMulticastTree) {
  NetworkTrace T;
  int Root = T.append(at(4, 2));
  int L = T.append(at(4, 1, Root));
  int R = T.append(at(4, 3, Root));
  int LL = T.append(at(1, 1, L));
  auto Chains = T.packetTraces();
  ASSERT_EQ(Chains.size(), 2u);
  EXPECT_EQ(Chains[0], (std::vector<int>{Root, L, LL}));
  EXPECT_EQ(Chains[1], (std::vector<int>{Root, R}));
}

TEST(NetworkTrace, SingleEntryIsItsOwnTrace) {
  NetworkTrace T;
  T.append(at(1, 2));
  auto Chains = T.packetTraces();
  ASSERT_EQ(Chains.size(), 1u);
  EXPECT_EQ(Chains[0].size(), 1u);
}

TEST(NetworkTrace, ClosureRebuildsAfterAppend) {
  NetworkTrace T;
  int A = T.append(at(1, 1));
  int B = T.append(at(1, 2));
  EXPECT_TRUE(T.happensBefore(A, B));
  int C = T.append(at(1, 3));
  EXPECT_TRUE(T.happensBefore(B, C)); // closure refreshed lazily
}

namespace {
/// Definition 1 by brute force: the entries a DFS from \p From reaches
/// over the direct edges (parent -> child, and each entry -> the next
/// entry at the same switch).
std::vector<bool> reachableByDfs(const NetworkTrace &T, int From) {
  const auto &Es = T.entries();
  std::vector<std::vector<int>> Succ(Es.size());
  std::map<SwitchId, int> Last;
  for (size_t I = 0; I != Es.size(); ++I) {
    if (Es[I].Parent >= 0)
      Succ[Es[I].Parent].push_back(static_cast<int>(I));
    auto It = Last.find(Es[I].Lp.sw());
    if (It != Last.end())
      Succ[It->second].push_back(static_cast<int>(I));
    Last[Es[I].Lp.sw()] = static_cast<int>(I);
  }
  std::vector<bool> Seen(Es.size(), false);
  std::vector<int> Stack(Succ[From].begin(), Succ[From].end());
  while (!Stack.empty()) {
    int I = Stack.back();
    Stack.pop_back();
    if (Seen[I])
      continue;
    Seen[I] = true;
    Stack.insert(Stack.end(), Succ[I].begin(), Succ[I].end());
  }
  return Seen;
}
} // namespace

/// The memoised reachability sets answer every pair exactly like a DFS
/// over the direct edges, whichever endpoint's set is built first.
TEST(NetworkTrace, ReachabilitySetsMatchBruteForceDfs) {
  Rng R(2016);
  for (int Round = 0; Round != 40; ++Round) {
    NetworkTrace T;
    int N = 1 + static_cast<int>(R.below(90));
    unsigned Switches = 1 + static_cast<unsigned>(R.below(5));
    for (int I = 0; I != N; ++I) {
      int Parent = I == 0 || R.below(3) == 0
                       ? -1
                       : static_cast<int>(R.below(static_cast<uint64_t>(I)));
      T.append(at(1 + static_cast<SwitchId>(R.below(Switches)), 1, Parent));
    }
    // Some rounds memoise sets up front (the batch checker's pattern),
    // the rest build forward sets on demand.
    if (Round % 2)
      for (int K = 0; K < N; K += 1 + static_cast<int>(R.below(7)))
        T.prepareQueries(K);
    for (int A = 0; A != N; ++A) {
      std::vector<bool> Reach = reachableByDfs(T, A);
      for (int B = 0; B != N; ++B)
        ASSERT_EQ(T.happensBefore(A, B), Reach[B])
            << "round " << Round << " A=" << A << " B=" << B << '\n'
            << T.str();
    }
  }
}
