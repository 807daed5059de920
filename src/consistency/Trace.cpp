//===- consistency/Trace.cpp - Network traces ------------------------------===//

#include "consistency/Trace.h"

#include <cassert>
#include <map>
#include <sstream>

using namespace eventnet;
using namespace eventnet::consistency;

int NetworkTrace::append(TraceEntry E) {
  assert(E.Parent < static_cast<int>(Entries.size()) &&
         "parent must precede child");
  Entries.push_back(std::move(E));
  PrevAtSwitch.clear();
  Forward.clear();
  Backward.clear();
  return static_cast<int>(Entries.size()) - 1;
}

std::vector<std::vector<int>> NetworkTrace::packetTraces() const {
  // Children lists.
  std::vector<std::vector<int>> Children(Entries.size());
  std::vector<int> Roots;
  for (size_t I = 0; I != Entries.size(); ++I) {
    if (Entries[I].Parent < 0)
      Roots.push_back(static_cast<int>(I));
    else
      Children[Entries[I].Parent].push_back(static_cast<int>(I));
  }

  std::vector<std::vector<int>> Out;
  std::vector<int> Chain;
  struct Rec {
    const std::vector<std::vector<int>> &Children;
    std::vector<std::vector<int>> &Out;
    void go(int Node, std::vector<int> &Chain) {
      Chain.push_back(Node);
      if (Children[Node].empty())
        Out.push_back(Chain);
      for (int C : Children[Node])
        go(C, Chain);
      Chain.pop_back();
    }
  };
  Rec R{Children, Out};
  for (int Root : Roots)
    R.go(Root, Chain);
  return Out;
}

const std::vector<int> &NetworkTrace::prevAtSwitch() const {
  if (PrevAtSwitch.size() == Entries.size())
    return PrevAtSwitch;
  PrevAtSwitch.assign(Entries.size(), -1);
  std::map<SwitchId, int> LastAtSwitch;
  for (size_t I = 0; I != Entries.size(); ++I) {
    auto [It, Fresh] =
        LastAtSwitch.emplace(Entries[I].Lp.sw(), static_cast<int>(I));
    if (!Fresh) {
      PrevAtSwitch[I] = It->second;
      It->second = static_cast<int>(I);
    }
  }
  return PrevAtSwitch;
}

namespace {
bool testBit(const std::vector<uint64_t> &S, int I) {
  return (S[static_cast<size_t>(I) / 64] >> (I % 64)) & 1;
}
void setBit(std::vector<uint64_t> &S, int I) {
  S[static_cast<size_t>(I) / 64] |= uint64_t(1) << (I % 64);
}
} // namespace

// Both direct edges (parent -> child, per-switch predecessor -> entry)
// point forward in log order, so one sweep in log order closes a forward
// set, and one sweep against it closes a backward set.

const NetworkTrace::Reach &NetworkTrace::forwardSet(int K) const {
  auto [It, Fresh] = Forward.try_emplace(K);
  if (!Fresh)
    return It->second;
  const std::vector<int> &Prev = prevAtSwitch();
  Reach &S = It->second;
  S.assign((Entries.size() + 63) / 64, 0);
  auto Reached = [&](int I) { return I == K || (I > K && testBit(S, I)); };
  for (int J = K + 1; J < static_cast<int>(Entries.size()); ++J) {
    int P = Entries[J].Parent;
    if ((P >= K && Reached(P)) || (Prev[J] >= K && Reached(Prev[J])))
      setBit(S, J);
  }
  return S;
}

const NetworkTrace::Reach &NetworkTrace::backwardSet(int K) const {
  auto [It, Fresh] = Backward.try_emplace(K);
  if (!Fresh)
    return It->second;
  const std::vector<int> &Prev = prevAtSwitch();
  Reach &S = It->second;
  S.assign((Entries.size() + 63) / 64, 0);
  for (int J = K; J >= 0; --J) {
    if (J != K && !testBit(S, J))
      continue;
    if (Entries[J].Parent >= 0)
      setBit(S, Entries[J].Parent);
    if (Prev[J] >= 0)
      setBit(S, Prev[J]);
  }
  return S;
}

void NetworkTrace::prepareQueries(int K) const {
  assert(K >= 0 && K < static_cast<int>(Entries.size()) &&
         "entry index out of range");
  forwardSet(K);
  backwardSet(K);
}

bool NetworkTrace::happensBefore(int A, int B) const {
  assert(A >= 0 && B >= 0 && A < static_cast<int>(Entries.size()) &&
         B < static_cast<int>(Entries.size()) && "entry index out of range");
  if (A >= B)
    return false; // every edge points forward in log order
  auto F = Forward.find(A);
  if (F != Forward.end())
    return testBit(F->second, B);
  auto Bk = Backward.find(B);
  if (Bk != Backward.end())
    return testBit(Bk->second, A);
  return testBit(forwardSet(A), B);
}

std::string NetworkTrace::str() const {
  std::ostringstream OS;
  for (size_t I = 0; I != Entries.size(); ++I) {
    OS << I << ": " << Entries[I].Lp.str();
    if (Entries[I].Parent >= 0)
      OS << " <- " << Entries[I].Parent;
    if (Entries[I].IsDelivery)
      OS << " (delivered)";
    OS << '\n';
  }
  return OS.str();
}
