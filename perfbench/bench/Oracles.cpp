//===- perfbench/bench/Oracles.cpp - Output checks -------------------------===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//

#include "Oracles.h"

#include "topo/Configuration.h"

#include <algorithm>
#include <map>
#include <random>
#include <set>

using namespace eventnet;

namespace perfbench {

namespace {
std::string shapeStr(const CompiledShape &S) {
  return std::to_string(S.States) + " states, " + std::to_string(S.Events) +
         " events, " + std::to_string(S.Sets) + " sets";
}
} // namespace

Errors checkShape(const std::string &Program, int BandwidthN, bool IsRing,
                  const CompiledShape &Got) {
  Errors E;
  CompiledShape Want;
  if (BandwidthN >= 0) {
    // The cap's state machine is a chain of N+1 packet arrivals.
    unsigned N = static_cast<unsigned>(BandwidthN);
    Want = {N + 2, N + 1, N + 2};
  } else if (IsRing) {
    // One probe flips the ring from clockwise to counterclockwise.
    Want = {2, 1, 2};
  } else if (Program == "stateful-firewall" || Program == "learning-switch") {
    // Figure 9(a)/(b): a single state change.
    Want = {2, 1, 2};
  } else if (Program == "authentication" ||
             Program == "intrusion-detection") {
    // Figure 9(c)/(e): a two-step sequence (knock H1 then H2; scan H1
    // then H2).
    Want = {3, 2, 3};
  } else {
    E.push_back(Program + ": no expected shape");
    return E;
  }
  if (Got.States != Want.States || Got.Events != Want.Events ||
      Got.Sets != Want.Sets)
    E.push_back(Program + ": compiled to " + shapeStr(Got) + ", expected " +
                shapeStr(Want));
  return E;
}

std::vector<netkat::Packet> canonical(std::vector<netkat::Packet> V) {
  std::sort(V.begin(), V.end());
  V.erase(std::unique(V.begin(), V.end()), V.end());
  return V;
}

std::vector<netkat::Packet> sampleHeaders(const flowtable::Table &T,
                                          SwitchId Sw, uint64_t Seed,
                                          unsigned Count) {
  std::map<FieldId, std::vector<Value>> Tested;
  for (const flowtable::Rule &R : T.rules())
    for (const auto &[F, V] : R.Pattern.constraints())
      Tested[F].push_back(V);
  for (auto &[F, Vs] : Tested) {
    std::sort(Vs.begin(), Vs.end());
    Vs.erase(std::unique(Vs.begin(), Vs.end()), Vs.end());
  }
  std::mt19937_64 R(Seed);
  std::vector<netkat::Packet> Out;
  Out.reserve(Count);
  for (unsigned I = 0; I != Count; ++I) {
    netkat::Packet P;
    P.set(FieldSw, static_cast<Value>(Sw));
    P.set(FieldPt, 1 + static_cast<Value>(R() % 4));
    for (const auto &[F, Vs] : Tested) {
      if (F == FieldSw)
        continue;
      if (R() % 8 != 0)
        P.set(F, Vs[R() % Vs.size()]);
      else if (F != FieldPt && R() % 2)
        P.set(F, Vs.back() + 1 + static_cast<Value>(R() % 3));
    }
    Out.push_back(std::move(P));
  }
  return Out;
}

std::vector<netkat::Packet>
classifierOutput(const engine::MatchPipeline &Pipe,
                 const netkat::Packet &Pkt) {
  std::vector<netkat::Packet> Out;
  Pipe.applyClassifier(Pkt, Out);
  return canonical(std::move(Out));
}

Errors checkClassifier(const std::string &Where, const flowtable::Table &T,
                       const std::vector<netkat::Packet> &Samples,
                       const std::vector<std::vector<netkat::Packet>> &Got) {
  Errors E;
  for (size_t I = 0; I != Samples.size(); ++I)
    if (canonical(T.apply(Samples[I])) != Got[I]) {
      E.push_back(Where + ": classifier output differs from the table on " +
                  Samples[I].str());
      break; // one witness per table is enough
    }
  return E;
}

std::vector<SwitchId> changedSwitches(const topo::Topology &Topo,
                                      const topo::Configuration &Before,
                                      const topo::Configuration &After) {
  std::vector<SwitchId> Out;
  for (SwitchId Sw : Topo.switches())
    if (!(Before.tableFor(Sw) == After.tableFor(Sw)))
      Out.push_back(Sw);
  return Out;
}

Errors checkLearns(const std::vector<SwitchId> &Expected,
                   const std::vector<bool> &Learned) {
  Errors E;
  for (size_t I = 0; I != Expected.size(); ++I)
    if (I >= Learned.size() || !Learned[I])
      E.push_back("switch " + std::to_string(Expected[I]) +
                  " changes configuration with the event but never "
                  "learned it");
  return E;
}

Errors checkVerified(const VerifiedTally &T) {
  Errors E;
  if (!T.VerdictOk)
    E.push_back("streaming Definition 6 verdict is not ok: " + T.Reason);
  if (T.StreamShed != 0)
    E.push_back(std::to_string(T.StreamShed) + " stream items shed");
  if (T.TreesRetired != T.RootsInjected)
    E.push_back("checker retired " + std::to_string(T.TreesRetired) +
                " packet trees for " + std::to_string(T.RootsInjected) +
                " injected packets");
  if (T.EntriesChecked != T.EntriesIngested)
    E.push_back(std::to_string(T.EntriesIngested - T.EntriesChecked) +
                " trace entries left unchecked");
  return E;
}

Errors checkServe(const ServeTally &T, uint64_t &Missing) {
  Errors E;
  for (uint64_t S : T.StraySeqs)
    E.push_back("reply carries sequence number " + std::to_string(S) +
                ", which was never sent or was already answered");
  // A request without a good reply is a failed operation, not bad output.
  Missing = T.RequestsSent > T.Replies ? T.RequestsSent - T.Replies : 0;
  if (T.ServerFramesIn != T.ClientFramesSent)
    E.push_back("server decoded " + std::to_string(T.ServerFramesIn) +
                " frames; client sent " +
                std::to_string(T.ClientFramesSent));
  if (T.ServerShed != 0)
    E.push_back("server shed " + std::to_string(T.ServerShed) + " frames");
  return E;
}

} // namespace perfbench
