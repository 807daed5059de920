//===- topo/Configuration.cpp - Network configurations --------------------===//

#include "topo/Configuration.h"

#include <sstream>

using namespace eventnet;
using namespace eventnet::topo;
using eventnet::netkat::Packet;

const flowtable::Table &Configuration::tableFor(SwitchId Sw) const {
  static const flowtable::Table Empty;
  auto It = Tables.find(Sw);
  if (It == Tables.end())
    return Empty;
  return It->second;
}

size_t Configuration::totalRules() const {
  size_t N = 0;
  for (const auto &[Sw, T] : Tables)
    N += T.size();
  return N;
}

std::vector<Packet> Configuration::step(const Topology &Topo,
                                        const Packet &Lp) const {
  // The paper's C is the union of switch processing and link behavior,
  // so a located packet at a port that is *both* an arrival point and a
  // link source (every port of a bidirectional link) relates to the
  // table outputs and to the link target. Traces choose the applicable
  // branch; reachability closures must follow both.
  std::vector<Packet> Out = tableFor(Lp.sw()).apply(Lp);
  if (auto Dst = Topo.linkFrom(Lp.loc())) {
    Packet Moved = Lp;
    Moved.setLoc(*Dst);
    Out.push_back(std::move(Moved));
  }
  return Out;
}

bool Configuration::related(const Topology &Topo, netkat::PacketView From,
                            netkat::PacketView To) const {
  // Link step: From with its location moved to the link target.
  Location L = From.loc();
  if (auto Dst = Topo.linkFrom(L)) {
    const netkat::PacketView::Field Moved[] = {
        {FieldSw, static_cast<Value>(Dst->Sw)},
        {FieldPt, static_cast<Value>(Dst->Pt)}};
    static_assert(FieldSw < FieldPt, "location writes must stay sorted");
    if (netkat::writesYield(From, {Moved, 2}, To))
      return true;
  }
  // Table step: one output per action of the matched rule.
  const flowtable::Rule *R = tableFor(L.Sw).lookup(From);
  if (!R)
    return false;
  for (const flowtable::ActionSeq &A : R->Actions)
    if (netkat::writesYield(From, {A.data(), A.size()}, To))
      return true;
  return false;
}

bool Configuration::terminal(const Topology &Topo,
                             netkat::PacketView Lp) const {
  Location L = Lp.loc();
  if (Topo.linkFrom(L))
    return false;
  const flowtable::Rule *R = tableFor(L.Sw).lookup(Lp);
  return !R || R->Actions.empty();
}

bool Configuration::isCompleteTrace(
    const Topology &Topo, const std::vector<Packet> &Trace) const {
  if (Trace.empty())
    return false;
  for (size_t I = 0; I + 1 < Trace.size(); ++I)
    if (!related(Topo, Trace[I], Trace[I + 1]))
      return false;

  // Maximality. A packet delivered to a host has reached a host-facing
  // port *as an egress* (i.e. the previous step was a table step, not the
  // host's own injection). The first trace entry is the host injection at
  // the same kind of port, so a single-entry trace at a host port is
  // complete only if the table drops it.
  const Packet &Last = Trace.back();
  bool Delivered =
      Trace.size() > 1 && Topo.isHostPort(Last.loc()) &&
      !Topo.linkFrom(Last.loc()); // host ports have no outgoing link
  if (Delivered)
    return true;
  return terminal(Topo, Last);
}

std::string Configuration::str() const {
  std::ostringstream OS;
  for (const auto &[Sw, T] : Tables) {
    OS << "switch " << Sw << ":\n";
    for (const auto &R : T.rules())
      OS << "  " << R.str() << '\n';
  }
  return OS.str();
}
