//===- topo/Configuration.h - Network configurations ------------*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A network configuration C (paper Section 2): a relation on located
/// packets composed of (a) the per-switch flow tables (forwarding between
/// ports within a switch) and (b) the topology's link behavior
/// (forwarding between switches). This is the object the consistency
/// checker quantifies over ("the packet is processed entirely by a single
/// configuration C").
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_TOPO_CONFIGURATION_H
#define EVENTNET_TOPO_CONFIGURATION_H

#include "flowtable/FlowTable.h"
#include "topo/Topology.h"

#include <map>
#include <string>
#include <vector>

namespace eventnet {
namespace topo {

/// A compiled network configuration: one flow table per switch.
class Configuration {
public:
  Configuration() = default;
  explicit Configuration(std::map<SwitchId, flowtable::Table> Tables)
      : Tables(std::move(Tables)) {}

  /// The table of switch \p Sw; an absent switch has an empty (drop-all)
  /// table.
  const flowtable::Table &tableFor(SwitchId Sw) const;

  void setTable(SwitchId Sw, flowtable::Table T) {
    Tables[Sw] = std::move(T);
  }

  const std::map<SwitchId, flowtable::Table> &tables() const {
    return Tables;
  }

  /// Total rule count across switches (the paper's per-app metric).
  size_t totalRules() const;

  /// One step of the relation C: a located packet at a switch ingress is
  /// forwarded by the switch table to egress locations; a located packet
  /// at a link source moves across the link. Both kinds of steps are
  /// included, matching the paper's convention that C also captures link
  /// behavior.
  std::vector<netkat::Packet> step(const Topology &Topo,
                                   const netkat::Packet &Lp) const;

  /// True if \p From -> \p To is a single step of the relation, i.e.
  /// \p To is among step(Topo, From). Compares in place; allocates
  /// nothing.
  bool related(const Topology &Topo, netkat::PacketView From,
               netkat::PacketView To) const;

  /// True iff step(Topo, Lp) is empty: no link leaves Lp's location and
  /// the switch table drops (or misses) it. Allocates nothing.
  bool terminal(const Topology &Topo, netkat::PacketView Lp) const;

  /// True if the sequence \p Trace is a *maximal* trace of this
  /// configuration: consecutive entries are related, and the final entry
  /// either was delivered to a host or has no successor (dropped).
  /// Maximality distinguishes "C drops this packet here" from "C would
  /// keep forwarding", which Definition 2 depends on.
  bool isCompleteTrace(const Topology &Topo,
                       const std::vector<netkat::Packet> &Trace) const;

  friend bool operator==(const Configuration &A, const Configuration &B) {
    return A.Tables == B.Tables;
  }

  std::string str() const;

private:
  std::map<SwitchId, flowtable::Table> Tables;
};

} // namespace topo
} // namespace eventnet

#endif // EVENTNET_TOPO_CONFIGURATION_H
