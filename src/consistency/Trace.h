//===- consistency/Trace.h - Network traces ---------------------*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Network traces (paper Section 2): a global interleaving of located
/// packets together with the tree structure that groups them into packet
/// traces (multicast forks a packet trace into a tree; each root-to-leaf
/// chain is one packet trace). The happens-before relation of Definition
/// 1 is derived from (a) the per-switch total processing order and (b)
/// the per-packet-trace order.
///
/// Entries are appended by the runtime/simulator at every located-packet
/// occurrence: host emission (at the ingress port), switch egress (at the
/// output port), link arrival (at the destination port), and delivery
/// (an egress at a host-facing port).
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_CONSISTENCY_TRACE_H
#define EVENTNET_CONSISTENCY_TRACE_H

#include "netkat/Packet.h"
#include "support/Ids.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace eventnet {
namespace consistency {

/// One located-packet occurrence in the global interleaving.
struct TraceEntry {
  /// The located packet (its sw/pt fields are the location).
  netkat::Packet Lp;
  /// Index of the occurrence this one directly follows in its packet
  /// trace, or -1 for a root (host emission).
  int Parent = -1;
  /// True for an egress at a host-facing port (the packet left the
  /// network).
  bool IsDelivery = false;
};

/// The recorded network trace.
class NetworkTrace {
public:
  /// Appends an entry; returns its index.
  int append(TraceEntry E);

  const std::vector<TraceEntry> &entries() const { return Entries; }
  size_t size() const { return Entries.size(); }

  /// All packet traces: root-to-leaf index chains of the parent forest.
  /// A root with no children is a single-entry trace.
  std::vector<std::vector<int>> packetTraces() const;

  /// happens-before: Definition 1's least partial order. True if entry
  /// \p A must precede entry \p B. Answered from a memoised reachability
  /// set — the forward set of \p A or the backward set of \p B, whichever
  /// exists — and otherwise by building \p A's forward set. One set is
  /// one O(entries) sweep and entries/8 bytes.
  bool happensBefore(int A, int B) const;

  /// Builds (once) both reachability sets of entry \p K, so every query
  /// that pairs \p K with another entry is a bit test. The batch checker
  /// calls this for each first-occurrence entry: memory is then
  /// O(#first occurrences x entries / 8), not entries^2 / 8.
  void prepareQueries(int K) const;

  std::string str() const;

private:
  using Reach = std::vector<uint64_t>;
  const Reach &forwardSet(int K) const;
  const Reach &backwardSet(int K) const;
  const std::vector<int> &prevAtSwitch() const;

  std::vector<TraceEntry> Entries;
  /// Per entry, the previous entry at the same switch (or -1). Together
  /// with Parent these are every direct happens-before edge, and both
  /// point backwards in log order. Rebuilt when entries change.
  mutable std::vector<int> PrevAtSwitch;
  /// Memoised strict reachability: Forward[K] has bit J set iff K
  /// happens-before J; Backward[K] iff J happens-before K.
  mutable std::unordered_map<int, Reach> Forward, Backward;
};

} // namespace consistency
} // namespace eventnet

#endif // EVENTNET_CONSISTENCY_TRACE_H
