//===- consistency/Check.h - Consistency checkers ---------------*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's two correctness definitions, as executable checkers over
/// recorded network traces:
///
///  - Definition 2 (event-driven consistent update): given an update
///    sequence C0 -e0-> C1 ... -en-> Cn+1, find the first occurrences
///    FO(ntr, U), then require every packet trace to be processed by a
///    single configuration, no earlier than its happens-before position
///    allows and no later either.
///
///  - Definition 6 (correctness w.r.t. an NES): either no event occurs
///    and every packet trace is a trace of g(∅), or some sequence of
///    events allowed by the NES makes the trace correct per Definition 2.
///
/// One aspect of Definition 2 is operationalized (documented in
/// DESIGN.md): the trailing condition "no lp_j matches any e in E after
/// k_n" is interpreted up to *fresh, enabled* events — a packet matching
/// the guard of an event that has already occurred (or that the structure
/// does not yet enable) does not invalidate FO. Renamed events make the
/// literal reading vacuous for chains like the bandwidth cap, and this
/// reading is exactly what the Figure 7 SWITCH rule implements.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_CONSISTENCY_CHECK_H
#define EVENTNET_CONSISTENCY_CHECK_H

#include "consistency/Trace.h"
#include "nes/Nes.h"
#include "topo/Configuration.h"
#include "topo/Topology.h"

#include <string>
#include <vector>

namespace eventnet {
namespace consistency {

/// Outcome of a check, with a human-readable reason on failure.
struct CheckResult {
  bool Correct = false;
  std::string Reason;

  static CheckResult ok() { return {true, ""}; }
  static CheckResult fail(std::string Why) { return {false, std::move(Why)}; }
};

/// Trace annotations from a fault-injection ledger (faults/FaultPlan.h),
/// letting the checkers verify Definition 6 on the *surviving* trace:
/// chains truncated by a ledgered drop/shed are held to prefix
/// membership instead of maximal membership. Unledgered truncations
/// still fail — that is the point: injected loss is excused, silent loss
/// is not. Injected duplicates need no annotation: a copy is a packet
/// like any other (it can trigger events), so its subtree is checked.
struct FaultContext {
  /// Trace-entry indices after which the packet trace may legitimately
  /// end (the entry's egress was dropped or its message shed).
  std::vector<int> ExcusedEntries;

  bool empty() const { return ExcusedEntries.empty(); }
};

/// An update sequence U = C0 -e0-> C1 -e1-> ... -en-> Cn+1. Events are
/// given as indices into the ambient event vector E (AllEvents below),
/// which the trailing-condition check ranges over.
struct UpdateSequence {
  /// n+1 configurations (C0 ... Cn+1).
  std::vector<const topo::Configuration *> Configs;
  /// n event ids into AllEvents.
  std::vector<unsigned> EventIds;
};

/// Checks Definition 2 directly against an explicit update sequence.
/// \p AllEvents is the ambient event set E used by the trailing-condition
/// check; \p EnablingNes, when non-null, scopes "fresh, enabled" to the
/// structure (see the header comment); when null every non-occurred event
/// is considered enabled. \p ExcusedLeaves, when non-null, is indexed by
/// trace-entry index; a chain ending at an excused entry is held to
/// prefix membership (consecutive entries related, maximality waived)
/// because a ledgered fault cut it short.
CheckResult checkUpdateSequence(const NetworkTrace &Tr,
                                const topo::Topology &Topo,
                                const UpdateSequence &U,
                                const std::vector<netkat::Event> &AllEvents,
                                const nes::Nes *EnablingNes = nullptr,
                                const std::vector<bool> *ExcusedLeaves =
                                    nullptr);

/// Checks Definition 6: the trace is correct w.r.t. \p N if some allowed
/// event sequence makes it an event-driven consistent update. With a
/// \p Faults ledger, ledgered truncations are excused (see
/// FaultContext).
CheckResult checkAgainstNes(const NetworkTrace &Tr,
                            const topo::Topology &Topo, const nes::Nes &N,
                            const FaultContext *Faults = nullptr);

} // namespace consistency
} // namespace eventnet

#endif // EVENTNET_CONSISTENCY_CHECK_H
