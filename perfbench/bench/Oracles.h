//===- perfbench/bench/Oracles.h - Output checks ----------------*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checks each workload applies to the program's outputs. Every
/// check compares against a computation made independently of the code
/// under test (a diff of two configurations' tables, flowtable::Table::apply, the set of sequence numbers the
/// client sent) or against a property the method must have. Each returns
/// one message per disagreement; an empty list means the output passed.
///
/// The self-test (Main.cpp) feeds every check one corrupted input
/// and requires a rejection, so none of them can pass vacuously.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ORACLES_H
#define PERFBENCH_ORACLES_H

#include "engine/MatchPipeline.h"
#include "flowtable/FlowTable.h"
#include "netkat/Packet.h"
#include "topo/Configuration.h"
#include "topo/Topology.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Errors = std::vector<std::string>;

//===----------------------------------------------------------------------===//
// compile
//===----------------------------------------------------------------------===//

/// The size of one compiled program.
struct CompiledShape {
  unsigned States = 0; ///< ETS vertices
  unsigned Events = 0; ///< NES events
  unsigned Sets = 0;   ///< NES family members
};

/// The shape the method fixes for a program, where it fixes one:
/// bandwidth cap N has N+2 states, N+1 events and N+2 family sets (a
/// chain), the ring has 2 states, 1 event and 2 sets. Programs whose
/// shape the method does not fix only need one state and one set.
Errors checkShape(const std::string &Program, int BandwidthN, bool IsRing,
                  const CompiledShape &Got);

/// Canonical (sorted, deduplicated) output set of a lookup.
std::vector<eventnet::netkat::Packet>
canonical(std::vector<eventnet::netkat::Packet> V);

/// Seeded sample headers located at \p Sw for table \p T: every field a
/// rule constrains gets, with high probability, one of the values rules
/// test (a hit), otherwise a value no rule tests (a miss).
std::vector<eventnet::netkat::Packet>
sampleHeaders(const eventnet::flowtable::Table &T, eventnet::SwitchId Sw,
              uint64_t Seed, unsigned Count);

/// Classifier output of \p Pipe on \p Pkt, canonical.
std::vector<eventnet::netkat::Packet>
classifierOutput(const eventnet::engine::MatchPipeline &Pipe,
                 const eventnet::netkat::Packet &Pkt);

/// The lowered classifier must equal Table::apply on every sample.
/// \p Got[i] is the classifier's canonical output on \p Samples[i].
Errors checkClassifier(const std::string &Where,
                       const eventnet::flowtable::Table &T,
                       const std::vector<eventnet::netkat::Packet> &Samples,
                       const std::vector<std::vector<eventnet::netkat::Packet>>
                           &Got);

//===----------------------------------------------------------------------===//
// update
//===----------------------------------------------------------------------===//

/// Switches whose table differs between the two configurations, found
/// by comparing the tables themselves.
std::vector<eventnet::SwitchId>
changedSwitches(const eventnet::topo::Topology &Topo,
                const eventnet::topo::Configuration &Before,
                const eventnet::topo::Configuration &After);

/// Every switch in \p Expected must have learned the event: \p Learned
/// is parallel to it. Returns one message per missing learn.
Errors checkLearns(const std::vector<eventnet::SwitchId> &Expected,
                   const std::vector<bool> &Learned);

//===----------------------------------------------------------------------===//
// verified
//===----------------------------------------------------------------------===//

struct VerifiedTally {
  bool VerdictOk = false;
  std::string Reason;
  uint64_t StreamShed = 0;
  uint64_t TreesRetired = 0;
  uint64_t RootsInjected = 0;
  uint64_t EntriesIngested = 0;
  uint64_t EntriesChecked = 0;
};

/// Verdict ok, nothing shed, every injected root retired as one tree,
/// every ingested entry checked.
Errors checkVerified(const VerifiedTally &T);

//===----------------------------------------------------------------------===//
// serve
//===----------------------------------------------------------------------===//

/// The client matches each reply against the set of requests it sent and
/// has not seen answered.
struct ServeTally {
  uint64_t RequestsSent = 0;
  uint64_t Replies = 0;            ///< replies that matched that set
  std::vector<uint64_t> StraySeqs; ///< replies that did not
  uint64_t ClientFramesSent = 0;
  uint64_t ServerFramesIn = 0;
  uint64_t ServerShed = 0;
};

/// Every reply answers a request that was sent, exactly once; the server
/// decoded every frame the client sent and shed none. Requests left
/// without a good reply are returned in \p Missing (replies must equal
/// requests: the caller counts them as failed operations).
Errors checkServe(const ServeTally &T, uint64_t &Missing);

} // namespace perfbench

#endif // PERFBENCH_ORACLES_H
