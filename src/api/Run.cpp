//===- api/Run.cpp - Backend registry and the Run handle ------------------===//

#include "api/Run.h"

#include "api/Json.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <mutex>
#include <sstream>

using namespace eventnet;
using namespace eventnet::api;

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

// Built-in factories live in the Backend*.cpp files. They are referenced
// here explicitly (rather than via static-initializer registration) so a
// static-library link never dead-strips them.
namespace eventnet {
namespace api {
std::unique_ptr<Backend> makeMachineBackend();
std::unique_ptr<Backend> makeSimBackend();
std::unique_ptr<Backend> makeEngineBackend();
std::unique_ptr<Backend> makeNetBackend();
} // namespace api
} // namespace eventnet

namespace {

using Factory = std::function<std::unique_ptr<Backend>()>;

std::mutex &registryMu() {
  static std::mutex Mu;
  return Mu;
}

std::map<std::string, Factory> &registry() {
  static std::map<std::string, Factory> R = {
      {"machine", makeMachineBackend},
      {"sim", makeSimBackend},
      {"engine", makeEngineBackend},
      {"net", makeNetBackend},
  };
  return R;
}

} // namespace

std::vector<std::string> api::backendNames() {
  std::lock_guard<std::mutex> Lock(registryMu());
  std::vector<std::string> Names;
  for (const auto &[Name, F] : registry())
    Names.push_back(Name);
  return Names; // std::map iteration is already sorted
}

Result<std::unique_ptr<Backend>> api::makeBackend(const std::string &Name) {
  Factory F;
  {
    std::lock_guard<std::mutex> Lock(registryMu());
    auto It = registry().find(Name);
    if (It != registry().end())
      F = It->second;
  }
  if (!F) {
    std::string Known;
    for (const std::string &N : backendNames())
      Known += (Known.empty() ? "" : ", ") + N;
    return Status::error(Code::InvalidArgument,
                         "unknown backend '" + Name + "' (known: " + Known +
                             ")");
  }
  return F();
}

void api::registerBackend(const std::string &Name, Factory F) {
  std::lock_guard<std::mutex> Lock(registryMu());
  registry()[Name] = std::move(F);
}

//===----------------------------------------------------------------------===//
// Run
//===----------------------------------------------------------------------===//

Result<Run> Run::create(const Compilation &C,
                        const std::string &BackendName) {
  Result<std::unique_ptr<Backend>> B = makeBackend(BackendName);
  if (!B.ok())
    return B.status();
  return Run(C, std::move(*B));
}

Result<RunReport> Run::execute(const RunOptions &O) {
  const topo::Topology &Topo = C->topology();
  size_t NumHosts = Topo.hosts().size();
  if (NumHosts < 2)
    return Status::error(Code::RunError,
                         "topology has " + std::to_string(NumHosts) +
                             " host(s); the ping workload needs at least 2");
  if (O.Phases == 0 || O.PingsPerPhase == 0)
    return Status::error(Code::InvalidArgument,
                         "phases and pings-per-phase must be positive");

  // The shared workload: every backend executes the same seeded phase
  // list over the same wire format.
  size_t Pairs = NumHosts * NumHosts;
  unsigned PerPhase = static_cast<unsigned>(
      std::min<size_t>(O.PingsPerPhase, Pairs));
  engine::TrafficGen G(Topo, O.Seed);
  engine::Workload W;
  if (O.Workload == "ping") {
    W = G.pings(O.Phases, PerPhase);
  } else if (O.Workload == "churn") {
    // Event-storm shape: distinct-flow data packets (no echo replies
    // owed) with rotating probe triggers scattered through each phase.
    W = G.churn(O.Phases, O.PingsPerPhase, O.ChurnRate);
  } else {
    return Status::error(Code::InvalidArgument,
                         "unknown workload '" + O.Workload +
                             "' (known: ping, churn)");
  }

  Result<RunReport> Report = B->execute(*C, O, W);
  if (!Report.ok())
    return Report;

  Report->Backend = B->name();
  Report->Seed = O.Seed;
  Report->Workload = O.Workload;

  detail::verifyReport(*Report, *C, O);
  return Report;
}

void api::detail::verifyReport(RunReport &R, const Compilation &C,
                               const RunOptions &O) {
  // Packet-conservation audit (backend-agnostic): every injection must
  // end in a delivery or a counted drop. Multicast can only add terminal
  // outcomes, so injected > delivered + dropped means silent loss.
  // Injected duplicates add terminal outcomes that no injection owns, so
  // their deliveries/drops are discounted before the comparison.
  DropAudit &A = R.Audit;
  A.Injected = R.PacketsInjected;
  A.Delivered = R.PacketsDelivered;
  A.Dropped = R.PacketsDropped;
  uint64_t EffDelivered = A.Delivered > R.Faults.DupDelivered
                              ? A.Delivered - R.Faults.DupDelivered
                              : 0;
  uint64_t EffDropped =
      A.Dropped > R.Faults.DupDropped ? A.Dropped - R.Faults.DupDropped : 0;
  uint64_t Accounted = EffDelivered + EffDropped;
  A.SilentLoss = A.Injected > Accounted ? A.Injected - Accounted : 0;
  A.Ok = A.SilentLoss == 0;

  // Streaming-only runs keep no trace: replaying the (empty) trace
  // through the batch checker would pass vacuously, so the batch replay
  // runs only when a trace was kept — always without streaming, and in
  // differential mode alongside it. The excusal context is passed
  // whenever it is nonempty: a shed overload policy excuses the chains
  // it retired under plain pressure, with or without a fault plan.
  if (!O.CheckConsistency || (R.StreamCheck.Enabled && !O.CheckDifferential))
    return;
  R.Checked = true;
  R.Consistency = consistency::checkAgainstNes(
      R.Trace, C.topology(), C.structure(),
      R.FaultCtx.empty() ? nullptr : &R.FaultCtx);
  if (R.StreamCheck.Enabled) {
    StreamCheckReport &SC = R.StreamCheck;
    SC.DifferentialRan = true;
    // An inconclusive streaming verdict makes no pass/fail claim, so
    // there is nothing to disagree with.
    if (SC.Result.Verdict != consistency::StreamVerdict::Inconclusive)
      SC.DifferentialMatched = SC.Result.ok() == R.Consistency.Correct;
  }
}

Result<RunReport> api::run(const Compilation &C,
                           const std::string &BackendName,
                           const RunOptions &O) {
  Result<Run> R = Run::create(C, BackendName);
  if (!R.ok())
    return R.status();
  return R->execute(O);
}

//===----------------------------------------------------------------------===//
// RunReport rendering
//===----------------------------------------------------------------------===//

namespace {

/// "12.345 us" style rendering for latency values given in seconds.
std::string fmtLatency(double Sec) {
  char Buf[64];
  if (Sec >= 1.0)
    snprintf(Buf, sizeof(Buf), "%.3f s", Sec);
  else if (Sec >= 1e-3)
    snprintf(Buf, sizeof(Buf), "%.3f ms", Sec * 1e3);
  else
    snprintf(Buf, sizeof(Buf), "%.3f us", Sec * 1e6);
  return Buf;
}

/// Short stable digest of the canonical ledger (FNV-1a 64), so JSON
/// consumers can compare ledgers across runs without the full text.
std::string ledgerDigest(const std::string &Ledger) {
  if (Ledger.empty())
    return "";
  uint64_t H = 1469598103934665603ull;
  for (unsigned char Ch : Ledger) {
    H ^= Ch;
    H *= 1099511628211ull;
  }
  char Buf[32];
  snprintf(Buf, sizeof(Buf), "%016llx",
           static_cast<unsigned long long>(H));
  return Buf;
}

void latencyJson(std::ostringstream &OS, const char *Key,
                 const LatencyReport &L) {
  OS << ", \"" << Key << "\": {\"samples\": " << L.Samples
     << ", \"mean\": " << L.MeanSec << ", \"p50\": " << L.P50Sec
     << ", \"p90\": " << L.P90Sec << ", \"p99\": " << L.P99Sec
     << ", \"max\": " << L.MaxSec << "}";
}

} // namespace

std::string RunReport::str() const {
  std::ostringstream OS;
  OS << Backend << " run: seed " << Seed;
  if (!Workload.empty() && Workload != "ping")
    OS << ", " << Workload << " workload";
  if (Shards > 1)
    OS << ", " << Shards << " shards";
  if (Backend == "engine") {
    OS << ", " << (Classifier ? "classifier" : "fdd-walk") << " path, batch "
       << Batch;
    if (!Partition.empty())
      OS << ", " << Partition << " partition (edge cut " << EdgeCut << "/"
         << EdgeTotal << ")";
    if (!Overload.empty())
      OS << ", " << Overload << " overload";
  }
  OS << "\n";
  OS << "  injected:     " << PacketsInjected << " packets\n";
  OS << "  delivered:    " << PacketsDelivered << "\n";
  OS << "  dropped:      " << PacketsDropped << "\n";
  OS << "  switch-hops:  " << SwitchHops << "\n";
  OS << "  events:       " << EventsDetected << " detected, "
     << ConfigTransitions << " register transitions\n";
  if (ElapsedSec > 0) {
    char Buf[64];
    snprintf(Buf, sizeof(Buf), "%.3f", ElapsedSec * 1e3);
    OS << "  elapsed:      " << Buf << " ms\n";
  }
  if (UpdateLatency.Samples > 0)
    OS << "  update lat:   p50 " << fmtLatency(UpdateLatency.P50Sec)
       << ", p99 " << fmtLatency(UpdateLatency.P99Sec) << ", max "
       << fmtLatency(UpdateLatency.MaxSec) << " ("
       << UpdateLatency.Samples << " learns)\n";
  if (QueueDwell.Samples > 0)
    OS << "  queue dwell:  p50 " << fmtLatency(QueueDwell.P50Sec)
       << ", p99 " << fmtLatency(QueueDwell.P99Sec) << ", max "
       << fmtLatency(QueueDwell.MaxSec) << " (" << QueueDwell.Samples
       << " hops)\n";
  if (BatchOccupancy.Samples > 0) {
    char Buf[64];
    snprintf(Buf, sizeof(Buf), "%.1f", BatchOccupancy.MeanSec);
    OS << "  batch occ:    mean " << Buf << ", p99 "
       << static_cast<uint64_t>(BatchOccupancy.P99Sec) << ", max "
       << static_cast<uint64_t>(BatchOccupancy.MaxSec) << " msgs/batch\n";
  }
  if (TraceRecorded > 0 || TraceDropped > 0)
    OS << "  obs trace:    " << TraceRecorded << " events recorded, "
       << TraceDropped << " dropped\n";
  if (Net.Enabled) {
    OS << "  net:          " << (Net.Udp ? "udp" : "tcp") << " over "
       << Net.Poller << " port " << Net.Port << ", " << Net.Connections
       << " client conns ("
       << Net.Accepted << " accepted, " << Net.Closed << " closed, "
       << Net.ProtocolErrors << " protocol errors)\n";
    OS << "  net frames:   " << Net.FramesIn << " in (" << Net.FramesInjected
       << " injected), " << Net.FramesOut << " out (" << Net.DeliveryFrames
       << " deliveries, " << Net.RepliesOut << " replies, "
       << Net.BarriersAcked << " barrier acks)\n";
    OS << "  net bytes:    " << Net.BytesIn << " in, " << Net.BytesOut
       << " out, " << Net.ReassemblyPartial << " partial reads";
    if (Net.UdpDatagrams)
      OS << ", " << Net.UdpDatagrams << " datagrams";
    OS << "\n";
    if (Net.BackpressureShed || Net.DeliveryUnroutable)
      OS << "  net shed:     " << Net.BackpressureShed << " backpressure ("
         << Net.RingShed << " at the ring), " << Net.DeliveryUnroutable
         << " unroutable\n";
    if (Net.Rtt.Samples > 0)
      OS << "  net rtt:      p50 " << fmtLatency(Net.Rtt.P50Sec) << ", p99 "
         << fmtLatency(Net.Rtt.P99Sec) << ", max "
         << fmtLatency(Net.Rtt.MaxSec) << " (" << Net.Rtt.Samples
         << " samples)\n";
  }
  if (!Audit.Ok)
    OS << "  DROP AUDIT:   FAILED — " << Audit.SilentLoss
       << " packet(s) silently lost (" << Audit.Injected << " injected, "
       << Audit.Delivered << " delivered, " << Audit.Dropped
       << " counted drops)\n";
  if (Faults.Enabled) {
    OS << "  faults:       " << Faults.Drops << " dropped, " << Faults.Dups
       << " duplicated, " << Faults.Delays << " delayed, " << Faults.Shed
       << " shed, " << Faults.Stalls << " stalls, " << Faults.Storms
       << " storm broadcasts (" << Faults.LedgerEntries
       << " ledger entries)\n";
    if (Faults.DupDelivered || Faults.DupDropped)
      OS << "  dup outcomes: " << Faults.DupDelivered << " delivered, "
         << Faults.DupDropped << " dropped (discounted from the audit)\n";
  }
  for (size_t I = 0; I != ShardDetail.size(); ++I) {
    const ShardReport &D = ShardDetail[I];
    OS << "  shard " << I << ":      " << D.Switches << " switches, "
       << D.Processed << " hops, queue hwm " << D.QueueHighWater << ", "
       << D.Dropped << " dropped, " << D.Transitions << " transitions";
    if (D.Shed)
      OS << ", " << D.Shed << " shed";
    OS << "\n";
  }
  if (Checked) {
    OS << "  definition 6: "
       << (Consistency.Correct ? "consistent" : "VIOLATED") << "\n";
    if (!Consistency.Correct)
      OS << "    " << Consistency.Reason << "\n";
  }
  if (StreamCheck.Enabled) {
    const consistency::StreamResult &SR = StreamCheck.Result;
    std::string Verdict = consistency::streamVerdictName(SR.Verdict);
    if (SR.violated())
      Verdict = "VIOLATED";
    OS << "  streaming d6: " << Verdict << " (" << SR.Stats.EntriesChecked
       << " entries, " << SR.Stats.ChainsRetired << " chains, "
       << SR.Stats.EventsObserved << " events, peak window "
       << SR.Stats.PeakWindow << "/" << StreamCheck.Window << ", peak "
       << (SR.Stats.PeakResidentBytes + 1023) / 1024 << " KiB)\n";
    if (!SR.Reason.empty())
      OS << "    " << SR.Reason << "\n";
    if (StreamCheck.StreamShed > 0)
      OS << "    " << StreamCheck.StreamShed
         << " stream items shed (collector lagged the data path)\n";
    if (StreamCheck.DifferentialRan)
      OS << "    differential: "
         << (StreamCheck.DifferentialMatched ? "verdicts agree"
                                             : "VERDICTS DISAGREE")
         << "\n";
  }
  return OS.str();
}

std::string RunReport::json() const {
  std::ostringstream OS;
  OS << "{\"backend\": \"" << jsonEscape(Backend) << "\""
     << ", \"workload\": \""
     << jsonEscape(Workload.empty() ? "ping" : Workload) << "\""
     << ", \"seed\": " << Seed << ", \"shards\": " << Shards
     << ", \"classifier\": " << (Classifier ? "true" : "false")
     << ", \"batch\": " << Batch
     << ", \"partition\": \"" << jsonEscape(Partition) << "\""
     << ", \"edge_cut\": " << EdgeCut
     << ", \"edge_total\": " << EdgeTotal
     << ", \"overload\": \"" << jsonEscape(Overload) << "\""
     << ", \"injected\": " << PacketsInjected
     << ", \"delivered\": " << PacketsDelivered
     << ", \"dropped\": " << PacketsDropped
     << ", \"switch_hops\": " << SwitchHops
     << ", \"events_detected\": " << EventsDetected
     << ", \"config_transitions\": " << ConfigTransitions
     << ", \"elapsed_sec\": " << ElapsedSec
     << ", \"update_lat_samples\": " << UpdateLatency.Samples
     << ", \"update_lat_mean\": " << UpdateLatency.MeanSec
     << ", \"update_lat_p50\": " << UpdateLatency.P50Sec
     << ", \"update_lat_p90\": " << UpdateLatency.P90Sec
     << ", \"update_lat_p99\": " << UpdateLatency.P99Sec
     << ", \"update_lat_max\": " << UpdateLatency.MaxSec;
  latencyJson(OS, "queue_dwell", QueueDwell);
  latencyJson(OS, "batch_occupancy", BatchOccupancy);
  OS << ", \"drop_audit\": {\"injected\": " << Audit.Injected
     << ", \"delivered\": " << Audit.Delivered
     << ", \"dropped\": " << Audit.Dropped
     << ", \"silent_loss\": " << Audit.SilentLoss
     << ", \"ok\": " << (Audit.Ok ? "true" : "false") << "}"
     << ", \"faults\": {\"enabled\": " << (Faults.Enabled ? "true" : "false")
     << ", \"drops\": " << Faults.Drops << ", \"dups\": " << Faults.Dups
     << ", \"delays\": " << Faults.Delays << ", \"shed\": " << Faults.Shed
     << ", \"stalls\": " << Faults.Stalls
     << ", \"storms\": " << Faults.Storms
     << ", \"dup_delivered\": " << Faults.DupDelivered
     << ", \"dup_dropped\": " << Faults.DupDropped
     << ", \"ledger_entries\": " << Faults.LedgerEntries
     << ", \"ledger_sha\": \"" << jsonEscape(ledgerDigest(Faults.Ledger))
     << "\"}"
     << ", \"net\": {\"enabled\": " << (Net.Enabled ? "true" : "false")
     << ", \"poller\": \"" << jsonEscape(Net.Poller) << "\""
     << ", \"udp\": " << (Net.Udp ? "true" : "false")
     << ", \"port\": " << Net.Port
     << ", \"connections\": " << Net.Connections
     << ", \"accepted\": " << Net.Accepted << ", \"closed\": " << Net.Closed
     << ", \"protocol_errors\": " << Net.ProtocolErrors
     << ", \"frames_in\": " << Net.FramesIn
     << ", \"frames_out\": " << Net.FramesOut
     << ", \"bytes_in\": " << Net.BytesIn
     << ", \"bytes_out\": " << Net.BytesOut
     << ", \"frames_injected\": " << Net.FramesInjected
     << ", \"delivery_frames\": " << Net.DeliveryFrames
     << ", \"replies_out\": " << Net.RepliesOut
     << ", \"reassembly_partial\": " << Net.ReassemblyPartial
     << ", \"backpressure_shed\": " << Net.BackpressureShed
     << ", \"ring_shed\": " << Net.RingShed
     << ", \"delivery_unroutable\": " << Net.DeliveryUnroutable
     << ", \"non_net_deliveries\": " << Net.NonNetDeliveries
     << ", \"barriers_acked\": " << Net.BarriersAcked
     << ", \"udp_datagrams\": " << Net.UdpDatagrams
     << ", \"client_delivers\": " << Net.ClientDelivers
     << ", \"client_replies\": " << Net.ClientReplies
     << ", \"rtt_samples\": " << Net.Rtt.Samples
     << ", \"rtt_p50\": " << Net.Rtt.P50Sec
     << ", \"rtt_p99\": " << Net.Rtt.P99Sec
     << ", \"rtt_max\": " << Net.Rtt.MaxSec << "}"
     << ", \"obs_trace_recorded\": " << TraceRecorded
     << ", \"obs_trace_dropped\": " << TraceDropped
     << ", \"trace_entries\": " << Trace.size() << ", \"shard_detail\": [";
  for (size_t I = 0; I != ShardDetail.size(); ++I) {
    const ShardReport &D = ShardDetail[I];
    OS << (I ? ", " : "") << "{\"shard\": " << I
       << ", \"switches\": " << D.Switches
       << ", \"processed\": " << D.Processed
       << ", \"queue_high_water\": " << D.QueueHighWater
       << ", \"dropped\": " << D.Dropped
       << ", \"transitions\": " << D.Transitions
       << ", \"shed\": " << D.Shed << "}";
  }
  OS << "], \"consistency\": ";
  if (!Checked) {
    OS << "{\"checked\": false}";
  } else {
    OS << "{\"checked\": true, \"correct\": "
       << (Consistency.Correct ? "true" : "false");
    if (!Consistency.Correct)
      OS << ", \"reason\": \"" << jsonEscape(Consistency.Reason) << "\"";
    OS << "}";
  }
  OS << ", \"streaming_check\": ";
  if (!StreamCheck.Enabled) {
    OS << "{\"enabled\": false}";
  } else {
    const consistency::StreamResult &SR = StreamCheck.Result;
    OS << "{\"enabled\": true, \"verdict\": \""
       << consistency::streamVerdictName(SR.Verdict) << "\""
       << ", \"reason\": \"" << jsonEscape(SR.Reason) << "\""
       << ", \"window\": " << StreamCheck.Window
       << ", \"entries_ingested\": " << SR.Stats.EntriesIngested
       << ", \"entries_checked\": " << SR.Stats.EntriesChecked
       << ", \"trees_retired\": " << SR.Stats.TreesRetired
       << ", \"chains_retired\": " << SR.Stats.ChainsRetired
       << ", \"events_observed\": " << SR.Stats.EventsObserved
       << ", \"peak_window\": " << SR.Stats.PeakWindow
       << ", \"peak_resident_bytes\": " << SR.Stats.PeakResidentBytes
       << ", \"stream_shed\": " << StreamCheck.StreamShed
       << ", \"differential_ran\": "
       << (StreamCheck.DifferentialRan ? "true" : "false")
       << ", \"differential_matched\": "
       << (StreamCheck.DifferentialMatched ? "true" : "false") << "}";
  }
  OS << "}";
  return OS.str();
}
