//===- api/StreamCollect.cpp - Live trace collector ------------------------===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//

#include "api/StreamCollect.h"

#include <algorithm>
#include <chrono>
#include <cstdint>

using namespace eventnet;
using namespace eventnet::api::detail;

StreamCollector::StreamCollector(engine::Engine &E, const nes::Nes &N,
                                 const topo::Topology &Topo,
                                 consistency::StreamOptions SO, bool Tee)
    : E(E), Chk(N, Topo, SO), Tee(Tee) {
  Th = std::thread([this] { loop(); });
}

StreamCollector::~StreamCollector() {
  Stop.store(true, std::memory_order_release);
  if (Th.joinable())
    Th.join();
}

void StreamCollector::feed(std::vector<engine::Engine::StreamItem> &Buf) {
  for (const engine::Engine::StreamItem &It : Buf) {
    if (It.K == engine::Engine::StreamItem::Excuse)
      Chk.feedExcuse(It.Ticket);
    else
      Chk.feedEntry(It.Ticket, It.Parent, It.Lp, It.IsDelivery, It.IsDup);
  }
  if (Tee)
    Teed.insert(Teed.end(), std::make_move_iterator(Buf.begin()),
                std::make_move_iterator(Buf.end()));
}

void StreamCollector::loop() {
  std::vector<engine::Engine::StreamItem> Buf;
  bool SawGap = false;
  while (!Stop.load(std::memory_order_acquire)) {
    Buf.clear();
    uint64_t W = E.drainTraceStream(Buf);
    // The gap must be declared before feeding anything logged after it:
    // from the first shed item on, the checker may only degrade, never
    // report a violation a truncated chain could have faked.
    if (!SawGap && E.streamLagShed() > 0) {
      SawGap = true;
      Chk.noteGap("stream_backlog");
    }
    feed(Buf);
    if (W > 0)
      Chk.advance(W - 1);
    if (Buf.empty())
      std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

consistency::StreamResult
StreamCollector::finalize(uint64_t TraceDropped) {
  Stop.store(true, std::memory_order_release);
  if (Th.joinable())
    Th.join();
  // The workers have exited (watermarks at their terminal value); one
  // last drain picks up whatever the loop's final iteration raced past.
  std::vector<engine::Engine::StreamItem> Buf;
  E.drainTraceStream(Buf);
  feed(Buf);
  if (TraceDropped > 0)
    Chk.noteCause("trace_dropped");
  // Entries the shards shed because this collector lagged behind the
  // data path (EngineConfig::StreamBufCap): the checker saw a gappy
  // trace, so a clean pass would be a lie — and finish()'s strict
  // retirement must not mistake shed tails for violations (noteGap, not
  // just noteCause, before finishing).
  LagShed = E.streamLagShed();
  if (LagShed > 0)
    Chk.noteGap("stream_backlog");
  return Chk.finish();
}

consistency::StreamOptions api::detail::streamOptions(const RunOptions &O) {
  consistency::StreamOptions SO;
  SO.Window = std::max<size_t>(1, O.CheckWindow);
  // Quiet-horizon retirement must outlast fault-plan delays and deep
  // shard backlogs (ticket gaps), or healthy chains get cut.
  SO.QuietHorizon = std::max<uint64_t>(8192, SO.Window / 2);
  return SO;
}

void api::detail::configureTrace(engine::EngineConfig &Cfg,
                                 const RunOptions &O) {
  Cfg.StreamTrace = O.StreamingCheck;
  Cfg.RecordTrace = !O.StreamingCheck;
  if (O.StreamingCheck && O.CheckDifferential)
    Cfg.StreamBufCap = SIZE_MAX;
}

namespace {

api::LatencyReport toReport(const engine::LatencyDigest &D) {
  return {D.Samples, D.MeanSec, D.P50Sec, D.P90Sec, D.P99Sec, D.MaxSec};
}

} // namespace

void api::detail::fillEngineReport(RunReport &R, engine::Engine &E,
                                   StreamCollector *Col, const RunOptions &O,
                                   bool FaultsEnabled) {
  engine::Stats S = E.stats();
  R.Shards = O.Shards;
  R.Classifier = S.ClassifierPath;
  R.Batch = S.BatchSize;
  R.Partition = engine::partitionStrategyName(S.Partition.Strategy);
  R.EdgeCut = S.Partition.CutWeight;
  R.EdgeTotal = S.Partition.TotalWeight;
  R.Overload = O.Overload;
  for (const engine::ShardStats &SS : S.Shards)
    R.ShardDetail.push_back({SS.PacketsProcessed, SS.QueueHighWater,
                             SS.Dropped, SS.Transitions, SS.Switches,
                             SS.Shed});
  R.PacketsInjected = S.PacketsInjected;
  R.PacketsDelivered = S.PacketsDelivered;
  R.PacketsDropped = S.PacketsDropped;
  R.SwitchHops = S.PacketsProcessed;
  R.EventsDetected = S.EventsDetected;
  R.ConfigTransitions = S.ConfigTransitions;
  R.ElapsedSec = S.ElapsedSec;
  R.UpdateLatency = toReport(S.Transition);
  R.QueueDwell = toReport(S.QueueDwell);
  R.BatchOccupancy = toReport(S.BatchOccupancy);
  R.TraceRecorded = S.TraceRecorded;
  R.TraceDropped = S.TraceDropped;
  faults::FaultLedger L = E.takeFaultLedger();
  if (FaultsEnabled) {
    R.Faults.Enabled = true;
    R.Faults.Drops = S.FaultDrops;
    R.Faults.Dups = S.FaultDups;
    R.Faults.Delays = S.FaultDelays;
    R.Faults.Shed = S.FaultSheds;
    R.Faults.Stalls = S.FaultStalls;
    R.Faults.Storms = S.FaultStorms;
    R.Faults.DupDelivered = S.DupDelivered;
    R.Faults.DupDropped = S.DupDropped;
    R.Faults.LedgerEntries = L.Records.size();
    R.Faults.Ledger = L.canonical();
  }
  R.ObsTrace = E.takeObsTrace();
  // The excusal context rides along even without a fault plan: a shed
  // overload policy retires chains under plain pressure too.
  if (!Col) {
    R.Trace = E.takeTrace();
    R.FaultCtx.ExcusedEntries = std::move(L.ExcusedEntries);
    return;
  }
  R.StreamCheck.Enabled = true;
  R.StreamCheck.Window = streamOptions(O).Window;
  R.StreamCheck.Result = Col->finalize(R.TraceDropped);
  R.StreamCheck.StreamShed = Col->lagShed();
  engine::Engine::BatchTrace B = Col->teedTrace();
  R.Trace = std::move(B.Trace);
  R.FaultCtx.ExcusedEntries = std::move(B.Excused);
}
