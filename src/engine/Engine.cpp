//===- engine/Engine.cpp - Sharded concurrent data-plane engine -----------===//

#include "engine/Engine.h"

#include "sim/Wire.h"

#include <algorithm>
#include <cassert>

using namespace eventnet;
using namespace eventnet::engine;
using eventnet::netkat::Packet;

namespace {

/// Histogram snapshot -> report digest. \p Scale converts the recorded
/// unit into the digest's (1e-9 for nanosecond histograms, 1 for raw
/// counts like batch occupancy).
LatencyDigest digestFrom(const obs::HistogramSnapshot &H, double Scale) {
  LatencyDigest D;
  D.Samples = H.TotalCount;
  D.MeanSec = H.mean() * Scale;
  D.P50Sec = static_cast<double>(H.percentile(0.50)) * Scale;
  D.P90Sec = static_cast<double>(H.percentile(0.90)) * Scale;
  D.P99Sec = static_cast<double>(H.percentile(0.99)) * Scale;
  D.MaxSec = static_cast<double>(H.Max) * Scale;
  return D;
}

} // namespace

const char *engine::overloadPolicyName(OverloadPolicy P) {
  switch (P) {
  case OverloadPolicy::Block:
    return "block";
  case OverloadPolicy::ShedOldest:
    return "shed-oldest";
  case OverloadPolicy::ShedNewest:
    return "shed-newest";
  }
  return "?";
}

std::optional<OverloadPolicy>
engine::parseOverloadPolicy(const std::string &Name) {
  if (Name == "block")
    return OverloadPolicy::Block;
  if (Name == "shed-oldest")
    return OverloadPolicy::ShedOldest;
  if (Name == "shed-newest")
    return OverloadPolicy::ShedNewest;
  return std::nullopt;
}

Engine::Engine(const nes::Nes &N, const topo::Topology &Topo,
               EngineConfig Cfg)
    : N(N), Topo(Topo), C(Cfg), Idx(Topo),
      Part(partitionSwitches(Idx, std::max(1u, Cfg.NumShards), Cfg.Partition,
                             Cfg.ImbalanceBound)),
      Compiled(N, Idx), Epochs(8) {
  if (C.NumShards == 0)
    C.NumShards = 1;
  // One trace channel, one consumer: either the engine keeps the whole
  // stream (RecordTrace) or an external collector drains it.
  assert(!(C.RecordTrace && C.StreamTrace) &&
         "RecordTrace and StreamTrace are exclusive");
  if (C.StreamTrace)
    C.RecordTrace = false;
  if (C.BatchSize == 0)
    C.BatchSize = 1;
  if (C.Faults && C.Faults->plan().QueueCapacityClamp)
    C.QueueCapacity = std::min(
        C.QueueCapacity,
        static_cast<size_t>(C.Faults->plan().QueueCapacityClamp));

  Slots = std::make_unique<SwitchSlot[]>(Idx.numSwitches());
  for (uint32_t D = 0; D != Idx.numSwitches(); ++D) {
    SwitchSlot &Sl = Slots[D];
    Sl.Id = Idx.idOf(D);
    Sl.Shard = Part.ShardOf[D];
    Sl.Tag = N.emptySet();
    Sl.E = DenseBitSet();
    Sl.Published.store(new SwitchView{Sl.Tag, Sl.E, 0});
  }

  for (unsigned I = 0; I != C.NumShards; ++I) {
    auto S = std::make_unique<Shard>();
    S->Index = I;
    S->Q = std::make_unique<BoundedMpscQueue<Msg>>(C.QueueCapacity);
    S->Batch.resize(C.BatchSize);
    S->OutBufs.resize(C.NumShards);
    // Pre-size the recycled pools to their steady-state working set (a
    // full dequeue batch can fill any one egress buffer, and the
    // classifier emits at most a batch of outputs per packet chain), so
    // the hot loop's freelists never grow after construction.
    for (MsgBuf &B : S->OutBufs)
      B.reserve(C.BatchSize);
    S->SelfProc.reserve(C.BatchSize);
    S->ClsOut.reserve(C.BatchSize);
    // Observability state is allocated only when asked for: a disabled
    // run carries null pointers and the recording sites reduce to one
    // predictable branch.
    if (C.TraceEventCapacity)
      S->ObsRing = std::make_unique<obs::TraceRing>(C.TraceEventCapacity);
    if (C.LatencyHistograms)
      S->Lat = std::make_unique<ShardLatency>();
    if (C.Faults) {
      if (const faults::StallRule *R = C.Faults->stallFor(I)) {
        S->StallEvery = R->EveryBatches;
        S->StallUs = R->StallUs;
      }
    }
    Shards.push_back(std::move(S));
  }
  CtrlQ = std::make_unique<BoundedMpscQueue<uint32_t>>(4096);

  // Per-switch fault gate, resolved once: the hot loop's hook is one
  // vector<bool> test instead of a rule scan.
  FaultArmed.assign(Idx.numSwitches(), false);
  if (C.Faults && C.Faults->hasLinkRules())
    for (uint32_t D = 0; D != Idx.numSwitches(); ++D)
      FaultArmed[D] = C.Faults->armsSwitch(Idx.idOf(D));

  DetectNs.reserve(N.numEvents());
  for (unsigned E = 0; E != N.numEvents(); ++E)
    DetectNs.push_back(std::make_unique<std::atomic<int64_t>>(-1));

  if (C.FastUpdates)
    buildSubscriptions();

  // A sane clock base for stats() calls that precede run().
  StartNs.store(monotonicNs());

  // Intern the wire-format fields on this thread so workers never hit a
  // first-use interning path.
  sim::ipSrcField();
  sim::ipDstField();
  sim::kindField();
  sim::seqField();
  sim::probeField();
  sim::connField();
}

Engine::~Engine() {
  for (uint32_t D = 0; D != Idx.numSwitches(); ++D)
    delete Slots[D].Published.load();
}

void Engine::buildSubscriptions() {
  unsigned NE = N.numEvents();
  SubSwitches.assign(static_cast<size_t>(NE) * C.NumShards, {});
  SubShards.assign(NE, {});
  OwnedDense.assign(C.NumShards, {});
  for (uint32_t D = 0; D != Idx.numSwitches(); ++D)
    OwnedDense[Slots[D].Shard].push_back(D);

  // Does event E's arrival matter to dense switch D? Two ways:
  //  - config dependence: adding E to some family set changes D's
  //    table, so learning E sooner means reconfiguring sooner;
  //  - detection relevance: E shares a family set with an event
  //    detectable at D, so D's register content (enables/con inputs of
  //    the SWITCH rule) can gate a future local detection.
  // The family and event counts are small (NESes compiled from programs
  // are tiny), so the quadratic sweep is construction noise.
  std::vector<char> Sub(Idx.numSwitches());
  for (unsigned E = 0; E != NE; ++E) {
    std::fill(Sub.begin(), Sub.end(), 0);
    for (nes::SetId S = 0; S != N.numSets(); ++S) {
      const DenseBitSet &Bits = N.setBits(S);
      if (Bits.test(E)) {
        // Detection relevance: every switch detecting a co-member.
        for (uint32_t D = 0; D != Idx.numSwitches(); ++D) {
          if (Sub[D])
            continue;
          for (nes::EventId F : Compiled.eventsAt(D))
            if (Bits.test(F)) {
              Sub[D] = 1;
              break;
            }
        }
        continue;
      }
      DenseBitSet With = Bits;
      With.set(E);
      auto S2 = N.setIndex(With);
      if (!S2)
        continue;
      const topo::Configuration &A = N.configOf(S);
      const topo::Configuration &B = N.configOf(*S2);
      for (uint32_t D = 0; D != Idx.numSwitches(); ++D)
        if (!Sub[D] && !(A.tableFor(Slots[D].Id) == B.tableFor(Slots[D].Id)))
          Sub[D] = 1;
    }
    for (uint32_t D = 0; D != Idx.numSwitches(); ++D)
      if (Sub[D])
        SubSwitches[static_cast<size_t>(E) * C.NumShards + Slots[D].Shard]
            .push_back(D);
    for (uint32_t S = 0; S != C.NumShards; ++S)
      if (!SubSwitches[static_cast<size_t>(E) * C.NumShards + S].empty())
        SubShards[E].push_back(S);
  }
}

//===----------------------------------------------------------------------===//
// Trace recording
//===----------------------------------------------------------------------===//

// A hop costs one StreamItem push; the tag rides in the padding after
// the two flags, so recording it did not grow the item.
static_assert(sizeof(Engine::StreamItem) ==
                  4 * sizeof(uint64_t) + sizeof(netkat::Packet),
              "StreamItem grew");

int64_t Engine::logEntry(Shard &S, const Packet &Lp, int64_t Parent,
                         bool IsDelivery, nes::SetId Tag) {
  if (!tracing())
    return -1;
  uint64_t Ticket = Tickets.fetch_add(1);
  S.StreamPending.push_back(
      {StreamItem::Entry, Ticket, Parent, Lp, IsDelivery, false, Tag});
  return static_cast<int64_t>(Ticket);
}

uint64_t Engine::drainTraceStream(std::vector<StreamItem> &Out) {
  // Watermarks first, buffers second: a shard flushes its pending items
  // *before* publishing a watermark, so every entry below the minimum
  // read here is already in some StreamBuf by the time we drain it —
  // the caller may commit up to W - 1 after this drain, never before.
  uint64_t W = UINT64_MAX;
  for (auto &S : Shards)
    W = std::min(W, S->StreamWatermark.load(std::memory_order_acquire));
  for (auto &S : Shards) {
    {
      std::lock_guard<std::mutex> Lock(S->StreamMu);
      Out.insert(Out.end(),
                 std::make_move_iterator(S->StreamBuf.begin()),
                 std::make_move_iterator(S->StreamBuf.end()));
      S->StreamBuf.clear();
    }
    {
      // Shed excusals are written by arbitrary producer threads under
      // the overflow lock; surface them as Excuse items.
      std::lock_guard<std::mutex> Lock(S->OverflowMu);
      for (int64_t T : S->ShedTickets)
        Out.push_back({StreamItem::Excuse, static_cast<uint64_t>(T), -1,
                       Packet(), false, false, 0});
      S->ShedTickets.clear();
    }
  }
  return W == UINT64_MAX ? 0 : W;
}

uint64_t Engine::streamLagShed() {
  uint64_t Shed = 0;
  for (auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->StreamMu);
    Shed += S->StreamLagShed;
  }
  return Shed;
}

uint64_t Engine::streamBacklog() {
  uint64_t Backlog = 0;
  for (auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->StreamMu);
    Backlog += S->StreamBuf.size();
  }
  return Backlog;
}

Engine::BatchTrace Engine::buildBatchTrace(std::vector<StreamItem> Items) {
  // Ticket order is a legal global interleaving: per-switch order is each
  // owner's processing order (a switch's entries all come from one
  // thread, ticketed in program order), and a parent's ticket precedes
  // its children's (children are ticketed after the parent's enqueue).
  auto Excuses = std::partition(
      Items.begin(), Items.end(),
      [](const StreamItem &It) { return It.K == StreamItem::Entry; });
  std::sort(Items.begin(), Excuses,
            [](const StreamItem &A, const StreamItem &B) {
              return A.Ticket < B.Ticket;
            });
  // Tickets -> trace indices by binary search over the sorted entries.
  auto IndexOf = [&](uint64_t Ticket) {
    auto It = std::lower_bound(Items.begin(), Excuses, Ticket,
                               [](const StreamItem &A, uint64_t T) {
                                 return A.Ticket < T;
                               });
    return It != Excuses && It->Ticket == Ticket
               ? static_cast<int>(It - Items.begin())
               : -1;
  };

  BatchTrace B;
  B.Tags.reserve(static_cast<size_t>(Excuses - Items.begin()));
  for (auto It = Items.begin(); It != Excuses; ++It) {
    consistency::TraceEntry E;
    E.Lp = std::move(It->Lp);
    E.IsDelivery = It->IsDelivery;
    if (It->Parent >= 0) {
      E.Parent = IndexOf(static_cast<uint64_t>(It->Parent));
      assert(E.Parent >= 0 && "parent missing from the stream");
    }
    B.Trace.append(std::move(E));
    B.Tags.push_back(It->Tag);
  }
  for (auto It = Excuses; It != Items.end(); ++It)
    if (int I = IndexOf(It->Ticket); I >= 0)
      B.Excused.push_back(I);
  std::sort(B.Excused.begin(), B.Excused.end());
  B.Excused.erase(std::unique(B.Excused.begin(), B.Excused.end()),
                  B.Excused.end());
  return B;
}

//===----------------------------------------------------------------------===//
// The data path (owner-thread only)
//===----------------------------------------------------------------------===//

void Engine::applyRegister(Shard &S, SwitchSlot &Sl, const DenseBitSet &NewE) {
  auto TagOpt = N.setIndex(NewE);
  assert(TagOpt && "switch register left the NES family (Lemma 3)");
  if (!TagOpt)
    return;

  // One monotonic clock for the whole update-latency measurement:
  // DetectNs and LearnNs are both raw monotonicNs(), so the Transition
  // digest is a pure difference on one time base.
  int64_t Now = monotonicNs();
  NewE.forEach([&](unsigned E) {
    if (!Sl.E.test(E)) {
      S.LearnNs.try_emplace({Sl.Id, static_cast<nes::EventId>(E)}, Now);
      obsRecord(S, obs::TraceKind::RegisterLearn,
                static_cast<uint32_t>(Sl.Id), E);
    }
  });

  Sl.E = NewE;
  Sl.Tag = *TagOpt;

  // The atomic transition: swap the published view, retire the old one.
  const SwitchView *Old = Sl.Published.load();
  Sl.Published.store(new SwitchView{Sl.Tag, Sl.E, Old->Version + 1});
  S.Retired.retire(Old, Epochs.retireEpoch());
  S.Transitions.add();
  obsRecord(S, obs::TraceKind::ConfigSwap, static_cast<uint32_t>(Sl.Id),
            static_cast<uint32_t>(Old->Version + 1));
}

void Engine::sendToShard(uint32_t Target, Msg &&M) {
  // Never block: a cycle of full bounded queues with blocking producers
  // (who are also the consumers) would deadlock. The ring is the
  // lock-free common case; what happens beyond it is the overload
  // policy's call (overflowMsg).
  Pending.fetch_add(1);
  if (C.LatencyHistograms)
    M.EnqNs = monotonicNs();
  Shard &Sh = *Shards[Target];
  if (M.K == Msg::CtrlDelta) {
    // Priority lane: a delta that queued behind a storm's worth of data
    // packets would defeat the fast pipeline, so it never enters the
    // ring at all — the owner drains this lane ahead of every batch.
    std::lock_guard<std::mutex> Lock(Sh.CtrlMu);
    Sh.CtrlLane.push_back(std::move(M));
    Sh.CtrlLaneSize.store(static_cast<uint32_t>(Sh.CtrlLane.size()),
                          std::memory_order_release);
    return;
  }
  if (Sh.Q->tryPush(std::move(M)))
    return;
  overflowMsg(Sh, std::move(M));
}

void Engine::shedLocked(Shard &Dst, Msg &M) {
  // The message is retired unprocessed. Its Pending share is released
  // and it is tallied as a (shed) drop, so delivered + dropped ==
  // injected still holds and the audit can tell policy loss from
  // silent loss. An unstarted injection is counted injected-and-dropped
  // for the same reason; its emission was never trace-logged, so the
  // checker sees nothing to excuse.
  Pending.fetch_sub(1);
  Dst.Shed.add();
  Dst.Dropped.add();
  Dropped.add();
  FaultSheds.add();
  if (M.K == Msg::PacketIn) {
    if (M.P.FromDup)
      DupDropped.add();
    // The hop's egress entry is now a chain leaf; excuse it.
    if (M.P.Parent >= 0)
      Dst.ShedTickets.push_back(M.P.Parent);
  } else if (M.K == Msg::Inject) {
    Injected.add();
  }
  obsRecord(Dst, obs::TraceKind::Shed, Dst.Index,
            static_cast<uint32_t>(M.K));
}

void Engine::overflowMsg(Shard &Dst, Msg &&M) {
  std::lock_guard<std::mutex> Lock(Dst.OverflowMu);
  if (C.Overload != OverloadPolicy::Block && !isCtrlMsg(M) &&
      Dst.Overflow.size() >= Dst.Q->capacity()) {
    // Backlog bound reached: shed a data-plane message. Control
    // messages are never shed (dropping a CTRLSEND would wedge event
    // propagation, not degrade it).
    if (C.Overload == OverloadPolicy::ShedNewest) {
      shedLocked(Dst, M);
      return;
    }
    for (auto It = Dst.Overflow.begin(); It != Dst.Overflow.end(); ++It) {
      if (isCtrlMsg(*It))
        continue;
      shedLocked(Dst, *It);
      Dst.Overflow.erase(It);
      break;
    }
    // If the whole backlog was control traffic (rare), admit anyway:
    // the bound is a degradation target, not a correctness invariant.
  }
  Dst.Overflow.push_back(std::move(M));
  // A spill means the ring is full: the true backlog is ring + overflow.
  Dst.QueueHighWater.raiseTo(Dst.Q->capacity() + Dst.Overflow.size());
}

void Engine::forwardOut(Shard &S, const EnginePacket &P, uint32_t AtDense,
                        const Packet &Out, const DenseBitSet &OutDigest) {
  // A table's actions rewrite pt (and header fields), never sw, so the
  // output sits at the switch we just processed — whose dense index the
  // caller already knows. Fall back to the hash only if a table ever
  // does rewrite sw.
  Location At = Out.loc();
  uint32_t D = At.Sw == Slots[AtDense].Id ? AtDense : Idx.denseOf(At.Sw);
  const Egress *Eg = Idx.egressAt(D, At.Pt);
  if (!Eg) {
    // Dangling port: discarded, no occurrence logged (as in the
    // simulator).
    Dropped.add();
    S.Dropped.add();
    if (P.FromDup)
      DupDropped.add();
    obsRecord(S, obs::TraceKind::Drop, static_cast<uint32_t>(At.Sw),
              /*reason: dangling port*/ 1);
    return;
  }

  if (Eg->IsHost) {
    logEntry(S, Out, P.Parent, /*IsDelivery=*/true, P.Tag);
    Delivered.add();
    if (P.FromDup)
      DupDelivered.add();
    HostId H = Eg->Host;
    if (C.RecordDeliveries)
      S.Delivered.push_back({H, Out});
    if (C.DeliverySink)
      C.DeliverySink(H, Out);

    // Host application: answer echo requests addressed to us.
    if (C.EchoReplies &&
        Out.getOr(sim::kindField(), -1) == sim::KindRequest &&
        Out.getOr(sim::ipDstField(), -1) == static_cast<Value>(H)) {
      Value Src = Out.getOr(sim::ipSrcField(), -1);
      if (Src >= 0) {
        uint64_t Seq = static_cast<uint64_t>(Out.getOr(sim::seqField(), 0));
        // The replying host sits at this switch, i.e. on this shard;
        // the reply rides the batched egress buffer like any output
        // (flushOut does the Pending accounting for the whole batch).
        Msg &R = S.OutBufs[Slots[D].Shard].next();
        R.K = Msg::Inject;
        R.From = H;
        R.Header = sim::makeWireHeader(H, static_cast<HostId>(Src),
                                       sim::KindReply, Seq);
        // The session tag rides the round trip: the reply must route
        // back to the connection that emitted the request.
        Value Conn = Out.getOr(sim::connField(), -1);
        if (Conn >= 0)
          R.Header.set(sim::connField(), Conn);
      }
    }
    return;
  }

  // Fault hook: switch-to-switch links are the lossy medium. The
  // verdict is a pure content hash (faults/Injector.h), so the same
  // packet at the same egress faults identically in every run.
  faults::Action FA = faults::Action::None;
  if (C.Faults && FaultArmed[D])
    FA = C.Faults->decide(At.Sw, At.Pt, Out);

  if (FA == faults::Action::Drop) {
    // The egress occurrence never happens: the chain ends at P.Parent,
    // which the ledger excuses for the checker.
    S.FaultRecs.push_back(
        faults::Injector::recordAt(faults::FaultKind::Drop, At.Sw, At.Pt, Out));
    if (P.Parent >= 0)
      S.StreamPending.push_back({StreamItem::Excuse,
                                 static_cast<uint64_t>(P.Parent), -1,
                                 Packet(), false, false, 0});
    Dropped.add();
    S.Dropped.add();
    FaultDrops.add();
    if (P.FromDup)
      DupDropped.add();
    obsRecord(S, obs::TraceKind::FaultDrop, static_cast<uint32_t>(At.Sw),
              At.Pt);
    return;
  }

  int64_t EgressTicket = logEntry(S, Out, P.Parent, false, P.Tag);
  uint32_t DstShard = Slots[Eg->DstDense].Shard;
  auto FillHop = [&](Msg &M, int64_t ParentTicket, bool FromDup) {
    M.K = Msg::PacketIn;
    M.P.Pkt = Out;
    M.P.Pkt.setLoc(Eg->Dst);
    M.P.Tag = P.Tag;
    M.P.Digest = OutDigest;
    M.P.Parent = ParentTicket;
    M.P.Dense = Eg->DstDense;
    M.P.IngressLogged = false;
    M.P.FromDup = FromDup;
  };

  if (FA == faults::Action::Delay) {
    // Hold the hop back for DelayPolls drain iterations instead of
    // buffering it: later traffic overtakes it (reordering). Its
    // Pending share is taken here because flushOut will never see it.
    Shard::DelayedMsg DM;
    DM.Target = DstShard;
    DM.ReleaseAt =
        S.DrainPolls + std::max(1u, C.Faults->plan().DelayPolls);
    FillHop(DM.M, EgressTicket, P.FromDup);
    Pending.fetch_add(1);
    S.Delayed.push_back(std::move(DM));
    S.FaultRecs.push_back(faults::Injector::recordAt(faults::FaultKind::Delay,
                                                     At.Sw, At.Pt, Out));
    FaultDelays.add();
    Forwarded.add();
    obsRecord(S, obs::TraceKind::FaultDelay, static_cast<uint32_t>(At.Sw),
              At.Pt);
    return;
  }

  // Build the hop into a recycled egress slot (copy-assignments reuse
  // the slot's heap capacity; nothing here allocates once warm).
  FillHop(S.OutBufs[DstShard].next(), EgressTicket, P.FromDup);
  Forwarded.add();

  if (FA == faults::Action::Dup) {
    // Second copy with its own egress entry (the trace stays a tree).
    // The copy is a packet like any other: it can trigger events, and
    // the checkers verify its subtree.
    int64_t DupTicket = logEntry(S, Out, P.Parent, false, P.Tag);
    if (DupTicket >= 0)
      S.StreamPending.back().IsDup = true; // the entry just logged
    FillHop(S.OutBufs[DstShard].next(), DupTicket, /*FromDup=*/true);
    S.FaultRecs.push_back(
        faults::Injector::recordAt(faults::FaultKind::Dup, At.Sw, At.Pt, Out));
    FaultDups.add();
    Forwarded.add();
    obsRecord(S, obs::TraceKind::FaultDup, static_cast<uint32_t>(At.Sw),
              At.Pt);
  }
}

void Engine::processPacket(Shard &S, EnginePacket &P) {
  uint32_t D = P.Dense;
  SwitchSlot &Sl = Slots[D];
  assert(Sl.Id == P.Pkt.sw() && "stale dense index on an in-flight packet");

  if (!P.IngressLogged) {
    P.Parent = logEntry(S, P.Pkt, P.Parent, false, P.Tag);
    P.IngressLogged = true;
  }
  obsRecord(S, obs::TraceKind::Hop, static_cast<uint32_t>(Sl.Id),
            static_cast<uint32_t>(P.Tag));

  // SWITCH rule: learn the digest, then greedily-consistent fresh events
  // (the same sharpening as runtime::Machine and sim::Simulation). The
  // working sets live in shard-owned scratch bitsets whose capacity
  // survives across packets — the hot loop builds no fresh DenseBitSets.
  //
  // Steady state (the throughput regime): the digest carries nothing the
  // register lacks, so Known is the register itself — a subset test
  // instead of a copy-and-union.
  bool DigestKnown = P.Digest.isSubsetOf(Sl.E);
  const DenseBitSet *KnownP = &Sl.E;
  if (!DigestKnown) {
    S.ScratchKnown = Sl.E;
    S.ScratchKnown |= P.Digest;
    KnownP = &S.ScratchKnown;
  }
  const DenseBitSet &Known = *KnownP;
  DenseBitSet &Fresh = S.ScratchFresh;
  Fresh.clear();
  for (nes::EventId E : Compiled.eventsAt(D)) {
    if (Known.test(E) || Fresh.test(E))
      continue;
    if (!N.event(E).matches(P.Pkt))
      continue;
    DenseBitSet &Ext = S.ScratchExt;
    Ext = Known;
    Ext |= Fresh;
    Ext.set(E);
    if (N.enables(Known, E) && N.con(Ext)) {
      Fresh.set(E);
      // First (and only) detection: the event's location is this switch.
      int64_t Expected = -1;
      DetectNs[E]->compare_exchange_strong(Expected, monotonicNs());
      obsRecord(S, obs::TraceKind::EventDetect, E,
                static_cast<uint32_t>(Sl.Id));
      Pending.fetch_add(1);
      // CtrlQ is sized far beyond the event count (each event is
      // detected once) and the controller always drains, so a plain
      // yield on the full path cannot deadlock.
      CtrlQ->pushBlocking(static_cast<uint32_t>(E));
      if (C.FastUpdates) {
        // Shard-local fast path: every subscribed switch this shard
        // owns transitions now, one function call after detection —
        // no queue hop, no controller wake on the critical path. Ext
        // (this detection's consistent extension: register + digest +
        // fresh events + E, all occurred) rides along as the causal
        // context for switches whose registers lack E's causes. The
        // wake comes second: notifying first can hand an oversubscribed
        // core to the controller ahead of the fan-out.
        fanOutLocal(S, E, D, S.ScratchExt);
        CtrlWake.notify();
      }
    }
  }

  // Forward with the *stamped* configuration (per-packet consistency).
  const MatchPipeline &Pipe = Compiled.pipe(P.Tag, D);

  // Merge from the *current* register, not the Known snapshot:
  // registers must only grow, whatever happened in between. In steady
  // state nothing was learned: the register stands and doubles as the
  // outgoing digest (P.Digest ⊆ E, so Digest | E == E) — no unions, no
  // transition check.
  const DenseBitSet *OutDigestP = &Sl.E;
  if (!DigestKnown || !Fresh.empty()) {
    DenseBitSet &NewE = S.ScratchNew;
    NewE = Sl.E;
    NewE |= Known;
    NewE |= Fresh;
    if (NewE != Sl.E)
      applyRegister(S, Sl, NewE);
    DenseBitSet &OutDigest = S.ScratchDigest;
    OutDigest = P.Digest;
    OutDigest |= NewE;
    OutDigestP = &OutDigest;
  }
  const DenseBitSet &OutDigest = *OutDigestP;

  S.Processed.add();
  if (C.UseClassifier) {
    // Fast path: one contiguous classifier program, outputs emitted into
    // the shard's recycled packet buffer — allocation-free once warm.
    S.ClsOut.reset();
    Pipe.applyClassifier(P.Pkt, S.ClsOut);
    if (S.ClsOut.size() == 0) {
      Dropped.add();
      S.Dropped.add();
      if (P.FromDup)
        DupDropped.add();
      obsRecord(S, obs::TraceKind::Drop, static_cast<uint32_t>(Sl.Id),
                /*reason: table miss / drop rule*/ 0);
      return;
    }
    for (size_t I = 0; I != S.ClsOut.size(); ++I)
      forwardOut(S, P, D, S.ClsOut[I], OutDigest);
    return;
  }

  // Oracle path: the flattened-FDD walk (kept for differential testing;
  // allocates its output packets).
  std::vector<Packet> Outs = std::move(S.Outs);
  Outs.clear();
  Pipe.apply(P.Pkt, Outs);
  if (Outs.empty()) {
    Dropped.add();
    S.Dropped.add();
    if (P.FromDup)
      DupDropped.add();
    obsRecord(S, obs::TraceKind::Drop, static_cast<uint32_t>(Sl.Id),
              /*reason: table miss / drop rule*/ 0);
    S.Outs = std::move(Outs);
    return;
  }
  for (Packet &Out : Outs)
    forwardOut(S, P, D, Out, OutDigest);
  S.Outs = std::move(Outs); // return the capacity for reuse
}

void Engine::mergeEventInto(Shard &S, uint32_t Dense, unsigned E,
                            const DenseBitSet &Ctx) {
  SwitchSlot &Sl = Slots[Dense];
  if (Sl.E.test(E))
    return;
  DenseBitSet &NewE = S.ScratchFan;
  NewE = Sl.E;
  NewE.set(E);
  if (!N.setIndex(NewE)) {
    // The single-event union left the family: this switch has not yet
    // heard one of E's *causes* (detection checked enables() against the
    // detector's knowledge, not this register). Merge the sender's
    // context instead — a set of occurred events containing E's enabling
    // chain, so this is the same union a gossip digest carrying that
    // context would have applied.
    NewE |= Ctx;
  }
  applyRegister(S, Sl, NewE);
}

void Engine::fanOutLocal(Shard &S, unsigned E, uint32_t DetectDense,
                         const DenseBitSet &Ctx) {
  const auto &Subs =
      SubSwitches[static_cast<size_t>(E) * C.NumShards + S.Index];
  for (uint32_t D : Subs) {
    if (D == DetectDense)
      continue; // the detector merges via its own Fresh set
    if (Slots[D].E.test(E))
      continue;
    mergeEventInto(S, D, E, Ctx);
    S.FastLearns.add();
  }
}

void Engine::handleInject(Shard &S, HostId From, Packet Header) {
  Location At = Topo.hostLoc(From);
  uint32_t D = Idx.denseOf(At.Sw);
  SwitchSlot &Sl = Slots[D];

  EnginePacket P;
  P.Pkt = std::move(Header);
  P.Pkt.setLoc(At);
  P.Dense = D;
  // IN rule: stamp the ingress switch's current tag. The emission is
  // logged now, at stamping time, so the trace's per-switch order places
  // it against the register state it observed.
  P.Tag = Sl.Tag;
  P.Parent = logEntry(S, P.Pkt, -1, false, P.Tag);
  P.IngressLogged = true;
  Injected.add();
  obsRecord(S, obs::TraceKind::Inject, static_cast<uint32_t>(From),
            static_cast<uint32_t>(At.Sw));
  processPacket(S, P);
}

//===----------------------------------------------------------------------===//
// Threads
//===----------------------------------------------------------------------===//

void Engine::processMsg(Shard &S, Msg &M) {
  switch (M.K) {
  case Msg::PacketIn:
    processPacket(S, M.P);
    break;
  case Msg::Inject:
    handleInject(S, M.From, std::move(M.Header));
    break;
  case Msg::CtrlMerge:
    // CTRLSEND: merge the controller's set into every owned register.
    for (uint32_t D = 0; D != Idx.numSwitches(); ++D) {
      SwitchSlot &Sl = Slots[D];
      if (&S != Shards[Sl.Shard].get())
        continue;
      DenseBitSet NewE = Sl.E | M.Merge;
      if (NewE != Sl.E)
        applyRegister(S, Sl, NewE);
    }
    break;
  case Msg::CtrlDelta:
    // CTRLSEND, delta form: one event id, merged as a single-event
    // union in the common case; M.Merge (the controller's occurred set)
    // is the causal fallback for registers that lack the event's
    // enabling chain. Under explicit broadcast every owned register
    // learns it (the historical contract); otherwise only the
    // subscribed switches do — the rest would not change their table or
    // detection behavior, so routing past them only removes queue
    // traffic.
    if (C.CtrlBroadcast) {
      for (uint32_t D : OwnedDense[S.Index])
        mergeEventInto(S, D, M.Event, M.Merge);
    } else {
      const auto &Subs =
          SubSwitches[static_cast<size_t>(M.Event) * C.NumShards + S.Index];
      for (uint32_t D : Subs)
        mergeEventInto(S, D, M.Event, M.Merge);
    }
    break;
  }
  // Pending accounting happens per batch (drainBatch), not per message.
}

void Engine::prefetchMsg(const Msg &M) const {
  if (M.K != Msg::PacketIn)
    return;
  // Touch the next packet's classifier program (its first op) while the
  // current one executes — the arena line is the miss worth hiding.
  Compiled.pipe(M.P.Tag, M.P.Dense).classifier().prefetchRoot();
}

void Engine::pushBatchToShard(uint32_t Target, Msg *Msgs, size_t N) {
  // One tryPushBatch per retry (a single tail CAS covers the whole
  // claimed prefix); leftovers of a full ring go to the overflow deque —
  // producers never block. The caller has already added the messages to
  // Pending.
  if (C.LatencyHistograms) {
    // One clock read covers the whole batch: dwell is measured from the
    // hand-off point, and the batch is handed off at once.
    int64_t Now = monotonicNs();
    for (size_t I = 0; I != N; ++I)
      Msgs[I].EnqNs = Now;
  }
  Shard &Dst = *Shards[Target];
  size_t Done = 0;
  while (Done != N) {
    size_t Pushed = Dst.Q->tryPushBatch(Msgs + Done, N - Done);
    if (Pushed == 0)
      break;
    Done += Pushed;
  }
  if (Done != N && C.Overload == OverloadPolicy::Block) {
    // Bounded spin -> yield -> backoff retry before spilling: the
    // consumer usually frees cells quickly, and a short wait keeps the
    // backlog on the lock-free ring instead of the mutexed deque. The
    // bound matters — an unbounded wait on a cycle of full rings whose
    // owners are all producing would deadlock.
    uint32_t SleepUs = 1;
    for (unsigned Attempt = 1; Done != N && Attempt <= 320; ++Attempt) {
      if (Attempt > 256) {
        std::this_thread::sleep_for(std::chrono::microseconds(SleepUs));
        SleepUs = std::min(SleepUs * 2, 64u);
      } else if (Attempt > 64) {
        std::this_thread::yield();
      }
      Done += Dst.Q->tryPushBatch(Msgs + Done, N - Done);
    }
  }
  for (; Done != N; ++Done) {
    // Copy out of the caller's recycled slot; the overload policy
    // decides the message's fate.
    Msg Spill = Msgs[Done];
    overflowMsg(Dst, std::move(Spill));
  }
}

void Engine::flushOut(Shard &S) {
  // Publish the batch's buffered egress, one batch push per target ring.
  //
  // One Pending increment covers every buffered message, and it happens
  // before any of them becomes visible — consumers can only drive
  // Pending through zero after *all* this batch's outputs are counted.
  // OutBufs[Index] is always empty here (drained in place by
  // drainBatch's self-delivery loop, which never touches Pending).
  uint64_t Buffered = 0;
  for (const MsgBuf &B : S.OutBufs)
    Buffered += B.size();
  if (Buffered)
    Pending.fetch_add(static_cast<int64_t>(Buffered));
  for (uint32_t T = 0; T != S.OutBufs.size(); ++T) {
    MsgBuf &B = S.OutBufs[T];
    if (B.size() == 0)
      continue;
    obsRecord(S, obs::TraceKind::CrossShardPush, T,
              static_cast<uint32_t>(B.size()));
    pushBatchToShard(T, B.data(), B.size());
    B.reset();
  }
}

void Engine::drainSelf(Shard &S) {
  // Self-delivery: hops that stay on this shard never touch the MPSC
  // ring (no cell copies, no queue atomics, no Pending churn) — they
  // are drained in place until every chain ends or leaves the shard.
  MsgBuf &Self = S.OutBufs[S.Index];
  while (Self.size() != 0) {
    std::swap(S.SelfProc, Self);
    for (size_t I = 0; I != S.SelfProc.size(); ++I) {
      if (I + 1 != S.SelfProc.size())
        prefetchMsg(S.SelfProc[I + 1]);
      processMsg(S, S.SelfProc[I]);
    }
    S.SelfProc.reset();
  }
}

void Engine::releaseDelayed(Shard &S) {
  // DelayPolls is one constant per plan, so the stash is ordered by
  // ReleaseAt and the due prefix sits at the front. Releases can stash
  // new delayed hops (push_back with a strictly later deadline), which
  // the loop condition leaves alone.
  while (!S.Delayed.empty() && S.Delayed.front().ReleaseAt <= S.DrainPolls) {
    Shard::DelayedMsg DM = std::move(S.Delayed.front());
    S.Delayed.pop_front();
    if (DM.Target != S.Index) {
      // Pending was counted at stash time; hand the message over.
      pushBatchToShard(DM.Target, &DM.M, 1);
      continue;
    }
    // A held intra-shard hop: process in place. Outputs are counted
    // into Pending (flushOut) before this message's own share retires,
    // preserving the quiescence invariant.
    processMsg(S, DM.M);
    drainSelf(S);
    flushOut(S);
    Pending.fetch_sub(1);
  }
}

size_t Engine::drainCtrlLane(Shard &S) {
  // Move the lane out under the lock, merge outside it (the merges do
  // RCU publication work; the controller must never wait on that).
  std::deque<Msg> Lane;
  {
    std::lock_guard<std::mutex> Lock(S.CtrlMu);
    Lane.swap(S.CtrlLane);
    S.CtrlLaneSize.store(0, std::memory_order_relaxed);
  }
  for (Msg &M : Lane) {
    processMsg(S, M);
    Pending.fetch_sub(1);
  }
  return Lane.size();
}

size_t Engine::drainBatch(Shard &S) {
  // Control deltas jump the data backlog: drain the priority lane
  // before touching the ring. One relaxed load when the lane is empty.
  size_t Ctrl = S.CtrlLaneSize.load(std::memory_order_acquire) != 0
                    ? drainCtrlLane(S)
                    : 0;

  if (C.Faults) {
    // The poll counter ticks on every call — including empty ones — so
    // a delayed message still releases when it is the only pending work
    // (the quiescence barrier would otherwise never clear).
    ++S.DrainPolls;
    if (!S.Delayed.empty())
      releaseDelayed(S);
  }

  size_t N = S.Q->tryPopBatch(S.Batch.data(), C.BatchSize);
  if (N == 0) {
    // Ring empty: check the overflow (rare; only populated while the
    // ring was full).
    std::unique_lock<std::mutex> Lock(S.OverflowMu);
    size_t Backlog = S.Overflow.size();
    size_t Max = std::min<size_t>(C.BatchSize, Backlog);
    for (; N != Max; ++N) {
      S.Batch[N] = std::move(S.Overflow.front());
      S.Overflow.pop_front();
    }
    Lock.unlock();
    if (N == 0)
      return Ctrl;
    S.QueueHighWater.raiseTo(Backlog + S.Q->sizeApprox());
  }

  // Queue-depth high-water mark: what was still pending after the pop,
  // plus what we just claimed.
  S.QueueHighWater.raiseTo(S.Q->sizeApprox() + N);

  if (ShardLatency *L = S.Lat.get()) {
    // One clock read per batch; each message's dwell is measured against
    // it. Self-delivered hops never ride the ring, so every message here
    // carries a stamp.
    int64_t Now = monotonicNs();
    for (size_t I = 0; I != N; ++I) {
      int64_t Dwell = Now - S.Batch[I].EnqNs;
      L->DwellNs.record(Dwell > 0 ? static_cast<uint64_t>(Dwell) : 0);
    }
    L->Occupancy.record(N);
  }

  for (size_t I = 0; I != N; ++I) {
    if (I + 1 != N)
      prefetchMsg(S.Batch[I + 1]);
    processMsg(S, S.Batch[I]);
  }

  // The inputs' Pending share (subtracted below) keeps the quiescence
  // count positive for the whole self-delivery drain.
  drainSelf(S);

  // Outputs are counted into Pending (flushOut) before the inputs are
  // retired, so Pending never dips to zero with work still in flight.
  flushOut(S);
  Pending.fetch_sub(static_cast<int64_t>(N));

  if (S.StallEvery && ++S.NonEmptyBatches % S.StallEvery == 0) {
    // Fault-plan stall: the worker goes dark for StallUs while its ring
    // keeps filling — backpressure for the overload policy to absorb.
    S.Stalls.add();
    FaultStalls.add();
    obsRecord(S, obs::TraceKind::FaultStall, S.Index, S.StallUs);
    std::this_thread::sleep_for(std::chrono::microseconds(S.StallUs));
  }
  return N + Ctrl;
}

void Engine::workerLoop(unsigned ShardIdx) {
  Shard &S = *Shards[ShardIdx];
  uint64_t Spins = 0;
  uint64_t SinceReclaim = 0;
  unsigned SleepUs = 1;
  // Streaming sink: publish this iteration's trace entries, then promise
  // a watermark. The order is load-bearing — the flush precedes the
  // store with no logging in between, and any future logEntry on this
  // thread draws a ticket >= the stored value, so "no entry below the
  // watermark is still unpublished by this shard" holds by construction.
  auto FlushStream = [&] {
    if (C.RecordTrace) {
      // A recording engine is its own collector and keeps everything;
      // this is its one flush, at exit.
      std::lock_guard<std::mutex> Lock(S.StreamMu);
      S.StreamBuf.swap(S.StreamPending);
    } else if (!S.StreamPending.empty()) {
      std::lock_guard<std::mutex> Lock(S.StreamMu);
      // Bounded hand-off: a lagging collector must cost shed entries
      // (counted, verdict-degrading), never memory that grows with the
      // horizon or a data path blocked on verification. The watermark
      // below still advances over shed tickets — the checker prunes
      // their orphaned subtrees and reports inconclusive.
      size_t Room = S.StreamBuf.size() < C.StreamBufCap
                        ? C.StreamBufCap - S.StreamBuf.size()
                        : 0;
      size_t Take = std::min(Room, S.StreamPending.size());
      S.StreamBuf.insert(
          S.StreamBuf.end(), std::make_move_iterator(S.StreamPending.begin()),
          std::make_move_iterator(S.StreamPending.begin() +
                                  static_cast<ptrdiff_t>(Take)));
      S.StreamLagShed += S.StreamPending.size() - Take;
      S.StreamPending.clear();
    }
    uint64_t T = Tickets.load(std::memory_order_relaxed);
    if (T != S.StreamWatermark.load(std::memory_order_relaxed))
      S.StreamWatermark.store(T, std::memory_order_release);
  };
  while (true) {
    if (C.StreamTrace)
      FlushStream();
    size_t N = drainBatch(S);
    if (N != 0) {
      Spins = 0;
      SleepUs = 1;
      SinceReclaim += N;
      if (SinceReclaim >= 1024) {
        SinceReclaim = 0;
        S.Retired.tryReclaim(Epochs.minActiveEpoch());
      }
      continue;
    }
    if (StopFlag.load())
      break;
    // Adaptive idle backoff: spin (cheap, catches back-to-back bursts),
    // then yield (lets co-scheduled shards run), then sleep in doubling
    // steps up to the configured cap — an underloaded shard under a good
    // partition spends its life here instead of hammering the queue's
    // cache lines. Any drained work resets to the spin stage.
    ++Spins;
    if (Spins <= 64)
      continue;
    if (Spins <= 256 || C.IdleSleepUs == 0) {
      std::this_thread::yield();
      continue;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(SleepUs));
    S.IdleSleeps.add();
    SleepUs = std::min(SleepUs * 2, C.IdleSleepUs);
  }
  if (tracing()) {
    // This shard will never log again: flush the tail and lift the
    // shard's watermark out of every future min.
    FlushStream();
    S.StreamWatermark.store(UINT64_MAX, std::memory_order_release);
  }
}

void Engine::controllerLoop() {
  uint64_t Spins = 0;
  unsigned SleepUs = 1;
  while (true) {
    uint32_t E;
    if (CtrlQ->tryPop(E)) {
      Spins = 0;
      SleepUs = 1;
      // CTRLRECV: fold the event into R once.
      if (!Occurred.test(E)) {
        Occurred.set(E);
        Events.add();
        if (C.FastUpdates) {
          // CTRLSEND, delta form: one event id per shard that hosts a
          // subscriber (or per shard, under explicit broadcast) instead
          // of O(NumShards) full-bitset copies — independent concurrent
          // updates pipeline instead of serializing on set merges.
          auto SendDelta = [&](uint32_t I) {
            Msg M;
            M.K = Msg::CtrlDelta;
            M.Event = E;
            // Occurred rides along as the causal-fallback context: a
            // register missing one of E's causes merges the full set
            // (exactly what the legacy CtrlMerge would have applied)
            // instead of leaving the NES family.
            M.Merge = Occurred;
            sendToShard(I, std::move(M));
            CtrlDeltas.add();
          };
          if (C.CtrlBroadcast)
            for (uint32_t I = 0; I != C.NumShards; ++I)
              SendDelta(I);
          else
            for (uint32_t I : SubShards[E])
              SendDelta(I);
        } else if (C.CtrlBroadcast)
          for (uint32_t I = 0; I != C.NumShards; ++I) {
            Msg M;
            M.K = Msg::CtrlMerge;
            M.Merge = Occurred;
            sendToShard(I, std::move(M));
          }
        if (C.Faults && C.Faults->plan().CtrlStormRepeat) {
          // Controller event storm: re-broadcast the merged set to every
          // shard CtrlStormRepeat extra times. Semantically idempotent
          // (registers only grow), so the storm stresses the queues and
          // the overload policy without changing the reachable configs.
          uint32_t Reps = C.Faults->plan().CtrlStormRepeat;
          for (uint32_t R = 0; R != Reps; ++R)
            for (uint32_t I = 0; I != C.NumShards; ++I) {
              Msg M;
              M.K = Msg::CtrlMerge;
              M.Merge = Occurred;
              sendToShard(I, std::move(M));
            }
          FaultStorms.add(static_cast<uint64_t>(Reps) * C.NumShards);
          faults::FaultRecord SR;
          SR.K = faults::FaultKind::Storm;
          SR.Sw = static_cast<int64_t>(E);
          SR.Pt = static_cast<int64_t>(Reps);
          StormRecs.push_back(SR);
          obsRecord(*Shards[0], obs::TraceKind::CtrlStorm, E, Reps);
        }
      }
      Pending.fetch_sub(1);
      continue;
    }
    if (StopFlag.load())
      break;
    if (C.FastUpdates) {
      // Event-driven wake: block until a worker notifies (it does so
      // right after every CtrlQ push), then re-drain. No backoff floor
      // under propagation latency; the timeout is only a shutdown
      // safety net (finish() also notifies after raising StopFlag).
      CtrlWake.wait(/*TimeoutUs=*/50000);
      continue;
    }
    // Legacy idle backoff, same as the workers: events are rare, so the
    // controller is the most persistently idle thread of all. The sleep
    // cap is also a floor on event propagation latency — the reason the
    // FastUpdates path above exists.
    ++Spins;
    if (Spins <= 64)
      continue;
    if (Spins <= 256 || C.IdleSleepUs == 0) {
      std::this_thread::yield();
      continue;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(SleepUs));
    SleepUs = std::min(SleepUs * 2, C.IdleSleepUs);
  }
}

//===----------------------------------------------------------------------===//
// Orchestration
//===----------------------------------------------------------------------===//

void Engine::start() {
  assert(!Ran.load() && "an Engine runs once");
  assert(!Started && "start() already ran");
  StartNs.store(monotonicNs());
  StopFlag.store(false);
  InjBufs.resize(C.NumShards);

  CtrlThread = std::thread([this] { controllerLoop(); });
  for (unsigned I = 0; I != C.NumShards; ++I)
    Shards[I]->Thread = std::thread([this, I] { workerLoop(I); });
  Started = true;
}

void Engine::injectBatch(const Injection *Inj, size_t N) {
  assert(Started && "injectBatch() before start()");
  // Injections are grouped by the shard owning each host's ingress
  // switch and handed over with one batch push (and one Pending add) per
  // shard — the injector never round-robins single messages through the
  // rings. The group buffers keep their capacity across calls.
  for (auto &B : InjBufs)
    B.clear();
  for (size_t I = 0; I != N; ++I) {
    const Injection &In = Inj[I];
    Location At = Topo.hostLoc(In.From);
    Msg M;
    M.K = Msg::Inject;
    M.From = In.From;
    M.Header = In.Header;
    InjBufs[Slots[Idx.denseOf(At.Sw)].Shard].push_back(std::move(M));
  }
  for (uint32_t T = 0; T != C.NumShards; ++T) {
    if (InjBufs[T].empty())
      continue;
    Pending.fetch_add(static_cast<int64_t>(InjBufs[T].size()));
    pushBatchToShard(T, InjBufs[T].data(), InjBufs[T].size());
  }
}

void Engine::awaitQuiescence() {
  // Every message (packets, replies, controller work) drains. Outputs
  // are always counted into Pending before their inputs retire, so zero
  // really means quiet.
  while (Pending.load() != 0)
    std::this_thread::yield();
}

void Engine::finish() {
  if (!Started || Ran.load())
    return;
  ElapsedSec = nowSec();
  StopFlag.store(true);
  CtrlWake.notify(); // rouse a controller blocked in its event wait
  for (auto &S : Shards)
    S->Thread.join();
  CtrlThread.join();

  for (auto &S : Shards)
    S->Retired.tryReclaim(Epochs.minActiveEpoch());

  mergeResults();
  Ran.store(true);
}

void Engine::run(const Workload &W) {
  start();
  for (const Phase &Ph : W.Phases) {
    // An external stop (signal handler) takes effect at the phase
    // boundary: the current phase still quiesces, so the trace and the
    // audit are complete for everything that was injected.
    if (C.StopRequested && C.StopRequested->load())
      break;
    injectBatch(Ph.Injections.data(), Ph.Injections.size());
    awaitQuiescence();
  }
  finish();
}

void Engine::mergeResults() {
  // The recording engine is its own stream collector: the workers have
  // flushed their tails, so one drain holds every item of the run.
  if (C.RecordTrace) {
    std::vector<StreamItem> Items;
    drainTraceStream(Items);
    Recorded = buildBatchTrace(std::move(Items));
  }

  // Learn times: merge the per-shard monotonic stamps and derive the
  // Figure 16(b) seconds-after-start map on the same clock.
  int64_t Base = StartNs.load();
  for (auto &S : Shards) {
    MergedDeliveries.insert(MergedDeliveries.end(), S->Delivered.begin(),
                            S->Delivered.end());
    for (const auto &[Key, LearnAt] : S->LearnNs)
      MergedLearnTimes.emplace(
          Key, static_cast<double>(LearnAt - Base) * 1e-9);
  }

  // Fault ledger: the per-shard records (owner-written, read post-join)
  // plus the excused trace indices. The record multiset is content-
  // addressed, so its canonical form reproduces run to run; the indices
  // are run-local annotations. They include overload sheds, which
  // happen without a fault plan too: the checker needs their excusal
  // context either way.
  for (auto &S : Shards)
    Ledger.Records.insert(Ledger.Records.end(), S->FaultRecs.begin(),
                          S->FaultRecs.end());
  Ledger.Records.insert(Ledger.Records.end(), StormRecs.begin(),
                        StormRecs.end());
  Ledger.ExcusedEntries = std::move(Recorded.Excused);

  // Obs timeline: concatenate the per-shard rings (post-join, so every
  // slot write happens-before this read) and sort into one time base.
  for (auto &S : Shards) {
    if (!S->ObsRing)
      continue;
    std::vector<obs::TraceEvent> Evs = S->ObsRing->events();
    MergedObsTrace.insert(MergedObsTrace.end(), Evs.begin(), Evs.end());
  }
  std::sort(MergedObsTrace.begin(), MergedObsTrace.end(),
            [](const obs::TraceEvent &A, const obs::TraceEvent &B) {
              return A.TsNs < B.TsNs;
            });

  // Final stats, including the transition-latency aggregates.
  FinalStats = Stats();
  FinalStats.ElapsedSec = ElapsedSec;
  FinalStats.PacketsInjected = Injected.get();
  FinalStats.PacketsDelivered = Delivered.get();
  FinalStats.PacketsDropped = Dropped.get();
  FinalStats.PacketsForwarded = Forwarded.get();
  FinalStats.EventsDetected = Events.get();
  FinalStats.CtrlDeltas = CtrlDeltas.get();
  FinalStats.ClassifierPath = C.UseClassifier;
  FinalStats.BatchSize = C.BatchSize;
  fillPartitionStats(FinalStats);
  fillObsStats(FinalStats);
  fillFaultStats(FinalStats);
  for (auto &S : Shards) {
    ShardStats SS = baseShardStats(*S);
    SS.QueueDepth = 0;
    SS.FreelistGrowth = freelistGrowth(*S);
    FinalStats.PacketsProcessed += SS.PacketsProcessed;
    FinalStats.ConfigTransitions += SS.Transitions;
    FinalStats.FastPathLearns += SS.FastLearns;
    FinalStats.Shards.push_back(SS);
  }
  if (ElapsedSec > 0) {
    FinalStats.PacketsPerSec = FinalStats.PacketsProcessed / ElapsedSec;
    FinalStats.DeliveredPerSec = FinalStats.PacketsDelivered / ElapsedSec;
  }
  // Update latency (detection -> each register learn) through an obs
  // histogram, so the digest carries percentiles, not just mean/max.
  // Post-run cost only: the samples are by-products of the protocol,
  // and both stamps come from monotonicNs() — no wall-clock skew.
  obs::LogHistogram UpdateNs;
  for (auto &S : Shards)
    for (const auto &[Key, LearnAt] : S->LearnNs) {
      int64_t Ns = DetectNs[Key.second]->load();
      if (Ns < 0)
        continue;
      int64_t Lat = LearnAt - Ns;
      TransitionNs.push_back(Lat > 0 ? Lat : 0);
      UpdateNs.record(Lat > 0 ? static_cast<uint64_t>(Lat) : 0);
    }
  FinalStats.Transition = digestFrom(UpdateNs.snapshot(), 1e-9);
}

Stats Engine::stats() const {
  if (Ran.load())
    return FinalStats;
  Stats S;
  S.ElapsedSec = nowSec();
  S.PacketsInjected = Injected.get();
  S.PacketsDelivered = Delivered.get();
  S.PacketsDropped = Dropped.get();
  S.PacketsForwarded = Forwarded.get();
  S.EventsDetected = Events.get();
  S.CtrlDeltas = CtrlDeltas.get();
  S.ClassifierPath = C.UseClassifier;
  S.BatchSize = C.BatchSize;
  fillPartitionStats(S);
  fillObsStats(S);
  fillFaultStats(S);
  for (const auto &Sh : Shards) {
    ShardStats SS = baseShardStats(*Sh);
    SS.QueueDepth = Sh->Q->sizeApprox();
    {
      std::lock_guard<std::mutex> Lock(Sh->OverflowMu);
      SS.QueueDepth += Sh->Overflow.size();
    }
    S.PacketsProcessed += SS.PacketsProcessed;
    S.ConfigTransitions += SS.Transitions;
    S.FastPathLearns += SS.FastLearns;
    S.Shards.push_back(SS);
  }
  if (S.ElapsedSec > 0) {
    S.PacketsPerSec = S.PacketsProcessed / S.ElapsedSec;
    S.DeliveredPerSec = S.PacketsDelivered / S.ElapsedSec;
  }
  return S;
}

void Engine::fillPartitionStats(Stats &S) const {
  S.Partition.Strategy = Part.Strategy;
  S.Partition.CutWeight = Part.CutWeight;
  S.Partition.TotalWeight = Part.TotalWeight;
  S.Partition.MaxShardLoad = Part.MaxShardLoad;
  S.Partition.MinShardLoad = Part.MinShardLoad;
}

void Engine::fillFaultStats(Stats &S) const {
  S.FaultDrops = FaultDrops.get();
  S.FaultDups = FaultDups.get();
  S.FaultDelays = FaultDelays.get();
  S.FaultSheds = FaultSheds.get();
  S.FaultStalls = FaultStalls.get();
  S.FaultStorms = FaultStorms.get();
  S.DupDelivered = DupDelivered.get();
  S.DupDropped = DupDropped.get();
}

void Engine::fillObsStats(Stats &S) const {
  // Lock-free merge: histogram snapshots are relaxed copies and the ring
  // counters are monotone, so this is safe concurrently with run()
  // (stats() live path) and exact once the workers joined.
  obs::HistogramSnapshot Dwell, Occupancy;
  for (const auto &Sh : Shards) {
    if (Sh->Lat) {
      Dwell.merge(Sh->Lat->DwellNs.snapshot());
      Occupancy.merge(Sh->Lat->Occupancy.snapshot());
    }
    if (Sh->ObsRing) {
      S.TraceRecorded += Sh->ObsRing->recordedCount();
      S.TraceDropped += Sh->ObsRing->droppedCount();
    }
  }
  S.QueueDwell = digestFrom(Dwell, 1e-9);
  S.BatchOccupancy = digestFrom(Occupancy, 1.0);
}

ShardStats Engine::baseShardStats(const Shard &Sh) const {
  ShardStats SS;
  SS.PacketsProcessed = Sh.Processed.get();
  SS.QueueHighWater = Sh.QueueHighWater.get();
  SS.Dropped = Sh.Dropped.get();
  SS.Transitions = Sh.Transitions.get();
  SS.Switches = Part.ShardSwitches[Sh.Index];
  SS.IdleSleeps = Sh.IdleSleeps.get();
  SS.Shed = Sh.Shed.get();
  SS.Stalls = Sh.Stalls.get();
  SS.FastLearns = Sh.FastLearns.get();
  if (Sh.ObsRing) {
    SS.TraceRecorded = Sh.ObsRing->recordedCount();
    SS.TraceDropped = Sh.ObsRing->droppedCount();
  }
  return SS;
}

Engine::ViewSnapshot Engine::readView(SwitchId Sw) const {
  EpochDomain::ReadGuard Guard(Epochs);
  const SwitchView *V = Slots[Idx.denseOf(Sw)].Published.load();
  return ViewSnapshot{V->Tag, V->E, V->Version};
}
