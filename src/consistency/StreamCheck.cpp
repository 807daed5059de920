//===- consistency/StreamCheck.cpp - Streaming Definition 6 checker -------===//

#include "consistency/StreamCheck.h"

#include <algorithm>
#include <cassert>
#include <sstream>

using namespace eventnet;
using namespace eventnet::consistency;
using eventnet::netkat::Packet;

const char *consistency::streamVerdictName(StreamVerdict V) {
  switch (V) {
  case StreamVerdict::Ok:
    return "ok";
  case StreamVerdict::Violated:
    return "violated";
  case StreamVerdict::Inconclusive:
    return "inconclusive";
  }
  return "?";
}

StreamChecker::StreamChecker(const nes::Nes &N, const topo::Topology &Topo,
                             StreamOptions O)
    : N(N), Topo(Topo), O(O), Dir(DirSlots, nullptr) {
  GuardQ.resize(N.numEvents());
  GuardQOverflow.assign(N.numEvents(), false);
  FOWanted.assign(N.numEvents(), false);
  GuardHit.assign(N.numEvents(), 0);
  // The dense switch table: one vector-clock component per switch.
  for (SwitchId Sw : Topo.switches())
    denseSwitch(Sw);
  // C0 = g(∅).
  auto S0 = N.setIndex(Occurred);
  if (S0) {
    Configs.push_back(&N.configOf(*S0));
  } else {
    // A structure whose family lacks ∅ is malformed; never claim a pass.
    inconclusive("unsupported");
    Configs.push_back(nullptr);
  }
  AllConfigMask = 1;
  if (this->O.Window == 0)
    this->O.Window = 1;
}

StreamChecker::~StreamChecker() = default;

void StreamChecker::violate(std::string Reason) {
  // A known-gappy feed (noteGap) can fake every violation class: a shed
  // tail truncates a chain into one "not processed by any single
  // configuration", a shed witness fakes a missing FO trigger. A
  // violation is an actionable alarm that must never be wrong — once
  // gappy, degrade instead. Violations recorded before the gap stand.
  if (Gappy) {
    inconclusive(GapCause.c_str());
    return;
  }
  if (CurVerdict == StreamVerdict::Violated)
    return;
  CurVerdict = StreamVerdict::Violated;
  ViolationReason = std::move(Reason);
}

void StreamChecker::inconclusive(const char *Cause) {
  if (std::find(Causes.begin(), Causes.end(), Cause) == Causes.end())
    Causes.push_back(Cause);
  if (CurVerdict == StreamVerdict::Ok)
    CurVerdict = StreamVerdict::Inconclusive;
}

void StreamChecker::noteCause(const std::string &Cause) {
  if (std::find(Causes.begin(), Causes.end(), Cause) == Causes.end())
    Causes.push_back(Cause);
  if (CurVerdict == StreamVerdict::Ok)
    CurVerdict = StreamVerdict::Inconclusive;
}

void StreamChecker::noteGap(const std::string &Cause) {
  if (Finished)
    return;
  Gappy = true;
  GapCause = Cause;
  noteCause(Cause);
}

//===----------------------------------------------------------------------===//
// Slab
//===----------------------------------------------------------------------===//

StreamChecker::Chunk *StreamChecker::chunk(uint64_t No) {
  Chunk *&Cached = Dir[No & (DirSlots - 1)];
  if (Cached && Cached->No == No)
    return Cached;
  auto It = Chunks.find(No);
  if (It == Chunks.end())
    return nullptr;
  Cached = It->second.get();
  return Cached;
}

StreamChecker::Chunk *StreamChecker::makeChunk(uint64_t No) {
  std::unique_ptr<Chunk> C = std::move(Spare);
  if (!C) {
    C = std::make_unique<Chunk>();
    C->Slots = std::make_unique<Slot[]>(ChunkSlots);
    C->VCs = std::make_unique<uint32_t[]>(ChunkSlots * Stride);
  } else {
    C->Fields.clear(); // a freed chunk's slots are all Empty already
  }
  C->No = No;
  C->Used = 0;
  Chunk *Raw = C.get();
  Chunks.emplace(No, std::move(C));
  Dir[No & (DirSlots - 1)] = Raw;
  return Raw;
}

void StreamChecker::freeChunk(Chunk *C) {
  auto It = Chunks.find(C->No);
  assert(It != Chunks.end() && It->second.get() == C);
  Chunk *&Cached = Dir[C->No & (DirSlots - 1)];
  if (Cached == C)
    Cached = nullptr;
  if (Spare)
    FieldBytes -= C->Fields.capacity() * sizeof(netkat::PacketView::Field);
  else
    Spare = std::move(It->second);
  Chunks.erase(It);
}

StreamChecker::NodeRef StreamChecker::node(uint64_t Ticket) {
  if (Chunk *C = chunkOf(Ticket)) {
    Slot &S = C->Slots[Ticket & SlotMask];
    if (S.State == Empty)
      return {};
    return {&S, &C->VCs[(Ticket & SlotMask) * Stride], C->Fields.data()};
  }
  // An evicted chunk's range never gets a chunk again: its tickets are
  // all behind the commit frontier.
  if (Strays.empty())
    return {};
  auto It = Strays.find(Ticket);
  if (It == Strays.end())
    return {};
  Stray &X = It->second;
  return {&X.S, X.VC.get(), X.Fields.data()};
}

uint64_t StreamChecker::strayBytes(uint32_t FieldLen) const {
  // Hash node (next pointer, key, value) plus the two heap arrays.
  return sizeof(void *) + sizeof(uint64_t) + sizeof(Stray) +
         Stride * sizeof(uint32_t) +
         FieldLen * sizeof(netkat::PacketView::Field);
}

void StreamChecker::dropNode(uint64_t Ticket) {
  if (Chunk *C = chunkOf(Ticket)) {
    C->Slots[Ticket & SlotMask].State = Empty;
    if (--C->Used == 0)
      freeChunk(C);
    else
      evictIfSparse(C);
    return;
  }
  auto It = Strays.find(Ticket);
  assert(It != Strays.end());
  StrayBytes -= strayBytes(It->second.S.FieldLen);
  Strays.erase(It);
}

void StreamChecker::evictIfSparse(Chunk *C) {
  // Wholly behind the cursor, a chunk holds only interior nodes of trees
  // whose tails are newer. Past 1/8 occupancy keep it; below, its
  // survivors are cheaper to hold one by one than the chunk.
  if (((C->No + 1) << ChunkShift) > RetireCursor || C->Used * 8 > ChunkSlots)
    return;
  for (uint64_t I = 0; I != ChunkSlots; ++I) {
    Slot &S = C->Slots[I];
    if (S.State != Live)
      continue;
    Stray X;
    X.S = S;
    X.S.FieldOff = 0;
    X.Fields.assign(C->Fields.begin() + S.FieldOff,
                    C->Fields.begin() + S.FieldOff + S.FieldLen);
    X.VC = std::make_unique<uint32_t[]>(Stride);
    std::copy_n(&C->VCs[I * Stride], Stride, X.VC.get());
    StrayBytes += strayBytes(S.FieldLen);
    Strays.emplace((C->No << ChunkShift) | I, std::move(X));
    S.State = Empty;
  }
  C->Used = 0;
  freeChunk(C);
}

void StreamChecker::stage(Chunk *C, Slot &S, int64_t Parent,
                          const Packet &Lp, bool IsDup) {
  S = Slot{};
  S.Parent = Parent;
  S.FieldOff = (uint32_t)C->Fields.size();
  S.FieldLen = (uint32_t)Lp.fields().size();
  size_t Cap = C->Fields.capacity();
  C->Fields.insert(C->Fields.end(), Lp.fields().begin(), Lp.fields().end());
  FieldBytes += (C->Fields.capacity() - Cap) *
                sizeof(netkat::PacketView::Field);
  S.Flags = IsDup ? FlagDup : 0;
  S.State = Pending;
  ++C->Used;
  ++SlabPending;
}

uint32_t StreamChecker::denseSwitch(SwitchId Sw) {
  uint32_t *Idx;
  if (Sw < (1u << 16)) {
    if (SwDense.size() <= Sw)
      SwDense.resize(Sw + 1, ~0u);
    Idx = &SwDense[Sw];
  } else {
    Idx = &SwDenseWide.emplace(Sw, ~0u).first->second;
  }
  if (*Idx != ~0u)
    return *Idx;
  *Idx = (uint32_t)SwCount.size();
  SwCount.push_back(0);
  if (SwCount.size() > Stride)
    growStride(std::max<uint32_t>(2 * Stride, (uint32_t)SwCount.size()));
  SwLastVC.resize(SwCount.size() * Stride, 0);
  return (uint32_t)SwCount.size() - 1;
}

void StreamChecker::growStride(uint32_t NewStride) {
  // A switch outside the topology: every stored clock gains components.
  // Missing components are 0, exactly as a shorter clock reads.
  auto Widen = [&](const uint32_t *Old, size_t Rows) {
    auto New = std::make_unique<uint32_t[]>(Rows * NewStride);
    for (size_t R = 0; R != Rows; ++R)
      std::copy_n(Old + R * Stride, Stride, New.get() + R * NewStride);
    return New;
  };
  for (auto &KV : Chunks)
    KV.second->VCs = Widen(KV.second->VCs.get(), ChunkSlots);
  for (auto &KV : Strays) {
    KV.second.VC = Widen(KV.second.VC.get(), 1);
    StrayBytes += (NewStride - Stride) * sizeof(uint32_t);
  }
  Spare.reset();
  FieldBytes = 0;
  for (auto &KV : Chunks)
    FieldBytes += KV.second->Fields.capacity() *
                  sizeof(netkat::PacketView::Field);
  size_t Rows = SwLastVC.size() / Stride;
  std::vector<uint32_t> Last(Rows * NewStride, 0);
  for (size_t R = 0; R != Rows; ++R)
    std::copy_n(SwLastVC.begin() + R * Stride, Stride,
                Last.begin() + R * NewStride);
  SwLastVC = std::move(Last);
  for (EventRec &R : EventRecs)
    if (R.Usable)
      R.KVC.resize(NewStride, 0);
  Stride = NewStride;
}

void StreamChecker::trackPeaks() {
  St.PeakWindow = std::max<uint64_t>(St.PeakWindow, LiveNodes);
  uint64_t PerChunk = sizeof(Chunk) + ChunkSlots * sizeof(Slot) +
                      ChunkSlots * Stride * sizeof(uint32_t);
  uint64_t B = (Chunks.size() + (Spare ? 1 : 0)) * PerChunk + FieldBytes;
  B += StrayBytes;
  B += Strays.bucket_count() * sizeof(void *);
  B += Dir.capacity() * sizeof(Chunk *);
  B += Chunks.size() * 48; // map node: links + key + owner pointer
  B += Late.size() * sizeof(PendItem) + LateFieldBytes;
  B += GuardQTotal * sizeof(GuardMatch);
  B += PrunedOrder.size() * sizeof(uint64_t);
  B += PendingExcuse.bucket_count() * sizeof(void *) +
       PendingExcuse.size() * (sizeof(void *) + sizeof(uint64_t));
  B += (SwLastVC.capacity() + SwDense.capacity()) * sizeof(uint32_t) +
       SwCount.capacity() * sizeof(uint64_t);
  B += EventRecs.capacity() * sizeof(EventRec) +
       EventRecs.size() * Stride * sizeof(uint32_t);
  St.PeakResidentBytes = std::max(St.PeakResidentBytes, B);
}

//===----------------------------------------------------------------------===//
// Feed and commit
//===----------------------------------------------------------------------===//

void StreamChecker::feedEntry(uint64_t Ticket, int64_t Parent,
                              const Packet &Lp, bool /*IsDelivery*/,
                              bool IsDup) {
  // Delivery is read off the topology at retirement (a host port with no
  // outgoing link), so the flag is not stored.
  if (Finished)
    return;
  ++St.EntriesIngested;
  // The slab takes every entry the commit scan has not passed yet; the
  // rest (behind the frontier, a repeated ticket, a ticket the scan
  // already skipped) wait in Late and commit in merged ticket order.
  if ((int64_t)Ticket > LastCommitted && Ticket >= ScanCursor) {
    Chunk *C = chunkOf(Ticket);
    if (!C)
      C = makeChunk(Ticket >> ChunkShift);
    Slot &S = C->Slots[Ticket & SlotMask];
    if (S.State == Empty) {
      stage(C, S, Parent, Lp, IsDup);
      return;
    }
  }
  LateFieldBytes += Lp.fields().size() * sizeof(netkat::PacketView::Field);
  Late.push(PendItem{Ticket, Parent, Lp, IsDup});
}

void StreamChecker::feedExcuse(uint64_t Ticket) {
  if (Finished)
    return;
  if (Slot *S = liveSlot(Ticket)) {
    S->Flags |= FlagExcused;
    return;
  }
  if ((int64_t)Ticket > LastCommitted) {
    PendingExcuse.insert(Ticket);
    return;
  }
  if (isPruned(Ticket))
    return; // an excused hop inside a pruned duplicate subtree
  // The excused entry already retired (or was cut by the window): its
  // chain was finalized under maximal membership instead of prefix
  // membership, so the verdict may be too strict — degrade, never guess.
  inconclusive("window_exceeded");
}

void StreamChecker::advance(uint64_t Watermark) {
  if (Finished)
    return;
  commitUpTo(Watermark);
  trackPeaks();
}

uint64_t StreamChecker::nextPending(uint64_t W) {
  if (SlabPending == 0)
    return NoTicket;
  while (ScanCursor <= W) {
    Chunk *C = chunkOf(ScanCursor);
    if (!C) {
      auto It = Chunks.lower_bound(ScanCursor >> ChunkShift);
      if (It == Chunks.end())
        return NoTicket;
      ScanCursor = It->first << ChunkShift;
      continue;
    }
    uint64_t End = std::min(((C->No + 1) << ChunkShift) - 1, W);
    for (; ScanCursor <= End; ++ScanCursor)
      if (C->Slots[ScanCursor & SlotMask].State == Pending)
        return ScanCursor;
  }
  return NoTicket;
}

void StreamChecker::commitUpTo(uint64_t W) {
  while (true) {
    uint64_t SlabNext = nextPending(W);
    uint64_t LateNext = Late.empty() ? NoTicket : Late.top().Ticket;
    if (LateNext > W)
      LateNext = NoTicket;
    if (SlabNext == NoTicket && LateNext == NoTicket)
      return;
    if (SlabNext <= LateNext) {
      commit(SlabNext);
      continue;
    }
    PendItem It = std::move(const_cast<PendItem &>(Late.top()));
    Late.pop();
    LateFieldBytes -= It.Lp.fields().size() * sizeof(netkat::PacketView::Field);
    if ((int64_t)It.Ticket <= LastCommitted) {
      // Behind the commit frontier: the feed broke ticket order (or
      // duplicated a ticket); everything downstream of this entry is
      // unverifiable.
      inconclusive("out_of_order");
      continue;
    }
    // Past the frontier its slot is free: a pending slot at this ticket
    // would have committed first.
    Chunk *C = chunkOf(It.Ticket);
    if (!C)
      C = makeChunk(It.Ticket >> ChunkShift);
    Slot &S = C->Slots[It.Ticket & SlotMask];
    assert(S.State == Empty);
    stage(C, S, It.Parent, It.Lp, It.IsDup);
    commit(It.Ticket);
  }
}

bool StreamChecker::isPruned(uint64_t Ticket) const {
  return std::binary_search(PrunedOrder.begin(), PrunedOrder.end(), Ticket);
}

void StreamChecker::prune(uint64_t Ticket) {
  PrunedOrder.push_back(Ticket);
  if (!PendingExcuse.empty())
    PendingExcuse.erase(Ticket);
}

bool StreamChecker::guardMatches(unsigned EventId, netkat::PacketView Lp,
                                 Location At, bool &Materialized) {
  const netkat::Event &E = N.event(EventId);
  if (E.Loc != At)
    return false;
  if (!Materialized) {
    GuardPkt.assign(Lp);
    Materialized = true;
  }
  return E.matches(GuardPkt);
}

void StreamChecker::commit(uint64_t Ticket) {
  Chunk *C = chunkOf(Ticket);
  Slot &S = C->Slots[Ticket & SlotMask];
  assert(S.State == Pending);
  --SlabPending;
  LastCommitted = (int64_t)Ticket;
  ++St.EntriesChecked;

  // A violation is terminal (the batch oracle also reports the first):
  // keep counting, stop maintaining state.
  if (CurVerdict == StreamVerdict::Violated) {
    dropNode(Ticket);
    return;
  }

  // Ledgered-duplicate subtrees are excluded from the surviving trace —
  // from the chains, the per-switch order, and the witness extraction —
  // exactly as checkAgainstNes prunes before checking.
  bool ParentPruned = S.Parent >= 0 && !PrunedOrder.empty() &&
                      isPruned((uint64_t)S.Parent);
  if ((S.Flags & FlagDup) || ParentPruned) {
    prune(Ticket);
    ++St.EntriesPruned;
    dropNode(Ticket);
    return;
  }

  // Locate the parent; a missing parent means the window already evicted
  // it (chain split) — degrade and exclude the fragment, which could
  // otherwise only produce spurious violations.
  NodeRef P;
  if (S.Parent >= 0) {
    P = node((uint64_t)S.Parent);
    if (!P || P.S->State != Live) {
      inconclusive("window_exceeded");
      prune(Ticket);
      dropNode(Ticket);
      return;
    }
  }

  // Vector clock over switches: VC = max(parent VC, predecessor-at-
  // switch VC), own component = the new per-switch position. This is
  // Definition 1's happens-before exactly: A hb B iff VC(B)[sw(A)] >=
  // pos(A) (per-switch total order plus packet-tree order, closed).
  netkat::PacketView Lp{C->Fields.data() + S.FieldOff, S.FieldLen};
  Location At = Lp.loc();
  uint32_t SwIdx = denseSwitch(At.Sw);
  if (SwCount[SwIdx] == UINT32_MAX) {
    inconclusive("unsupported"); // per-switch position would wrap
    dropNode(Ticket);
    return;
  }
  if (P)
    P = node((uint64_t)S.Parent); // denseSwitch may have widened clocks
  uint32_t SwPos = (uint32_t)++SwCount[SwIdx];
  uint32_t *VC = &C->VCs[(Ticket & SlotMask) * Stride];
  uint32_t *Last = &SwLastVC[(size_t)SwIdx * Stride];
  if (P) {
    for (uint32_t I = 0; I != Stride; ++I)
      VC[I] = std::max(Last[I], P.VC[I]);
  } else {
    std::copy_n(Last, Stride, VC);
  }
  VC[SwIdx] = SwPos;
  std::copy_n(VC, Stride, Last);

  S.SwIdx = SwIdx;
  S.SwPos = SwPos;
  S.ReqConfig = -1;
  S.PrefixMask = P ? relatedMask(P.lp(), Lp, P.S->PrefixMask) : AllConfigMask;
  if (!PendingExcuse.empty() && PendingExcuse.erase(Ticket))
    S.Flags |= FlagExcused;
  S.State = Live;
  S.Next = NoTicket;
  if (P) {
    ++P.S->Children;
    S.Root = P.S->Root;
    Slot *R = liveSlot(S.Root);
    liveSlot(R->Tail)->Next = Ticket;
    R->Tail = Ticket;
  } else {
    S.Root = Ticket;
    S.Tail = Ticket;
    ++LiveTrees;
  }
  ++LiveNodes;

  // One guard pass per event. Guard-match queues feed FO resolution:
  // collect matches of every event that has not occurred (its FO is in
  // the future) or whose FO is still unresolved. Witness extraction then
  // considers the hits among events not yet occurred — a subset, since
  // extraction only ever sets the event it is looking at.
  bool Materialized = false, AnyHit = false;
  for (unsigned Id = 0; Id != N.numEvents(); ++Id) {
    if (Occurred.test(Id) && !FOWanted[Id])
      continue;
    if (!guardMatches(Id, Lp, At, Materialized))
      continue;
    GuardHit[Id] = 1;
    AnyHit = true;
    if (GuardQ[Id].size() >= O.GuardQueueCap) {
      GuardQOverflow[Id] = true;
      continue;
    }
    GuardQ[Id].push_back(GuardMatch{Ticket});
    ++GuardQTotal;
  }

  // Witness extraction, the batch checker's exact rule: event ids in
  // order against the evolving occurred set.
  if (AnyHit) {
    for (unsigned Id = 0; Id != N.numEvents(); ++Id) {
      if (!GuardHit[Id])
        continue;
      GuardHit[Id] = 0;
      if (Occurred.test(Id) || CurVerdict == StreamVerdict::Violated)
        continue;
      if (!N.enables(Occurred, Id))
        continue;
      DenseBitSet Ext = Occurred;
      Ext.set(Id);
      if (!N.con(Ext))
        continue;
      Occurred.set(Id);
      onFresh(Id);
    }
    if (CurVerdict == StreamVerdict::Violated)
      return;
  }
  resolvePendingFOs();

  if (++CommitsSinceSweep >= 256) {
    CommitsSinceSweep = 0;
    retireQuietTrees();
  }
  enforceWindow();
}

void StreamChecker::onFresh(unsigned EventId) {
  ++St.EventsObserved;
  EventRec R;
  R.EventId = EventId;
  EventRecs.push_back(std::move(R));
  PendingFO.push_back((unsigned)(EventRecs.size() - 1));
  FOWanted[EventId] = true;

  // The new configuration C_{i+1} = g(occurred set).
  if (Configs.size() >= 64) {
    inconclusive("unsupported"); // config mask width exhausted
    return;
  }
  auto S = N.setIndex(Occurred);
  if (!S) {
    // Extraction only adds consistent enabled events, so the set is a
    // family member by construction; a miss means the structure and the
    // trace disagree in a way the streaming form cannot arbitrate.
    inconclusive("unsupported");
    return;
  }
  Configs.push_back(&N.configOf(*S));
  AllConfigMask = Configs.size() >= 64
                      ? ~uint64_t(0)
                      : ((uint64_t(1) << Configs.size()) - 1);
  extendMasksForNewConfig();
}

void StreamChecker::resolvePendingFOs() {
  while (!PendingFO.empty()) {
    unsigned WIdx = PendingFO.front();
    EventRec &R = EventRecs[WIdx];
    std::deque<GuardMatch> &Q = GuardQ[R.EventId];
    while (!Q.empty() && (int64_t)Q.front().Ticket <= FOFrontier) {
      Q.pop_front();
      --GuardQTotal;
    }
    if (Q.empty())
      return; // the FO is a future entry; try again on the next commit
    R.Resolved = true;
    R.KTicket = Q.front().Ticket;
    FOFrontier = (int64_t)R.KTicket;
    FOWanted[R.EventId] = false;
    PendingFO.pop_front();

    if (AnyRetired && R.KTicket <= MaxRetiredTicket) {
      // Entries newer than this FO already retired: their AllAfter /
      // bullet-3 obligations against it were never evaluated.
      inconclusive("window_exceeded");
    }
    NodeRef K = node(R.KTicket);
    if (K && K.S->State == Live) {
      R.Usable = true;
      R.KSwIdx = K.S->SwIdx;
      R.KSwPos = K.S->SwPos;
      R.KVC.assign(K.VC, K.VC + Stride);
      // FO bullet 3: some chain through the FO entry must be processed
      // by the configuration preceding the event, i.e. C_i for witness
      // index i.
      K.S->ReqConfig = (int16_t)WIdx;
    } else {
      inconclusive("window_exceeded");
    }

    // The frontier moved: matches at or before it can never be an FO.
    for (std::deque<GuardMatch> &GQ : GuardQ)
      while (!GQ.empty() && (int64_t)GQ.front().Ticket <= FOFrontier) {
        GQ.pop_front();
        --GuardQTotal;
      }
  }
}

uint64_t StreamChecker::relatedMask(netkat::PacketView From,
                                    netkat::PacketView To,
                                    uint64_t ParentMask) const {
  uint64_t Out = 0;
  uint64_t M = ParentMask & AllConfigMask;
  while (M) {
    unsigned Ci = (unsigned)__builtin_ctzll(M);
    M &= M - 1;
    const topo::Configuration *C = Configs[Ci];
    if (C && C->related(Topo, From, To))
      Out |= uint64_t(1) << Ci;
  }
  return Out;
}

std::vector<uint64_t> StreamChecker::liveTickets() {
  std::vector<uint64_t> Out;
  Out.reserve(LiveNodes);
  for (auto &KV : Strays)
    if (KV.second.S.State == Live)
      Out.push_back(KV.first);
  for (auto &KV : Chunks)
    for (uint64_t I = 0; I != ChunkSlots; ++I)
      if (KV.second->Slots[I].State == Live)
        Out.push_back((KV.first << ChunkShift) | I);
  std::sort(Out.begin(), Out.end());
  return Out;
}

void StreamChecker::extendMasksForNewConfig() {
  uint64_t Bit = uint64_t(1) << (Configs.size() - 1);
  const topo::Configuration *C = Configs.back();
  if (!C)
    return;
  // Ticket order puts every parent before its children.
  for (uint64_t T : liveTickets()) {
    NodeRef Nd = node(T);
    if (Nd.S->Parent < 0) {
      Nd.S->PrefixMask |= Bit;
      continue;
    }
    NodeRef P = node((uint64_t)Nd.S->Parent);
    if ((P.S->PrefixMask & Bit) && C->related(Topo, P.lp(), Nd.lp()))
      Nd.S->PrefixMask |= Bit;
  }
}

//===----------------------------------------------------------------------===//
// Retirement
//===----------------------------------------------------------------------===//

void StreamChecker::retireTree(uint64_t RootTicket, bool Forced) {
  Slot *RootSlot = liveSlot(RootTicket);
  if (!RootSlot || RootSlot->Parent >= 0)
    return;

  // A forced (window-cap) retirement may cut chains that are still in
  // flight: an empty membership then means "cut", not "inconsistent",
  // and every conclusion that would rest on those chains degrades to
  // inconclusive instead of violated.
  bool AnyCutChain = false;

  for (uint64_t L = RootTicket; L != NoTicket;) {
    NodeRef LeafRef = node(L);
    Slot &Leaf = *LeafRef.S;
    uint64_t LeafTicket = L;
    L = Leaf.Next;
    if (Leaf.Children != 0)
      continue; // internal node; chains end at leaves
    Path.clear();
    for (uint64_t I = LeafTicket;;) {
      NodeRef A = node(I);
      Path.emplace_back(I, A);
      if (A.S->Parent < 0)
        break;
      I = (uint64_t)A.S->Parent;
    }
    ++St.ChainsRetired;

    // Single-configuration membership: the leaf's prefix mask restricted
    // by the batch checker's exact maximality rule — unless a ledgered
    // fault excused the leaf, which waives maximality (prefix trace).
    netkat::PacketView LeafLp = LeafRef.lp();
    uint64_t Member = 0;
    if (Leaf.Flags & FlagExcused) {
      Member = Leaf.PrefixMask;
    } else if (Leaf.PrefixMask) {
      Location At = LeafLp.loc();
      bool Delivered =
          Leaf.Parent >= 0 && Topo.isHostPort(At) && !Topo.linkFrom(At);
      uint64_t M = Leaf.PrefixMask;
      while (M) {
        unsigned Ci = (unsigned)__builtin_ctzll(M);
        M &= M - 1;
        if (Delivered || (Configs[Ci] && Configs[Ci]->terminal(Topo, LeafLp)))
          Member |= uint64_t(1) << Ci;
      }
    }

    if (Member == 0) {
      if (Forced) {
        AnyCutChain = true;
        inconclusive("window_exceeded");
        continue; // no conclusions can rest on a cut chain
      }
      std::ostringstream OS;
      OS << "packet trace ending at ticket " << LeafTicket
         << " is not processed by any single configuration";
      violate(OS.str());
    }

    // Definition 2's window conditions against every resolved FO. A
    // retired chain can never violate these against a *future* event:
    // its member indices all precede any future index (HasEarly), and a
    // future FO cannot happen-before retired entries unless it is older
    // than the retirement frontier — which resolvePendingFOs flags.
    for (size_t I = 0; I != EventRecs.size(); ++I) {
      const EventRec &R = EventRecs[I];
      if (!R.Resolved || !R.Usable)
        continue;
      bool AllBefore = true, AllAfter = true;
      for (const auto &[Ticket, A] : Path) {
        if (Ticket == R.KTicket) {
          AllBefore = AllAfter = false;
          break;
        }
        if (!(R.KVC[A.S->SwIdx] >= A.S->SwPos))
          AllBefore = false;
        if (!(A.VC[R.KSwIdx] >= R.KSwPos))
          AllAfter = false;
        if (!AllBefore && !AllAfter)
          break;
      }
      uint64_t EarlyBits = I + 1 >= 64 ? ~uint64_t(0)
                                       : ((uint64_t(1) << (I + 1)) - 1);
      if (AllBefore && !(Member & EarlyBits)) {
        std::ostringstream OS;
        OS << "update happened too early: a packet trace entirely "
              "before "
           << N.event(R.EventId).str()
           << " is only consistent with a later configuration";
        violate(OS.str());
      }
      if (AllAfter && !(Member & ~EarlyBits)) {
        std::ostringstream OS;
        OS << "update happened too late: a packet trace entirely after "
           << N.event(R.EventId).str()
           << " is only consistent with an earlier configuration";
        violate(OS.str());
      }
    }

    for (const auto &PA : Path)
      if (PA.second.S->ReqConfig >= 0)
        PA.second.S->SeenMemberMask |= Member;
  }

  for (uint64_t T = RootTicket; T != NoTicket;) {
    Slot &Nd = *node(T).S;
    if (Nd.ReqConfig >= 0 &&
        !(Nd.SeenMemberMask & (uint64_t(1) << Nd.ReqConfig))) {
      // Bullet 3 is existential over chains through the node; if a cut
      // chain could have been the witness, absence is not a violation.
      if (AnyCutChain) {
        inconclusive("window_exceeded");
      } else {
        std::ostringstream OS;
        OS << "event "
           << N.event(EventRecs[Nd.ReqConfig].EventId).str()
           << " (ticket " << T
           << ") was not triggered by a packet of the preceding "
              "configuration";
        violate(OS.str());
      }
    }
    MaxRetiredTicket = std::max(MaxRetiredTicket, T);
    AnyRetired = true;
    uint64_t Next = Nd.Next;
    --LiveNodes;
    dropNode(T);
    T = Next;
  }
  ++St.TreesRetired;
  --LiveTrees;
}

uint64_t StreamChecker::walkRetireCursor(uint64_t Limit, bool Collect) {
  while (RetireCursor < Limit) {
    Chunk *C = chunkOf(RetireCursor);
    if (!C) {
      auto It = Chunks.lower_bound(RetireCursor >> ChunkShift);
      RetireCursor = It == Chunks.end()
                         ? Limit
                         : std::min(Limit, It->first << ChunkShift);
      continue;
    }
    uint64_t End = std::min(Limit, (C->No + 1) << ChunkShift);
    for (; RetireCursor < End; ++RetireCursor) {
      const Slot &S = C->Slots[RetireCursor & SlotMask];
      if (S.State != Live || liveSlot(S.Root)->Tail != RetireCursor)
        continue;
      if (!Collect)
        return S.Root;
      QuietRoots.push_back(S.Root);
    }
    if (RetireCursor == (C->No + 1) << ChunkShift)
      evictIfSparse(C);
  }
  return NoTicket;
}

void StreamChecker::retireQuietTrees() {
  uint64_t Frontier =
      LastCommitted < 0 ? 0 : (uint64_t)LastCommitted;
  // A tree is quiet when its tail (last activity) is more than the
  // horizon behind the frontier: the cursor walk over those tickets
  // finds each quiet tree once, at its tail.
  uint64_t Limit = Frontier > O.QuietHorizon ? Frontier - O.QuietHorizon : 0;
  QuietRoots.clear();
  walkRetireCursor(Limit, /*Collect=*/true);
  // Lenient: a quiet tree with an open chain is either silent loss (the
  // drop audit's job) or a ticket-gap straggler — inconclusive, not
  // violated. Only finish() may treat an open chain as a violation.
  std::sort(QuietRoots.begin(), QuietRoots.end());
  for (uint64_t Root : QuietRoots)
    retireTree(Root, /*Forced=*/true);

  while (!PrunedOrder.empty() &&
         PrunedOrder.front() + O.QuietHorizon < Frontier)
    PrunedOrder.pop_front();
}

void StreamChecker::enforceWindow() {
  while (LiveNodes > O.Window && LiveTrees != 0) {
    // Force-retire the quietest tree: the first live tail at or after
    // the cursor. The retirement itself is sound (everything checkable
    // so far is checked), but the cap was the reason — report
    // inconclusive rather than let a cut chain pass silently.
    inconclusive("window_exceeded");
    uint64_t Victim = walkRetireCursor(NoTicket, /*Collect=*/false);
    assert(Victim != NoTicket && "every live tail is past the cursor");
    if (Victim == NoTicket)
      break;
    retireTree(Victim, /*Forced=*/true);
  }
}

StreamResult StreamChecker::finish() {
  StreamResult Res;
  if (!Finished) {
    commitUpTo(NoTicket);
    // Unresolved first occurrences: the batch oracle fails its FO
    // search the same way — unless the guard queue overflowed, in which
    // case the FO may simply have been dropped.
    for (unsigned WIdx : PendingFO) {
      const EventRec &R = EventRecs[WIdx];
      if (GuardQOverflow[R.EventId]) {
        inconclusive("window_exceeded");
      } else {
        violate("FO does not exist: event " + N.event(R.EventId).str() +
                " never occurs after its predecessor's first occurrence");
      }
    }
    if (!PendingExcuse.empty())
      inconclusive("window_exceeded"); // excusal of an entry never seen
    for (uint64_t T : liveTickets())
      retireTree(T); // a no-op unless T is still a live root
    trackPeaks();
    Finished = true;
  }
  Res.Verdict = CurVerdict;
  if (CurVerdict == StreamVerdict::Violated) {
    Res.Reason = ViolationReason;
  } else {
    std::string Joined;
    for (const std::string &C : Causes) {
      if (!Joined.empty())
        Joined += ",";
      Joined += C;
    }
    Res.Reason = Joined;
  }
  Res.Stats = St;
  return Res;
}

StreamResult consistency::streamCheckTrace(const NetworkTrace &Tr,
                                           const topo::Topology &Topo,
                                           const nes::Nes &N,
                                           const FaultContext *Faults,
                                           StreamOptions O) {
  StreamChecker C(N, Topo, O);
  const auto &Entries = Tr.entries();
  std::vector<bool> Dup(Entries.size(), false);
  std::vector<bool> Exc(Entries.size(), false);
  if (Faults) {
    for (int I : Faults->DupEntries)
      if (I >= 0 && (size_t)I < Dup.size())
        Dup[I] = true;
    for (int I : Faults->ExcusedEntries)
      if (I >= 0 && (size_t)I < Exc.size())
        Exc[I] = true;
  }
  for (size_t I = 0; I != Entries.size(); ++I) {
    C.feedEntry(I, Entries[I].Parent, Entries[I].Lp,
                Entries[I].IsDelivery, Dup[I]);
    if (Exc[I])
      C.feedExcuse(I);
    C.advance(I); // commit as we go: exercises the online path
  }
  return C.finish();
}
