//===- consistency/StreamCheck.h - Streaming Definition 6 checker -*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An online, windowed form of the Definition 6 check (consistency/
/// Check.h): trace entries are consumed incrementally in ticket order and
/// packet chains are *retired* — fully checked and forgotten — as soon as
/// their happens-before constraints resolve, so a multi-minute soak run
/// is verified with O(window) memory instead of an O(run) merged trace.
///
/// What is checked online (identical to the batch oracle's primary,
/// operational witness — the Figure 7 machine's own event sequence):
///
///  - extraction: each committed entry is matched against the structure's
///    fresh enabled events, growing the witness sequence exactly as
///    checkAgainstNes's operational extraction does;
///  - first occurrences k0 < k1 < ...: resolved from a per-event queue of
///    guard matches past the current FO frontier;
///  - per-chain single-configuration membership: an incremental prefix
///    mask per tree node (bit Ci set iff root..node is consecutive-related
///    under Ci), finalized at the leaf with the batch checker's exact
///    maximality rule; ledgered faults excuse leaves to prefix membership;
///  - FO bullet 3 and the AllBefore/AllAfter window conditions: evaluated
///    at retirement from per-entry vector clocks over switches, which
///    represent Definition 1's happens-before exactly (per-switch total
///    order plus packet-tree order, both of which respect ticket order).
///
/// Retirement is sound: a retired chain with nonempty membership cannot
/// fail conditions against *future* events (its membership indices are
/// all <= any future event index, and a future first occurrence can never
/// happen-before an already-retired entry because happens-before respects
/// ticket order). The one case ticket order does not cover — a first
/// occurrence resolving to an entry older than something already retired
/// — is detected and reported as inconclusive, never silently passed.
///
/// The verdict is three-valued: ok / violated / inconclusive, with
/// violated taking precedence over inconclusive. Inconclusive causes:
///
///  - window_exceeded: the window cap or quiet-horizon retirement cut a
///    constraint short (late child of a retired chain, excusal of a
///    retired entry, FO older than the retirement frontier, per-event
///    guard-match queue overflow);
///  - out_of_order: an entry committed behind the ticket frontier;
///  - trace_dropped: the producer lost trace events (reported by the
///    embedder via noteCause, e.g. from the engine's bounded obs ring);
///  - stream_backlog: the collector fell behind the data path and the
///    engine shed stream items at its per-shard buffer cap (reported by
///    the embedder via noteCause; see EngineConfig::StreamBufCap) — the
///    trace the checker saw is gappy, so no clean pass is possible;
///  - unsupported: the trace left the checkable regime (more than 64
///    configurations, or an occurred-event set outside the NES family).
///
/// Not replicated from the batch checker: the existential fallback over
/// all allowed event sequences (Definition 6 tries others when the
/// operational witness fails). A streaming "violated" therefore means
/// "the operational witness fails", which coincides with the batch
/// verdict on every trace an actual run substrate produces; the
/// differential test suite pins this.
///
/// Storage. Every per-entry datum lives in one ticket-indexed slab, so
/// the steady state allocates nothing per entry:
///
///  - the slab is a set of chunks of 512 slots, chunk c holding tickets
///    [512c, 512c + 512). A chunk is allocated when its first slot is fed
///    and freed as soon as its last slot retires, so a long-lived tree
///    pins only the chunks its own nodes sit in. An ordered map owns the
///    chunks; a direct-mapped cache of chunk pointers makes the common
///    lookup O(1);
///  - a slot is a POD node: parent ticket, tree links (root, next node in
///    ticket order, and at the root the tree's tail = its last activity),
///    prefix/member masks, switch position and flags. Each tree is an
///    intrusive list through its own slots;
///  - a chunk packs its entries' headers into one (field, value) pool —
///    every field is kept, so relatedness stays exact — and their vector
///    clocks into one array at a fixed stride, the switch count (a dense
///    switch table is built from the topology up front);
///  - the slab is also the reorder buffer: feedEntry writes the slot as
///    pending, advance() scans pending slots in ticket order. Only an
///    entry the scan has already passed (late, duplicated, behind the
///    frontier) takes a heap fallback merged into the same ticket order;
///  - quiet retirement and the window-cap victim come from one cursor
///    walking tickets in order: a tree is found at its tail, and every
///    live tail is at or after the cursor, so both cost O(1) amortised.
///    A quiet sweep still retires its trees in ascending root order;
///  - a chunk wholly behind that cursor holds only interior nodes of
///    older trees. Once it is at most 1/8 occupied its survivors move to
///    a per-node table (Strays) and the chunk is freed, so a long-lived
///    tree costs its own nodes, not the chunks they sit in.
///
/// On the perfbench `verified` stream (ring program, one shard) the
/// checker costs 160-240 ns per entry single-threaded on a 4-core Xeon
/// VM, down from 1200-1450 ns with per-entry heap nodes.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_CONSISTENCY_STREAMCHECK_H
#define EVENTNET_CONSISTENCY_STREAMCHECK_H

#include "consistency/Check.h"
#include "consistency/Trace.h"
#include "nes/Nes.h"
#include "support/BitSet.h"
#include "topo/Topology.h"

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace eventnet {
namespace consistency {

/// Three-valued streaming verdict. Violated > Inconclusive > Ok.
enum class StreamVerdict : uint8_t { Ok, Violated, Inconclusive };

/// Stable lowercase name: "ok", "violated", "inconclusive".
const char *streamVerdictName(StreamVerdict V);

struct StreamOptions {
  /// Hard cap on live (committed, unretired) trace entries. Exceeding it
  /// force-retires the quietest trees; any constraint that then lands on
  /// a retired entry degrades the verdict to inconclusive.
  size_t Window = 1 << 16;
  /// A tree with no new entries for this many tickets is retired. Must
  /// absorb fault-plan delays and scheduling jitter; too small splits
  /// in-flight chains (inconclusive), too large wastes window.
  uint64_t QuietHorizon = 1 << 13;
  /// Per-event cap on buffered guard matches awaiting FO resolution
  /// (matches of a not-yet-occurred event's guard).
  size_t GuardQueueCap = 4096;
};

struct StreamStats {
  uint64_t EntriesIngested = 0; ///< fed (incl. buffered and pruned)
  uint64_t EntriesChecked = 0;  ///< committed in ticket order
  uint64_t EntriesPruned = 0;   ///< ledgered-duplicate subtree entries
  uint64_t TreesRetired = 0;
  uint64_t ChainsRetired = 0;   ///< root-to-leaf paths finalized
  uint64_t EventsObserved = 0;  ///< witness sequence length
  uint64_t PeakWindow = 0;      ///< live-entry high-water mark
  uint64_t PeakResidentBytes = 0; ///< checker state high-water, bytes
};

struct StreamResult {
  StreamVerdict Verdict = StreamVerdict::Ok;
  /// Violation reason, or comma-joined inconclusive causes.
  std::string Reason;
  StreamStats Stats;

  bool ok() const { return Verdict == StreamVerdict::Ok; }
  bool violated() const { return Verdict == StreamVerdict::Violated; }
};

/// The streaming checker. Single-threaded: one collector feeds it; the
/// engine side hands entries over through per-shard buffers (see
/// engine::Engine::drainTraceStream).
///
/// Feed protocol: feedEntry() in any order (the slab commits by
/// ticket); advance(W) commits everything with ticket <= W, where W is a
/// watermark no future entry can be below; feedExcuse(T) marks entry T a
/// legitimate chain leaf (ledgered drop/shed); finish() commits the
/// remainder and returns the final verdict.
class StreamChecker {
public:
  StreamChecker(const nes::Nes &N, const topo::Topology &Topo,
                StreamOptions O = StreamOptions());
  ~StreamChecker();

  StreamChecker(const StreamChecker &) = delete;
  StreamChecker &operator=(const StreamChecker &) = delete;

  /// Buffers one trace entry. \p Parent is the parent entry's ticket or
  /// -1 for a chain root; \p IsDup marks the root of a ledgered
  /// duplicate subtree (pruned, like the batch checker's FaultContext).
  void feedEntry(uint64_t Ticket, int64_t Parent, const netkat::Packet &Lp,
                 bool IsDelivery, bool IsDup = false);

  /// Entry \p Ticket may legitimately end its chain (ledgered drop or
  /// shed excused the hop that would have followed it). May arrive
  /// before or after the entry itself; an excusal of an already-retired
  /// entry is inconclusive.
  void feedExcuse(uint64_t Ticket);

  /// Commits every buffered entry with ticket <= \p Watermark. The
  /// caller guarantees no entry below the watermark is still in flight.
  void advance(uint64_t Watermark);

  /// Commits everything buffered, retires all live chains, and returns
  /// the final verdict. The checker is inert afterwards.
  StreamResult finish();

  /// Degrades the final verdict to inconclusive with \p Cause (unless a
  /// violation already won). Used by embedders for conditions the
  /// checker cannot see itself, e.g. "trace_dropped".
  void noteCause(const std::string &Cause);

  /// Like noteCause, but additionally marks the feed as gappy: entries
  /// are known to be missing (e.g. the producer shed stream items at a
  /// buffer cap), so from now on every would-be violation degrades to
  /// inconclusive(\p Cause) — a truncated chain or a shed FO witness
  /// can fake any violation class, and a violation must never be a
  /// false alarm. Violations recorded before this call stand.
  void noteGap(const std::string &Cause);

  /// Live verdict so far (retired state only; finish() is the total).
  StreamVerdict verdict() const { return CurVerdict; }
  const StreamStats &stats() const { return St; }

private:
  static constexpr unsigned ChunkShift = 9;
  static constexpr uint64_t ChunkSlots = uint64_t(1) << ChunkShift;
  static constexpr uint64_t SlotMask = ChunkSlots - 1;
  /// Direct-mapped chunk-pointer cache entries (a power of two).
  static constexpr size_t DirSlots = 1024;
  static constexpr uint64_t NoTicket = ~uint64_t(0);

  enum SlotState : uint8_t { Empty = 0, Pending = 1, Live = 2 };
  enum SlotFlag : uint8_t { FlagDup = 1, FlagExcused = 2 };

  /// One trace entry, at its ticket's slot. Pending: fed, not yet
  /// committed. Live: committed and unretired, a node of its tree.
  struct Slot {
    int64_t Parent;          ///< parent ticket, -1 for a root
    uint64_t Root;           ///< Live: the tree's root ticket
    uint64_t Next;           ///< Live: next node of the tree, ticket order
    uint64_t Tail;           ///< Live roots: newest node = last activity
    uint64_t PrefixMask;     ///< configs where root..this is
                             ///< consecutive-related
    uint64_t SeenMemberMask; ///< filled during retirement
    uint32_t FieldOff;       ///< header: Chunk::Fields[FieldOff, +FieldLen)
    uint32_t FieldLen;
    uint32_t SwIdx;    ///< dense switch index (VC component)
    uint32_t SwPos;    ///< 1-based position in the per-switch order
    uint32_t Children;
    int16_t ReqConfig; ///< FO bullet 3: a chain through this node must be
                       ///< a member of this configuration
    uint8_t State;
    uint8_t Flags;
  };

  /// Slots for tickets [No << ChunkShift, +ChunkSlots), their packed
  /// headers and their vector clocks (ChunkSlots x Stride).
  struct Chunk {
    uint64_t No = 0;
    uint32_t Used = 0; ///< Pending + Live slots
    std::unique_ptr<Slot[]> Slots;
    std::unique_ptr<uint32_t[]> VCs;
    std::vector<netkat::PacketView::Field> Fields;
  };

  /// A live node moved out of a sparse old chunk (see evictIfSparse).
  struct Stray {
    Slot S; ///< FieldOff indexes Fields
    std::unique_ptr<uint32_t[]> VC;
    std::vector<netkat::PacketView::Field> Fields;
  };

  /// A node wherever it is stored: its slot, clock and header.
  struct NodeRef {
    Slot *S = nullptr;
    uint32_t *VC = nullptr;
    const netkat::PacketView::Field *Fields = nullptr;
    explicit operator bool() const { return S != nullptr; }
    netkat::PacketView lp() const { return {Fields + S->FieldOff, S->FieldLen}; }
  };

  /// One witness event with its first-occurrence data. KVC/KSwIdx/KSwPos
  /// are only valid when Usable (the FO entry was live at resolution).
  struct EventRec {
    unsigned EventId = 0;
    bool Resolved = false;
    bool Usable = false;
    uint64_t KTicket = 0;
    uint32_t KSwIdx = 0;
    uint32_t KSwPos = 0;
    std::vector<uint32_t> KVC;
  };

  struct GuardMatch {
    uint64_t Ticket;
  };

  /// An entry the slab scan cannot take (see feedEntry); committed in
  /// ticket order merged with the slab's pending slots.
  struct PendItem {
    uint64_t Ticket;
    int64_t Parent;
    netkat::Packet Lp;
    bool IsDup;
  };
  struct PendLater {
    bool operator()(const PendItem &A, const PendItem &B) const {
      return A.Ticket > B.Ticket;
    }
  };

  // Slab access.
  Chunk *chunk(uint64_t No);
  Chunk *chunkOf(uint64_t Ticket) { return chunk(Ticket >> ChunkShift); }
  Chunk *makeChunk(uint64_t No);
  void freeChunk(Chunk *C);
  /// The Pending or Live node at \p Ticket, in its chunk or a stray.
  NodeRef node(uint64_t Ticket);
  Slot *liveSlot(uint64_t Ticket) {
    NodeRef R = node(Ticket);
    return R && R.S->State == Live ? R.S : nullptr;
  }
  /// Empties the node at \p Ticket; frees its chunk if that was the last.
  void dropNode(uint64_t Ticket);
  uint64_t strayBytes(uint32_t FieldLen) const;
  /// Moves the live nodes of a sparse chunk wholly behind RetireCursor
  /// into Strays, so an old tree does not pin a mostly dead chunk.
  void evictIfSparse(Chunk *C);
  void stage(Chunk *C, Slot &S, int64_t Parent, const netkat::Packet &Lp,
             bool IsDup);
  /// Next pending slab ticket <= \p W, or NoTicket; moves ScanCursor.
  uint64_t nextPending(uint64_t W);
  void commitUpTo(uint64_t W);
  /// Every live ticket, ascending (parents before children).
  std::vector<uint64_t> liveTickets();
  /// Walks RetireCursor up to \p Limit (exclusive) or to the first live
  /// tail; returns that tail's root, or NoTicket. \p Collect: keep going
  /// past tails, gathering their roots into QuietRoots.
  uint64_t walkRetireCursor(uint64_t Limit, bool Collect);

  void commit(uint64_t Ticket);
  void onFresh(unsigned EventId);
  void resolvePendingFOs();
  void extendMasksForNewConfig();
  uint64_t relatedMask(netkat::PacketView From, netkat::PacketView To,
                       uint64_t ParentMask) const;
  bool guardMatches(unsigned EventId, netkat::PacketView Lp, Location At,
                    bool &Materialized);
  void retireTree(uint64_t RootTicket, bool Forced = false);
  void retireQuietTrees();
  void enforceWindow();
  bool isPruned(uint64_t Ticket) const;
  void prune(uint64_t Ticket);
  void violate(std::string Reason);
  void inconclusive(const char *Cause);
  uint32_t denseSwitch(SwitchId Sw);
  void growStride(uint32_t NewStride);
  void trackPeaks();

  const nes::Nes &N;
  const topo::Topology &Topo;
  StreamOptions O;

  // The slab. Chunks owns every chunk in ticket order; Dir caches the
  // pointer of chunk c at c % DirSlots; Spare keeps the last freed chunk's
  // buffers for reuse.
  std::map<uint64_t, std::unique_ptr<Chunk>> Chunks;
  std::vector<Chunk *> Dir;
  std::unique_ptr<Chunk> Spare;
  uint64_t FieldBytes = 0; ///< field-pool capacity over Chunks and Spare
  std::unordered_map<uint64_t, Stray> Strays;
  uint64_t StrayBytes = 0;

  // Reorder state: pending slots are >= ScanCursor; Late holds the rest.
  uint64_t ScanCursor = 0;
  uint64_t SlabPending = 0;
  std::priority_queue<PendItem, std::vector<PendItem>, PendLater> Late;
  uint64_t LateFieldBytes = 0;
  int64_t LastCommitted = -1;

  uint64_t LiveNodes = 0;
  uint64_t LiveTrees = 0;
  /// Every live tree's tail is >= RetireCursor (quiet sweeps and the
  /// window-cap victim search both walk it forward).
  uint64_t RetireCursor = 0;
  std::vector<uint64_t> QuietRoots;
  std::vector<std::pair<uint64_t, NodeRef>> Path; ///< retiring chain, leaf first

  // Ledgered-duplicate pruning: committed tickets whose subtree is
  // excluded, ascending (commit order), evicted after the quiet horizon.
  std::deque<uint64_t> PrunedOrder;

  // Excusals that arrived before their entry.
  std::unordered_set<uint64_t> PendingExcuse;

  // Happens-before state: dense switch table, per-switch entry counts and
  // last vector clock (SwLastVC row i at i * Stride).
  std::vector<uint32_t> SwDense; ///< SwitchId -> dense index, or ~0u
  std::unordered_map<SwitchId, uint32_t> SwDenseWide; ///< ids >= 1 << 16
  uint32_t Stride = 1;
  std::vector<uint64_t> SwCount;
  std::vector<uint32_t> SwLastVC;

  // Guard evaluation scratch: the materialized header, per-event hits.
  netkat::Packet GuardPkt;
  std::vector<uint8_t> GuardHit;

  // The operational witness: occurred events, their configurations, and
  // per-event first-occurrence records.
  DenseBitSet Occurred;
  std::vector<const topo::Configuration *> Configs; // C0..Cn, <= 64
  std::vector<EventRec> EventRecs;
  uint64_t AllConfigMask = 1; // low Configs.size() bits

  // First-occurrence resolution. GuardQ[e] buffers committed tickets
  // matching event e's guard past the FO frontier; FOWanted[e] keeps the
  // queue collecting after e occurred but before its FO resolved.
  std::vector<std::deque<GuardMatch>> GuardQ;
  std::vector<bool> GuardQOverflow;
  std::vector<bool> FOWanted;
  int64_t FOFrontier = -1;        ///< ticket of the last resolved FO
  std::deque<unsigned> PendingFO; ///< witness indices awaiting their FO

  uint64_t MaxRetiredTicket = 0;
  bool AnyRetired = false;
  uint64_t CommitsSinceSweep = 0;
  uint64_t GuardQTotal = 0;

  StreamVerdict CurVerdict = StreamVerdict::Ok;
  std::string ViolationReason;
  std::vector<std::string> Causes;
  /// noteGap: the feed is missing entries; violate() degrades to
  /// inconclusive(GapCause) from then on.
  bool Gappy = false;
  std::string GapCause;
  StreamStats St;
  bool Finished = false;
};

/// Replays a fully merged trace (plus an optional fault ledger) through a
/// StreamChecker — the differential-testing harness: on any trace the
/// batch checker can hold, this must agree with checkAgainstNes.
StreamResult streamCheckTrace(const NetworkTrace &Tr,
                              const topo::Topology &Topo, const nes::Nes &N,
                              const FaultContext *Faults = nullptr,
                              StreamOptions O = StreamOptions());

} // namespace consistency
} // namespace eventnet

#endif // EVENTNET_CONSISTENCY_STREAMCHECK_H
