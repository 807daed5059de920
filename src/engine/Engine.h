//===- engine/Engine.h - Sharded concurrent data-plane engine ---*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concurrent execution substrate for compiled NESes: N worker
/// threads each own a shard of the topology's switches and exchange
/// packets over lock-free MPSC queues; a controller thread plays the
/// Figure 7 CTRLRECV/CTRLSEND roles. Per-switch event registers are
/// single-writer (the owning shard), so the Section 4 tag/digest
/// protocol runs without locks:
///
///  - IN: an injected packet is stamped with the ingress switch's
///    current event-set tag by the owner, exactly the Figure 7 IN rule.
///  - SWITCH: the owner learns digest events and greedily-consistent
///    fresh events, forwards with the *stamped* tag's pipeline (packets
///    in flight never see a mixed configuration — the table a packet is
///    matched against is chosen by its immutable tag, and all lowered
///    pipelines are immutable), then extends the outgoing digest.
///  - Configuration transitions are atomic pointer swaps of the
///    switch's published view (tag + register); readers (stats, test
///    monitors) are RCU-style lock-free, and old views are retired
///    through an epoch domain (engine/Rcu.h).
///
/// One trace channel: each hop is recorded once, as a StreamItem on its
/// shard's watermarked stream, ticketed from a global atomic counter
/// (per-switch order is the owner's real processing order; a parent's
/// ticket always precedes its children's). Fault drops and overload
/// sheds ride the same stream as Excuse items. An external collector
/// drains it live (StreamTrace: the streaming Definition 6 checker), or
/// finish() drains it itself (RecordTrace) and buildBatchTrace() sorts
/// it by ticket into a consistency::NetworkTrace, so the batch checker
/// applies to concurrent executions exactly as it does to the
/// sequential Machine and Simulation.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_ENGINE_ENGINE_H
#define EVENTNET_ENGINE_ENGINE_H

#include "consistency/Trace.h"
#include "engine/Compiled.h"
#include "engine/Partition.h"
#include "engine/Queue.h"
#include "engine/Rcu.h"
#include "engine/Stats.h"
#include "engine/TrafficGen.h"
#include "engine/Wake.h"
#include "faults/Injector.h"
#include "nes/Nes.h"
#include "obs/Histogram.h"
#include "obs/TraceRing.h"
#include "support/BitSet.h"
#include "topo/Topology.h"

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace eventnet {
namespace engine {

/// What a producer does when a shard's bounded ring is full and the
/// backlog keeps growing.
enum class OverloadPolicy : uint8_t {
  /// Bounded spin -> yield -> exponential backoff retry on the ring,
  /// then spill to the unbounded overflow deque. Lossless; producers
  /// still never block indefinitely (a cycle of full rings with
  /// blocking producers-who-are-consumers would deadlock).
  Block,
  /// Bound the backlog at ring capacity; beyond it, shed the *oldest*
  /// buffered data-plane message to admit the new one. Control messages
  /// are never shed; every shed is accounted (per-shard counter, drop
  /// tally, excused trace ticket) so the audit stays exact.
  ShedOldest,
  /// Bound the backlog at ring capacity; beyond it, refuse the incoming
  /// data-plane message. Same accounting as ShedOldest.
  ShedNewest,
};

/// Stable lowercase name: "block", "shed-oldest", "shed-newest".
const char *overloadPolicyName(OverloadPolicy P);

/// Inverse of overloadPolicyName; nullopt for unknown names.
std::optional<OverloadPolicy> parseOverloadPolicy(const std::string &Name);

/// Engine construction parameters.
struct EngineConfig {
  /// Worker threads; switches are placed on shards by Partition.
  unsigned NumShards = 1;
  /// How switches map to shards (engine/Partition.h). The default grows
  /// contiguous regions and refines their boundaries so most hops stay
  /// on their owning worker; "modulo" is the historical round-robin
  /// placement, kept as the comparison baseline.
  PartitionStrategy Partition = PartitionStrategy::Refined;
  /// Multiplicative load-balance bound the refinement pass must respect
  /// (max shard vertex-weight / ideal; see Partition.h for the exact
  /// ceiling).
  double ImbalanceBound = 1.25;
  /// Longest sleep (microseconds) of the adaptive idle backoff: a worker
  /// that drains nothing spins briefly, then yields, then sleeps in
  /// doubling steps up to this cap, so underloaded shards stop burning
  /// the memory bus polling their queue. 0 disables sleeping (spin/yield
  /// only, the historical behavior).
  unsigned IdleSleepUs = 128;
  /// Per-shard queue capacity (rounded up to a power of two).
  size_t QueueCapacity = 1 << 15;
  /// Controller re-broadcasts its event set to every switch (CTRLSEND),
  /// accelerating discovery beyond digest gossip. Off by default, like
  /// the simulator.
  bool CtrlBroadcast = false;
  /// The low-latency update pipeline: (a) a shard that detects an event
  /// applies the transition to its own subscribed switches immediately
  /// (the per-switch RCU view swap publishes each register
  /// independently, so no controller round-trip is needed); (b) the
  /// controller propagates event-id deltas routed by a load-time
  /// event->shard subscription index instead of full-bitset broadcasts,
  /// delivered over a per-shard priority lane that bypasses the data
  /// ring (a delta never queues behind a storm backlog);
  /// (c) the controller sleeps on an eventfd/self-pipe wake instead of
  /// the spin->yield->sleep backoff (whose IdleSleepUs cap is otherwise
  /// a built-in latency floor). Off = the historical controller path,
  /// kept so benches can measure both pipelines in one binary. Either
  /// way, merging a detected event into a register is the same
  /// union-with-occurred-events step CtrlBroadcast has always taken
  /// (single-event unions that would leave the NES family — the target
  /// register missing one of the event's causes — fall back to merging
  /// the sender's occurred-event context), so Definition 6 is
  /// unaffected.
  bool FastUpdates = true;
  /// Hosts answer echo requests in-engine (KindRequest -> KindReply).
  bool EchoReplies = true;
  /// Keep the whole trace stream and build the batch view at finish():
  /// trace(), traceTags() and the ledger's excused indices. The engine
  /// is its own collector, so nothing is ever shed. Turn off for
  /// pure-throughput benchmarking. Exclusive with StreamTrace (asserted;
  /// release builds let StreamTrace win).
  bool RecordTrace = true;
  /// Hand the trace stream to an external collector during the run
  /// (drainTraceStream). The streaming Definition 6 checker rides this:
  /// verification memory stays O(window) no matter how long the run is.
  /// The engine keeps no trace of its own; a collector that needs the
  /// batch view too (differential testing) keeps what it drains and
  /// passes it to buildBatchTrace().
  bool StreamTrace = false;
  /// StreamTrace only: per-shard cap on buffered stream items awaiting
  /// the collector (StreamBuf). A collector that falls behind the data
  /// path (e.g. the single-threaded streaming checker on an
  /// oversubscribed machine) must not grow the buffer with the horizon:
  /// past the cap the shard sheds the overflow, counts it
  /// (streamLagShed), and the checker reports inconclusive — the run's
  /// memory and exit latency stay bounded, the verdict degrades
  /// honestly, and the data path never blocks on verification.
  size_t StreamBufCap = 1 << 16;
  /// Record every host delivery in deliveries(). Turn off (with
  /// RecordTrace) for pure-throughput benchmarking: recording
  /// necessarily allocates per packet.
  bool RecordDeliveries = true;
  /// Look packets up with the contiguous classifier program (the batched
  /// zero-allocation fast path). Off = the flattened-FDD walk, kept as
  /// the differential-testing oracle.
  bool UseClassifier = true;
  /// Messages dequeued/enqueued per hot-loop iteration (amortizes the
  /// MPSC queue atomics; 1 degenerates to the PR 1 message-at-a-time
  /// loop).
  unsigned BatchSize = 32;
  /// Record per-hop queue-dwell and batch-occupancy histograms (obs/).
  /// Off by default: when off, the hot loop takes no timestamps and the
  /// recording calls reduce to a null-pointer test.
  bool LatencyHistograms = false;
  /// Per-shard obs trace-ring capacity in events (obs/TraceRing.h);
  /// 0 disables tracing entirely (no ring is even allocated).
  size_t TraceEventCapacity = 0;
  /// Behavior when a shard's ring overflows (see OverloadPolicy).
  OverloadPolicy Overload = OverloadPolicy::Block;
  /// Compiled fault plan, or null for no injection (the hooks then cost
  /// one predictable null/flag test, like the obs layer). The Injector
  /// must outlive the engine; it may clamp QueueCapacity.
  const faults::Injector *Faults = nullptr;
  /// Called on the *owning shard's worker thread* for every host
  /// delivery, after the delivery is trace-logged and counted. The sink
  /// must be fast and lock-light (it runs inside the hot loop) and
  /// thread-safe across shards. Empty = no sink, and the hook reduces
  /// to one predictable branch, like the obs layer.
  std::function<void(HostId, const netkat::Packet &)> DeliverySink;
  /// External stop request (e.g. a signal handler's flag). run() checks
  /// it between phases and stops injecting early; in-flight work still
  /// quiesces, so the trace and the audit stay complete for whatever was
  /// injected. Null = never stop early.
  const std::atomic<bool> *StopRequested = nullptr;
};

/// A sharded multi-threaded data-plane engine executing one NES.
class Engine {
public:
  Engine(const nes::Nes &N, const topo::Topology &Topo,
         EngineConfig C = EngineConfig());
  ~Engine();

  Engine(const Engine &) = delete;
  Engine &operator=(const Engine &) = delete;

  /// Executes \p W phase by phase (quiescing between phases) and shuts
  /// the threads down. One workload per Engine. Implemented on the
  /// streaming surface below: start(); per phase injectBatch() +
  /// awaitQuiescence(); finish().
  void run(const Workload &W);

  //===--------------------------------------------------------------------===//
  // Streaming mode (the net backend's surface)
  //===--------------------------------------------------------------------===//
  //
  // An external driver — one thread at a time — can run the engine
  // open-ended instead of handing it a whole Workload: start() spins the
  // threads up, injectBatch() feeds traffic as it arrives (batched by
  // ingress shard, one Pending add per shard), awaitQuiescence() blocks
  // until everything in flight has drained, and finish() joins the
  // threads and merges results exactly as run() does. start/injectBatch/
  // awaitQuiescence/finish must all be called from the same thread.

  /// Spins up the worker and controller threads. Call once.
  void start();
  /// Hands \p N injections to their ingress shards. Caller must have
  /// called start(). Never blocks indefinitely (full rings spill to the
  /// overflow deque under the overload policy).
  void injectBatch(const Injection *Inj, size_t N);
  /// Blocks until every in-flight message (packets, echo replies,
  /// controller work) has drained.
  void awaitQuiescence();
  /// Nonblocking quiescence probe. Monotone for the single external
  /// driver: once true, only the driver's own injectBatch() can make it
  /// false again.
  bool quiescent() const { return Pending.load() == 0; }
  /// Stops and joins the threads, merges traces/stats. Idempotent; the
  /// engine is read-only afterwards.
  void finish();

  /// One element of the trace stream, the engine's only record of a
  /// hop: either a trace entry or an excusal (a ledgered drop/shed whose
  /// chain may legitimately end at Ticket). Parent is the producing
  /// occurrence's ticket, -1 for a root; Tag is the configuration the
  /// entry's packet was stamped with. IsDup marks the egress entry of a
  /// fault-plan duplicate copy (informational: the copy is a packet like
  /// any other, and the checkers verify its subtree).
  struct StreamItem {
    enum Kind : uint8_t { Entry, Excuse } K = Entry;
    uint64_t Ticket = 0;
    int64_t Parent = -1;
    netkat::Packet Lp;
    bool IsDelivery = false;
    bool IsDup = false;
    nes::SetId Tag = 0;
  };

  /// Drains every shard's buffered stream items into \p Out (appended;
  /// per-shard ticket order, unordered across shards) and returns the
  /// commit watermark W: no shard will ever again produce an entry with
  /// ticket < W, so a checker may commit everything <= W - 1. Returns 0
  /// until every shard has published a first watermark. One collector
  /// thread at a time; callable concurrently with the run. Under
  /// RecordTrace the engine is the collector: finish() drains it.
  uint64_t drainTraceStream(std::vector<StreamItem> &Out);

  /// The batch view of a drained stream.
  struct BatchTrace {
    consistency::NetworkTrace Trace; ///< entries in ticket order
    std::vector<nes::SetId> Tags;    ///< parallel to Trace.entries()
    std::vector<int> Excused; ///< sorted indices of excused entries
  };
  /// Builds the batch view from \p Items (every item of one run, in any
  /// order): entries sorted by ticket, parent tickets translated into
  /// trace indices, Excuse items into excused indices. Ticket order is a
  /// legal global interleaving, so the result is what the batch
  /// Definition 6 checker expects.
  static BatchTrace buildBatchTrace(std::vector<StreamItem> Items);

  /// Stream items shed because a shard's StreamBuf sat at
  /// EngineConfig::StreamBufCap when the shard tried to flush (the
  /// collector was not keeping up). Nonzero means the streaming checker
  /// saw a gappy trace and its verdict must not be a clean pass.
  /// Callable concurrently with the run.
  uint64_t streamLagShed();

  /// Stream items currently buffered and awaiting the collector (sum of
  /// per-shard StreamBuf sizes; excludes worker-local pending items). A
  /// closed-loop producer can poll this between batches and yield until
  /// the checker catches up, keeping the hand-off below StreamBufCap so
  /// nothing is shed. Callable concurrently with the run.
  uint64_t streamBacklog();

  /// Counter snapshot; callable concurrently with run() from another
  /// thread (latency aggregates are only populated once run returned).
  Stats stats() const;

  /// The network trace (valid after run; empty unless RecordTrace).
  const consistency::NetworkTrace &trace() const { return Recorded.Trace; }

  /// Moves the trace out (for report assembly on a dying engine;
  /// trace() is empty afterwards).
  consistency::NetworkTrace takeTrace() { return std::move(Recorded.Trace); }

  /// The configuration tag each trace entry's packet carried, parallel
  /// to trace().entries().
  const std::vector<nes::SetId> &traceTags() const { return Recorded.Tags; }

  /// The fault ledger assembled by run(): the deterministic record
  /// multiset (drops/dups/delays/storms) plus, under RecordTrace, the
  /// trace indices the consistency checker needs to excuse ledgered
  /// drops and overload sheds (sheds happen without a plan too).
  const faults::FaultLedger &faultLedger() const { return Ledger; }

  /// Moves the ledger out (for report assembly on a dying engine).
  faults::FaultLedger takeFaultLedger() { return std::move(Ledger); }

  /// Packets handed to hosts, in per-shard processing order (merged).
  const std::vector<std::pair<HostId, netkat::Packet>> &deliveries() const {
    return MergedDeliveries;
  }

  /// The merged obs event timeline, sorted by timestamp (valid after
  /// run; empty unless EngineConfig::TraceEventCapacity was set). Moves
  /// the events out; subsequent calls return empty.
  std::vector<obs::TraceEvent> takeObsTrace() {
    return std::move(MergedObsTrace);
  }

  /// Seconds after run() start at which each switch first learned each
  /// event (valid after run) — the Figure 16(b) measurement. Derived
  /// from the monotonic per-shard learn stamps at merge time.
  const std::map<std::pair<SwitchId, nes::EventId>, double> &
  learnTimes() const {
    return MergedLearnTimes;
  }

  /// Raw event-detection -> register-learn latencies in nanoseconds,
  /// one sample per (switch, event) learn (valid after run) — what the
  /// Transition digest summarizes. Exposed raw so benches can merge
  /// percentiles across repeated runs.
  const std::vector<int64_t> &transitionLatenciesNs() const {
    return TransitionNs;
  }

  /// An RCU read of a switch's published view: tag, register, and the
  /// monotonic version stamped at each transition. Lock-free; callable
  /// from any thread at any time.
  struct ViewSnapshot {
    nes::SetId Tag = 0;
    DenseBitSet E;
    uint64_t Version = 0;
  };
  ViewSnapshot readView(SwitchId Sw) const;

  const nes::Nes &structure() const { return N; }
  const topo::Topology &topology() const { return Topo; }

  /// The shard placement this engine runs under (chosen at
  /// construction; immutable afterwards).
  const PartitionResult &partition() const { return Part; }

private:
  /// The immutable state a switch publishes at every transition.
  struct SwitchView {
    nes::SetId Tag = 0;
    DenseBitSet E;
    uint64_t Version = 0;
  };

  /// Owner-private plus published per-switch state.
  struct SwitchSlot {
    SwitchId Id = 0;
    uint32_t Shard = 0;
    nes::SetId Tag = 0; ///< owner's working tag (== setIndex(E))
    DenseBitSet E;      ///< owner's working register
    std::atomic<const SwitchView *> Published{nullptr};
  };

  /// A packet in flight with its Section 4 metadata.
  struct EnginePacket {
    netkat::Packet Pkt;
    nes::SetId Tag = 0;
    DenseBitSet Digest;
    int64_t Parent = -1; ///< trace ticket of the producing occurrence
    uint32_t Dense = 0;  ///< dense index of Pkt.sw() (set by the sender,
                         ///< so the hot loop never hashes a SwitchId)
    bool IngressLogged = false;
    /// Descends from a fault-plan duplicate: its terminal outcome is
    /// tallied separately (DupDelivered/DupDropped) so the drop audit
    /// can net duplicates out of delivered + dropped == injected.
    bool FromDup = false;
  };

  struct Msg {
    enum Kind : uint8_t { PacketIn, Inject, CtrlMerge, CtrlDelta } K =
        PacketIn;
    EnginePacket P;        // PacketIn
    HostId From = 0;       // Inject
    netkat::Packet Header; // Inject
    DenseBitSet Merge;     // CtrlMerge; CtrlDelta causal-fallback context
    uint32_t Event = 0;    // CtrlDelta: one event id
    int64_t EnqNs = 0; ///< ring-enqueue stamp (only when LatencyHistograms)
  };

  /// Control messages must never be shed (dropping a CTRLSEND would
  /// wedge event propagation, not degrade it).
  static bool isCtrlMsg(const Msg &M) {
    return M.K == Msg::CtrlMerge || M.K == Msg::CtrlDelta;
  }

  /// The per-shard latency-histogram pair (heap-allocated only when
  /// EngineConfig::LatencyHistograms is on; ~15 KB each).
  struct ShardLatency {
    obs::LogHistogram DwellNs;    ///< ring enqueue -> owner dequeue, ns
    obs::LogHistogram Occupancy;  ///< messages per non-empty drain batch
  };

  /// A recycled outgoing-message buffer for one target shard: slots keep
  /// their heap capacity across reset(), so steady-state egress batching
  /// allocates nothing (the flush *copies* into the target ring's cells,
  /// which are themselves recycled — see Queue.h).
  using MsgBuf = RecyclePool<Msg>;

  struct Shard {
    uint32_t Index = 0; ///< own position in Shards
    std::unique_ptr<BoundedMpscQueue<Msg>> Q; ///< lock-free fast path
    /// Overflow when the ring is full: producers never block (a cycle
    /// of full bounded queues would otherwise deadlock the workers);
    /// the owner drains the ring first, then the overflow.
    std::mutex OverflowMu;
    std::deque<Msg> Overflow;
    /// Priority control lane (FastUpdates): CtrlDelta messages bypass
    /// the data ring entirely, so an update is never stuck behind a
    /// storm backlog of data packets — the owner drains this lane ahead
    /// of every ring batch. Single producer (the controller thread),
    /// single consumer (the owner); Size is the owner's cheap
    /// emptiness probe, so the common empty case costs one relaxed
    /// load, no lock.
    std::mutex CtrlMu;
    std::deque<Msg> CtrlLane;
    std::atomic<uint32_t> CtrlLaneSize{0};
    std::vector<std::pair<HostId, netkat::Packet>> Delivered;
    /// First-learn stamp per (switch, event), raw monotonicNs() — the
    /// same clock as DetectNs, so the Transition digest is a pure
    /// monotonic difference (no wall-clock skew can enter it).
    std::map<std::pair<SwitchId, nes::EventId>, int64_t> LearnNs;
    RetireList<SwitchView> Retired;
    std::thread Thread;
    std::vector<netkat::Packet> Outs; ///< scratch (FDD-walk oracle path)
    PacketBuf ClsOut;                 ///< recycled classifier outputs
    std::vector<Msg> Batch;           ///< recycled dequeue batch slots
    std::vector<MsgBuf> OutBufs;      ///< recycled egress, per target
    MsgBuf SelfProc; ///< swap space for draining OutBufs[Index] in place
    /// Scratch bitsets for the SWITCH rule (capacity-reusing; the hot
    /// loop builds no fresh DenseBitSets).
    DenseBitSet ScratchKnown, ScratchFresh, ScratchExt, ScratchNew,
        ScratchDigest;
    /// Scratch register for the fast-update paths (shard-local fan-out
    /// and CtrlDelta merges); separate from the SWITCH-rule scratch so a
    /// mid-detection fan-out cannot clobber the Known/Fresh sets.
    DenseBitSet ScratchFan;
    RelaxedCounter Processed;
    RelaxedCounter Transitions;
    RelaxedCounter Dropped;
    RelaxedCounter QueueHighWater;
    RelaxedCounter IdleSleeps;
    RelaxedCounter Shed;   ///< messages shed here by the overload policy
    RelaxedCounter Stalls; ///< fault-plan stalls taken by this worker
    RelaxedCounter FastLearns; ///< registers advanced by the local fast path

    /// Fault-injection state; only touched when a plan is active.
    /// Owner-thread unless noted.
    struct DelayedMsg {
      uint32_t Target = 0;   ///< destination shard
      uint64_t ReleaseAt = 0; ///< DrainPolls threshold for release
      Msg M;
    };
    std::deque<DelayedMsg> Delayed;        ///< held hops (delay faults)
    uint64_t DrainPolls = 0;               ///< drainBatch calls, incl. empty
    uint64_t NonEmptyBatches = 0;          ///< stall cadence counter
    uint64_t StallEvery = 0;               ///< resolved stall rule; 0 = none
    uint32_t StallUs = 0;
    std::vector<faults::FaultRecord> FaultRecs; ///< ledgered link faults
    /// The trace stream (RecordTrace or StreamTrace). StreamPending is
    /// owner-private; under StreamTrace the owner flushes it to
    /// StreamBuf (StreamMu) once per loop iteration and then publishes
    /// StreamWatermark — a promise that this shard will never again log
    /// a ticket below it. Under RecordTrace it flushes once, at exit.
    std::vector<StreamItem> StreamPending;
    std::mutex StreamMu;
    std::vector<StreamItem> StreamBuf;
    uint64_t StreamLagShed = 0; ///< items shed at StreamBufCap (StreamMu)
    std::atomic<uint64_t> StreamWatermark{0};
    /// Parents of shed messages. Sheds happen on producer threads, so
    /// the list lives under OverflowMu; drainTraceStream surfaces it as
    /// Excuse items.
    std::vector<int64_t> ShedTickets;
    /// Observability (obs/): both null when the corresponding
    /// EngineConfig knob is off — recording calls then cost one
    /// predictable null test and the hot loop takes no timestamps.
    std::unique_ptr<obs::TraceRing> ObsRing;
    std::unique_ptr<ShardLatency> Lat;
  };

  /// Total growth events of a shard's recycled buffers (classifier
  /// output pool + egress slots). Non-atomic reads: only valid after the
  /// shard thread joined (mergeResults), not from concurrent stats().
  static uint64_t freelistGrowth(const Shard &S) {
    uint64_t G = S.ClsOut.grownCount() + S.SelfProc.grownCount();
    for (const MsgBuf &B : S.OutBufs)
      G += B.grownCount();
    return G;
  }

  void workerLoop(unsigned ShardIdx);
  void controllerLoop();
  /// Builds the event->switch subscription index (FastUpdates): which
  /// dense switches care about each event, grouped by owning shard, plus
  /// the per-event list of shards with at least one subscriber.
  void buildSubscriptions();
  /// Shard-local fast path: the detecting shard applies \p E to its own
  /// subscribed switches immediately (one RCU swap each), before the
  /// controller round-trip. \p DetectDense learns via the SWITCH rule's
  /// own Fresh merge and is skipped here. \p Ctx is the detection's
  /// consistent extension — occurred events covering \p E's causes.
  void fanOutLocal(Shard &S, unsigned E, uint32_t DetectDense,
                   const DenseBitSet &Ctx);
  /// Merges the single event \p E into \p Dense's register if new. When
  /// the single-event union is not an NES family member (the register
  /// lacks one of \p E's causes), merges \p Ctx — a set of occurred
  /// events containing \p E's enabling chain — instead.
  void mergeEventInto(Shard &S, uint32_t Dense, unsigned E,
                      const DenseBitSet &Ctx);
  /// Drains \p S's priority control lane (CtrlDelta messages); returns
  /// how many it processed.
  size_t drainCtrlLane(Shard &S);
  size_t drainBatch(Shard &S);
  /// Drains OutBufs[S.Index] in place (self-delivered hops never touch
  /// the ring or Pending) until every chain ends or leaves the shard.
  void drainSelf(Shard &S);
  /// Releases delay-held messages whose poll deadline passed.
  void releaseDelayed(Shard &S);
  /// Admits \p M to \p Dst's overflow under the configured overload
  /// policy (spill, or bounded-backlog shedding with full accounting).
  void overflowMsg(Shard &Dst, Msg &&M);
  /// Retires \p M unprocessed: Pending release, drop/shed tallies,
  /// excusal of the chain it ends. Caller holds Dst.OverflowMu.
  void shedLocked(Shard &Dst, Msg &M);
  void flushOut(Shard &S);
  void prefetchMsg(const Msg &M) const;
  void processMsg(Shard &S, Msg &M);
  void handleInject(Shard &S, HostId From, netkat::Packet Header);
  void processPacket(Shard &S, EnginePacket &P);
  void forwardOut(Shard &S, const EnginePacket &P, uint32_t AtDense,
                  const netkat::Packet &Out, const DenseBitSet &OutDigest);
  void applyRegister(Shard &S, SwitchSlot &Sl, const DenseBitSet &NewE);
  void sendToShard(uint32_t Target, Msg &&M);
  /// Pushes \p N already-Pending-counted messages into \p Target's ring
  /// (batch CAS), spilling leftovers to the overflow deque. Stamps each
  /// message's EnqNs when latency histograms are on (hence non-const).
  void pushBatchToShard(uint32_t Target, Msg *Msgs, size_t N);
  /// Records one obs trace event on \p S's ring; a null test when
  /// tracing is off.
  void obsRecord(Shard &S, obs::TraceKind K, uint32_t A, uint32_t B) {
    if (obs::TraceRing *R = S.ObsRing.get())
      R->record({monotonicNs() - StartNs.load(std::memory_order_relaxed),
                 A, B, K, static_cast<uint8_t>(S.Index)});
  }
  /// Records one hop on \p S's stream; returns its ticket, or -1 when
  /// no trace is kept.
  int64_t logEntry(Shard &S, const netkat::Packet &Lp, int64_t Parent,
                   bool IsDelivery, nes::SetId Tag);
  bool tracing() const { return C.RecordTrace || C.StreamTrace; }
  void mergeResults();
  /// The partition summary and per-shard counters shared by stats() and
  /// mergeResults() (one source of truth for both report shapes).
  void fillPartitionStats(Stats &S) const;
  /// Fault-injection counter totals (relaxed reads; live-safe).
  void fillFaultStats(Stats &S) const;
  /// Latency-histogram digests and trace-ring totals (lock-free; exact
  /// after join, racy-but-consistent during run for the sampler).
  void fillObsStats(Stats &S) const;
  ShardStats baseShardStats(const Shard &Sh) const;
  static int64_t monotonicNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  double nowSec() const {
    // StartNs is atomic: stats() may race run()'s clock reset.
    return static_cast<double>(monotonicNs() - StartNs.load()) * 1e-9;
  }

  const nes::Nes &N;
  const topo::Topology &Topo;
  EngineConfig C;

  SwitchIndex Idx;
  PartitionResult Part; ///< dense switch -> shard placement + quality
  CompiledNes Compiled;
  std::unique_ptr<SwitchSlot[]> Slots; ///< by dense switch index
  std::vector<std::unique_ptr<Shard>> Shards;

  // Controller.
  std::unique_ptr<BoundedMpscQueue<uint32_t>> CtrlQ;
  std::thread CtrlThread;
  DenseBitSet Occurred; ///< controller-thread private (R of Figure 7)
  /// Event-driven controller wake (FastUpdates): workers notify after
  /// pushing to CtrlQ, finish() notifies after raising StopFlag.
  ControllerWake CtrlWake;

  // Update-pipeline routing (built once at construction when
  // FastUpdates; all read-only afterwards).
  /// Dense switches subscribed to event E and owned by shard S, at
  /// [E * NumShards + S]. A switch subscribes to an event iff adding it
  /// to some family set changes the switch's table, or the event shares
  /// a family set with an event detectable at the switch (so its arrival
  /// can gate a future local detection via enables/con).
  std::vector<std::vector<uint32_t>> SubSwitches;
  /// Shards with at least one subscriber, per event (delta routing).
  std::vector<std::vector<uint32_t>> SubShards;
  /// Dense switches owned by each shard (explicit-broadcast deltas).
  std::vector<std::vector<uint32_t>> OwnedDense;

  mutable EpochDomain Epochs;
  std::atomic<uint64_t> Tickets{0};
  std::atomic<int64_t> Pending{0};
  std::atomic<bool> StopFlag{false};
  std::atomic<int64_t> StartNs{0}; ///< run() start, steady-clock ns
  bool Started = false; ///< start() ran (driver-thread private)
  /// Injection group buffers, one per shard; keep their capacity across
  /// injectBatch() calls (driver-thread private).
  std::vector<std::vector<Msg>> InjBufs;

  // Counters (cache-line padded, relaxed; see Stats.h).
  RelaxedCounter Injected, Delivered, Dropped, Forwarded, Events;
  RelaxedCounter CtrlDeltas; ///< delta messages routed by the controller

  // Fault injection. FaultArmed is per dense switch, read-only after
  // construction; StormRecs is controller-thread private until join.
  std::vector<bool> FaultArmed;
  std::vector<faults::FaultRecord> StormRecs;
  RelaxedCounter FaultDrops, FaultDups, FaultDelays, FaultSheds,
      FaultStalls, FaultStorms, DupDelivered, DupDropped;
  faults::FaultLedger Ledger; ///< assembled by mergeResults()
  std::vector<std::unique_ptr<std::atomic<int64_t>>> DetectNs; ///< per event
  double ElapsedSec = 0;
  std::atomic<bool> Ran{false};

  // Merged results (valid after run()).
  BatchTrace Recorded; ///< RecordTrace (Excused moves to the ledger)
  std::vector<std::pair<HostId, netkat::Packet>> MergedDeliveries;
  std::map<std::pair<SwitchId, nes::EventId>, double> MergedLearnTimes;
  std::vector<int64_t> TransitionNs; ///< detect->learn samples, ns
  std::vector<obs::TraceEvent> MergedObsTrace;
  Stats FinalStats;
};

} // namespace engine
} // namespace eventnet

#endif // EVENTNET_ENGINE_ENGINE_H
