//===- api/StreamCollect.h - Live trace collector for streaming check -*- C++
//-*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The glue between the engine's per-shard trace stream
/// (engine::Engine::drainTraceStream) and the single-threaded streaming
/// Definition 6 checker (consistency/StreamCheck.h): a collector thread
/// polls the stream while the run is live, feeds entries and excusals to
/// the checker, and commits up to the published watermark. In
/// differential mode it also keeps what it drains, and builds the batch
/// trace from it with the engine's own builder. Both engine-based
/// backends (the "engine" run backend and the net front-end, including
/// serveNet) share this loop and the report assembly below.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_API_STREAMCOLLECT_H
#define EVENTNET_API_STREAMCOLLECT_H

#include "api/Run.h"
#include "consistency/StreamCheck.h"
#include "engine/Engine.h"

#include <atomic>
#include <thread>

namespace eventnet {
namespace api {
namespace detail {

/// Owns the collector thread and the checker. Construct after
/// engine::Engine is built (with EngineConfig::StreamTrace set) and
/// before traffic flows; call finalize() after Engine::finish() has
/// joined the workers. With \p Tee, every drained item is also kept for
/// teedTrace().
class StreamCollector {
public:
  StreamCollector(engine::Engine &E, const nes::Nes &N,
                  const topo::Topology &Topo, consistency::StreamOptions SO,
                  bool Tee = false);
  ~StreamCollector();

  StreamCollector(const StreamCollector &) = delete;
  StreamCollector &operator=(const StreamCollector &) = delete;

  /// Stops the poll loop, drains the stream tail, degrades the verdict
  /// with "trace_dropped" if the obs ring lost \p TraceDropped events
  /// mid-run (and with "stream_backlog" if the shards shed stream items
  /// because this collector lagged), and returns the final verdict.
  /// Call exactly once, after the engine has finished.
  consistency::StreamResult finalize(uint64_t TraceDropped);

  /// Stream items the engine shed at StreamBufCap because this
  /// collector fell behind; valid after finalize().
  uint64_t lagShed() const { return LagShed; }

  /// The batch view of everything drained (empty unless teeing); call
  /// once, after finalize().
  engine::Engine::BatchTrace teedTrace() {
    return engine::Engine::buildBatchTrace(std::move(Teed));
  }

private:
  void loop();
  void feed(std::vector<engine::Engine::StreamItem> &Buf);

  engine::Engine &E;
  consistency::StreamChecker Chk;
  bool Tee;
  std::vector<engine::Engine::StreamItem> Teed;
  std::atomic<bool> Stop{false};
  uint64_t LagShed = 0;
  std::thread Th;
};

/// Streaming checker options for \p O: its window, and a quiet horizon
/// long enough to outlast fault-plan delays and deep shard backlogs.
consistency::StreamOptions streamOptions(const RunOptions &O);

/// Sets exactly one of the engine's trace flags: StreamTrace for a
/// streaming check (the collector tees in differential mode, so the
/// hand-off cap is lifted: the teed trace must be whole), else
/// RecordTrace.
void configureTrace(engine::EngineConfig &Cfg, const RunOptions &O);

/// Engine-side report fields shared by the engine backend, the net
/// backend and serveNet: counters, latency digests, fault summary, obs
/// trace, the streaming verdict (finalizing \p Col when there is one),
/// and the batch trace with its excusal context, from the engine or
/// from \p Col's tee. Call after Engine::finish().
void fillEngineReport(RunReport &R, engine::Engine &E, StreamCollector *Col,
                      const RunOptions &O, bool FaultsEnabled);

} // namespace detail
} // namespace api
} // namespace eventnet

#endif // EVENTNET_API_STREAMCOLLECT_H
