//===- api/BackendNet.cpp - "net" backend ---------------------------------===//
//
// The engine behind a real socket front-end: a net::Server event loop
// bridges loopback TCP/UDP clients to the engine's streaming surface,
// and the shared workload is replayed by in-process clients that speak
// the sim/Wire.h framing — every injection crosses a real socket, the
// session layer, the delivery ring, and comes back as a framed echo.
// The engine-side counters land in the uniform RunReport shape; the
// socket layer's land in RunReport::Net.
//
//===----------------------------------------------------------------------===//

#include "api/Run.h"

#include "api/StreamCollect.h"
#include "engine/Engine.h"
#include "engine/Partition.h"
#include "net/Poller.h"
#include "net/Server.h"
#include "net/Session.h"
#include "net/Socket.h"
#include "obs/Histogram.h"
#include "sim/Wire.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <thread>
#include <unordered_map>

#include <sys/socket.h>
#include <unistd.h>

using namespace eventnet;
using namespace eventnet::api;
using sim::WireFrame;

namespace {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

//===----------------------------------------------------------------------===//
// Workload replay client
//===----------------------------------------------------------------------===//

struct ReplayResult {
  uint64_t Connected = 0;
  uint64_t Delivers = 0; ///< Deliver frames received (any kind)
  uint64_t Replies = 0;  ///< of those, echo replies
  uint64_t Errors = 0;   ///< connect failures + protocol errors
  bool TimedOut = false;
  bool Stopped = false; ///< aborted by the caller's stop flag
  obs::HistogramSnapshot RttNs;
};

/// Replays a phase-structured workload through sockets: every injection
/// becomes an Inject frame on one of N connections, each phase is fenced
/// with a Barrier on every connection, and the next phase starts only
/// after every ack — the socket analogue of the engine backend's
/// quiescence-separated phases.
class ReplayClient : public net::Session::FrameHandler {
public:
  ReplayClient(const engine::Workload &W, uint16_t Port, bool Udp,
               unsigned NumConns, const std::atomic<bool> *Stop)
      : Port(Port), Udp(Udp), Stop(Stop) {
    Conns.resize(std::max(1u, NumConns));
    for (Conn &C : Conns)
      C.PhaseFrames.resize(W.Phases.size());
    for (size_t P = 0; P != W.Phases.size(); ++P) {
      const auto &Inj = W.Phases[P].Injections;
      for (size_t I = 0; I != Inj.size(); ++I) {
        const netkat::Packet &H = Inj[I].Header;
        WireFrame F;
        F.T = WireFrame::Inject;
        F.A = static_cast<uint32_t>(H.getOr(sim::ipSrcField(), Inj[I].From));
        F.B = static_cast<uint32_t>(H.getOr(sim::ipDstField(), 0));
        F.Kind = static_cast<uint32_t>(H.getOr(sim::kindField(), 0));
        F.Seq = static_cast<uint64_t>(H.getOr(sim::seqField(), 0));
        Conns[I % Conns.size()].PhaseFrames[P].push_back(F);
      }
    }
  }

  ReplayResult run();

private:
  struct Conn {
    net::Fd Sock;
    std::unique_ptr<net::Session> S;
    std::vector<std::vector<WireFrame>> PhaseFrames;
    uint64_t SentFrames = 0; ///< cumulative, the Barrier fence value
    bool Connected = false;
    bool Ready = false; ///< HelloAck seen
    bool BarrierAcked = false;
    int64_t BarrierSentNs = 0; ///< last fence post (UDP retransmission)
    bool ByeSent = false;
    bool Dead = false;
    bool WriteArmed = false;
    /// In-flight echo requests: seq -> send time.
    std::unordered_map<uint64_t, int64_t> Inflight;
  };

  bool onFrame(net::Session &S, const WireFrame &F) override;
  void startPhase();
  void repostBarriers();
  void maybeAdvance();
  void flush(size_t Idx);
  void teardown(size_t Idx);
  void handleEvent(const net::Ready &Ev);

  uint16_t Port;
  bool Udp;
  const std::atomic<bool> *Stop;
  net::Poller Poll;
  obs::LogHistogram Rtt;
  std::vector<Conn> Conns;
  ReplayResult R;
  size_t Phase = 0;
  bool PhaseRunning = false;
  bool AllDone = false;
};

bool ReplayClient::onFrame(net::Session &S, const WireFrame &F) {
  Conn &C = Conns[S.conn()];
  switch (F.T) {
  case WireFrame::HelloAck:
    S.open();
    C.Ready = true;
    return true;
  case WireFrame::Deliver: {
    ++R.Delivers;
    if (F.Kind != static_cast<uint32_t>(sim::KindReply))
      return true;
    ++R.Replies;
    auto It = C.Inflight.find(F.Seq);
    if (It != C.Inflight.end()) {
      Rtt.record(static_cast<uint64_t>(
          std::max<int64_t>(0, nowNs() - It->second)));
      C.Inflight.erase(It);
    }
    return true;
  }
  case WireFrame::BarrierAck:
    if (F.Seq > C.SentFrames)
      return false; // a fence we never posted
    if (C.BarrierAcked || F.Seq != C.SentFrames)
      return true; // duplicate or stale ack (UDP fence retransmission)
    C.BarrierAcked = true;
    return true;
  default:
    return false;
  }
}

void ReplayClient::startPhase() {
  PhaseRunning = true;
  int64_t Now = nowNs();
  for (size_t I = 0; I != Conns.size(); ++I) {
    Conn &C = Conns[I];
    if (C.Dead)
      continue;
    C.BarrierAcked = false;
    for (const WireFrame &F : C.PhaseFrames[Phase]) {
      C.S->enqueue(F);
      ++C.SentFrames;
      if (F.Kind == static_cast<uint32_t>(sim::KindRequest))
        C.Inflight.emplace(F.Seq, Now);
    }
    WireFrame B;
    B.T = WireFrame::Barrier;
    B.Seq = C.SentFrames; // fence: cumulative injects so far
    C.S->enqueue(B);
    C.BarrierSentNs = Now;
    flush(I);
  }
}

/// UDP only: the fence or its ack can drown in the delivery flood the
/// fenced traffic provoked. The Barrier is idempotent server-side and
/// stale acks are ignored in onFrame, so post it again periodically.
void ReplayClient::repostBarriers() {
  if (!Udp || AllDone || !PhaseRunning)
    return;
  int64_t Now = nowNs();
  for (size_t I = 0; I != Conns.size(); ++I) {
    Conn &C = Conns[I];
    if (C.Dead || C.BarrierAcked || C.ByeSent ||
        Now - C.BarrierSentNs <= 100 * 1000000)
      continue;
    WireFrame B;
    B.T = WireFrame::Barrier;
    B.Seq = C.SentFrames;
    C.S->enqueue(B);
    C.BarrierSentNs = Now;
    flush(I);
  }
}

void ReplayClient::maybeAdvance() {
  if (AllDone)
    return;
  if (!PhaseRunning) {
    // Handshake stage: wait for every live connection's HelloAck so the
    // server has assigned hosts before any traffic flows.
    for (const Conn &C : Conns)
      if (!C.Dead && !C.Ready)
        return;
    startPhase();
    return;
  }
  for (const Conn &C : Conns)
    if (!C.Dead && !C.BarrierAcked)
      return;
  if (Phase + 1 < Conns.front().PhaseFrames.size()) {
    ++Phase;
    startPhase();
    return;
  }
  AllDone = true;
  for (size_t I = 0; I != Conns.size(); ++I) {
    Conn &C = Conns[I];
    if (C.Dead)
      continue;
    WireFrame Bye;
    Bye.T = WireFrame::Bye;
    C.S->enqueue(Bye);
    C.ByeSent = true;
    flush(I);
  }
}

void ReplayClient::flush(size_t Idx) {
  Conn &C = Conns[Idx];
  if (C.Dead || !C.Connected)
    return;
  net::Session &S = *C.S;
  for (;;) {
    S.fillTx();
    size_t Pend = S.txPending();
    if (Pend == 0)
      break;
    ssize_t N;
    if (Udp) {
      size_t Chunk = std::min<size_t>(Pend, 48 * sim::WireFrameBytes);
      Chunk -= Chunk % sim::WireFrameBytes;
      N = ::send(C.Sock.get(), S.txData(), Chunk, 0);
    } else {
      N = ::write(C.Sock.get(), S.txData(), Pend);
    }
    if (N > 0) {
      S.txConsume(static_cast<size_t>(N));
      continue;
    }
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      break;
    ++R.Errors;
    teardown(Idx);
    return;
  }
  bool Want = S.wantsWrite();
  if (Want != C.WriteArmed) {
    Poll.mod(C.Sock.get(), Idx, /*Read=*/true, /*Write=*/Want);
    C.WriteArmed = Want;
  }
  if (C.ByeSent && !Want)
    teardown(Idx); // clean completion
}

void ReplayClient::teardown(size_t Idx) {
  Conn &C = Conns[Idx];
  if (C.Dead)
    return;
  if (C.Sock.valid())
    Poll.del(C.Sock.get());
  C.Sock.reset();
  C.Dead = true;
}

void ReplayClient::handleEvent(const net::Ready &Ev) {
  size_t Idx = static_cast<size_t>(Ev.Token);
  if (Idx >= Conns.size())
    return;
  Conn &C = Conns[Idx];
  if (C.Dead)
    return;
  if (Ev.Writable && !C.Connected) {
    int SoErr = 0;
    socklen_t Len = sizeof(SoErr);
    ::getsockopt(C.Sock.get(), SOL_SOCKET, SO_ERROR, &SoErr, &Len);
    if (SoErr != 0) {
      ++R.Errors;
      teardown(Idx);
      return;
    }
    C.Connected = true;
    ++R.Connected;
    WireFrame Hello;
    Hello.T = WireFrame::Hello;
    Hello.A = sim::WireProtoVersion;
    Hello.Seq = Idx;
    C.S->enqueue(Hello);
  }
  if (Ev.Readable) {
    uint8_t Buf[65536];
    for (int Round = 0; Round != 8; ++Round) {
      ssize_t N = ::read(C.Sock.get(), Buf, sizeof(Buf));
      if (N > 0) {
        if (!C.S->ingest(Buf, static_cast<size_t>(N), *this)) {
          ++R.Errors;
          teardown(Idx);
          return;
        }
        if (static_cast<size_t>(N) < sizeof(Buf))
          break;
        continue;
      }
      if (N == 0) {
        if (!C.ByeSent)
          ++R.Errors;
        teardown(Idx);
        return;
      }
      break; // EAGAIN
    }
  }
  if (Ev.Error) {
    if (!C.ByeSent)
      ++R.Errors;
    teardown(Idx);
    return;
  }
  if (C.S && C.S->wantsWrite())
    flush(Idx);
}

ReplayResult ReplayClient::run() {
  net::raiseFdLimit();
  int64_t Deadline = nowNs() + int64_t(120) * 1000000000;
  for (size_t I = 0; I != Conns.size(); ++I) {
    Conn &C = Conns[I];
    std::string Err;
    int Fd = Udp ? net::connectUdp("127.0.0.1", Port, Err)
                 : net::connectTcp("127.0.0.1", Port, Err);
    if (Fd < 0) {
      ++R.Errors;
      C.Dead = true;
      continue;
    }
    C.Sock.reset(Fd);
    net::SessionConfig SC;
    SC.Role = net::SessionRole::Client;
    C.S = std::make_unique<net::Session>(I, SC);
    Poll.add(Fd, I, /*Read=*/true, /*Write=*/true);
    C.WriteArmed = true;
  }

  std::vector<net::Ready> Events;
  for (;;) {
    bool AnyAlive = false;
    for (const Conn &C : Conns)
      if (!C.Dead) {
        AnyAlive = true;
        break;
      }
    if (!AnyAlive)
      break;
    if (Stop && Stop->load(std::memory_order_relaxed)) {
      R.Stopped = true;
      break;
    }
    if (nowNs() > Deadline) {
      R.TimedOut = true;
      break;
    }
    maybeAdvance();
    repostBarriers();
    int N = Poll.wait(Events, 1);
    for (int I = 0; I < N; ++I)
      handleEvent(Events[static_cast<size_t>(I)]);
  }
  for (size_t I = 0; I != Conns.size(); ++I)
    teardown(I);
  R.RttNs = Rtt.snapshot();
  return R;
}

//===----------------------------------------------------------------------===//
// Backend
//===----------------------------------------------------------------------===//

/// Socket-side report fields from the server's counter snapshot.
void fillNetSide(NetReport &N, const net::ServerStats &NS, bool Udp) {
  N.Enabled = true;
  N.Poller = net::Poller::backendName();
  N.Udp = Udp;
  N.Accepted = NS.Accepted;
  N.Closed = NS.Closed;
  N.ProtocolErrors = NS.ProtocolErrors;
  N.FramesIn = NS.FramesIn;
  N.FramesOut = NS.FramesOut;
  N.BytesIn = NS.BytesIn;
  N.BytesOut = NS.BytesOut;
  N.FramesInjected = NS.FramesInjected;
  N.DeliveryFrames = NS.DeliveryFrames;
  N.RepliesOut = NS.RepliesOut;
  N.ReassemblyPartial = NS.ReassemblyPartial;
  N.BackpressureShed = NS.BackpressureShed;
  N.RingShed = NS.RingShed;
  N.DeliveryUnroutable = NS.DeliveryUnroutable;
  N.NonNetDeliveries = NS.NonNetDeliveries;
  N.BarriersAcked = NS.BarriersAcked;
  N.UdpDatagrams = NS.UdpDatagrams;
}

LatencyReport rttReport(const obs::HistogramSnapshot &H) {
  LatencyReport L;
  L.Samples = H.TotalCount;
  L.MeanSec = H.mean() * 1e-9;
  L.P50Sec = static_cast<double>(H.percentile(0.5)) * 1e-9;
  L.P90Sec = static_cast<double>(H.percentile(0.9)) * 1e-9;
  L.P99Sec = static_cast<double>(H.percentile(0.99)) * 1e-9;
  L.MaxSec = static_cast<double>(H.Max) * 1e-9;
  return L;
}

class NetBackend : public Backend {
public:
  const char *name() const override { return "net"; }

  Result<RunReport> execute(const Compilation &C, const RunOptions &O,
                            const engine::Workload &W) override {
    if (O.Shards < 1 || O.Shards > 1024)
      return Status::error(Code::InvalidArgument,
                           "shards must be in [1, 1024], got " +
                               std::to_string(O.Shards));
    if (O.NetConnections < 1 || O.NetConnections > (1u << 16))
      return Status::error(Code::InvalidArgument,
                           "net connections must be in [1, 65536], got " +
                               std::to_string(O.NetConnections));
    auto Strategy = engine::parsePartitionStrategy(O.Partition);
    if (!Strategy)
      return Status::error(Code::InvalidArgument,
                           "unknown partition strategy '" + O.Partition +
                               "' (known: modulo, contiguous, refined)");
    auto Overload = engine::parseOverloadPolicy(O.Overload);
    if (!Overload)
      return Status::error(Code::InvalidArgument,
                           "unknown overload policy '" + O.Overload +
                               "' (known: block, shed-oldest, shed-newest)");
    std::optional<faults::Injector> Inj;
    if (O.Faults && O.Faults->enabled())
      Inj.emplace(*O.Faults);

    net::ServerConfig SC;
    SC.BindAddr = "127.0.0.1";
    SC.Port = 0; // ephemeral; never collides with a parallel test
    SC.EnableUdp = O.NetUdp;
    SC.Session.Overload = *Overload;
    net::Server Srv(SC);
    std::string Err;
    if (!Srv.open(Err))
      return Status::error(Code::RunError, "net backend: " + Err);

    engine::EngineConfig Cfg;
    Cfg.NumShards = O.Shards;
    Cfg.UseClassifier = O.Classifier;
    Cfg.BatchSize = O.Batch;
    Cfg.Partition = *Strategy;
    Cfg.LatencyHistograms = O.LatencyHistograms;
    Cfg.TraceEventCapacity = O.TraceCapacity;
    Cfg.Overload = *Overload;
    Cfg.DeliverySink = Srv.deliverySink();
    detail::configureTrace(Cfg, O);
    if (Inj)
      Cfg.Faults = &*Inj;
    engine::Engine E(C.structure(), C.topology(), Cfg);
    std::optional<detail::StreamCollector> Col;
    if (O.StreamingCheck)
      Col.emplace(E, C.structure(), C.topology(), detail::streamOptions(O),
                  O.CheckDifferential);
    Srv.attach(E);
    E.start();

    // The replay clients run on their own thread; the server loop owns
    // this one. The clients request the server's shutdown when the last
    // connection has said Bye (or the caller's stop flag fires).
    std::atomic<bool> StopServe{false};
    ReplayClient Client(W, Srv.port(), O.NetUdp, O.NetConnections,
                        O.StopFlag);
    ReplayResult RR;
    std::thread ClientThread([&] {
      RR = Client.run();
      StopServe.store(true, std::memory_order_release);
    });
    Srv.serve(StopServe);
    ClientThread.join();
    E.finish();

    RunReport R;
    detail::fillEngineReport(R, E, Col ? &*Col : nullptr, O, Inj.has_value());
    fillNetSide(R.Net, Srv.stats(), O.NetUdp);
    R.Net.Port = Srv.port();
    R.Net.Connections = RR.Connected;
    R.Net.ProtocolErrors += RR.Errors;
    R.Net.ClientDelivers = RR.Delivers;
    R.Net.ClientReplies = RR.Replies;
    R.Net.Rtt = rttReport(RR.RttNs);

    if (RR.TimedOut)
      return Status::error(Code::RunError,
                           "net backend: workload replay timed out");
    return R;
  }
};

} // namespace

namespace eventnet {
namespace api {

std::unique_ptr<Backend> makeNetBackend() {
  return std::make_unique<NetBackend>();
}

Result<RunReport> serveNet(const Compilation &C, const RunOptions &O,
                           const ServeNetOptions &S) {
  if (O.Shards < 1 || O.Shards > 1024)
    return Status::error(Code::InvalidArgument,
                         "shards must be in [1, 1024], got " +
                             std::to_string(O.Shards));
  auto Strategy = engine::parsePartitionStrategy(O.Partition);
  if (!Strategy)
    return Status::error(Code::InvalidArgument,
                         "unknown partition strategy '" + O.Partition + "'");
  auto Overload = engine::parseOverloadPolicy(O.Overload);
  if (!Overload)
    return Status::error(Code::InvalidArgument,
                         "unknown overload policy '" + O.Overload + "'");
  std::optional<faults::Injector> Inj;
  if (O.Faults && O.Faults->enabled())
    Inj.emplace(*O.Faults);

  net::ServerConfig SC;
  SC.BindAddr = S.BindAddr;
  SC.Port = S.Port;
  SC.EnableUdp = S.Udp;
  SC.Session.Overload = *Overload;
  net::Server Srv(SC);
  std::string Err;
  if (!Srv.open(Err))
    return Status::error(Code::RunError, "serve: " + Err);
  net::raiseFdLimit();
  if (S.OnListening)
    S.OnListening(Srv.port());

  engine::EngineConfig Cfg;
  Cfg.NumShards = O.Shards;
  Cfg.UseClassifier = O.Classifier;
  Cfg.BatchSize = O.Batch;
  Cfg.Partition = *Strategy;
  Cfg.LatencyHistograms = O.LatencyHistograms;
  Cfg.TraceEventCapacity = O.TraceCapacity;
  Cfg.Overload = *Overload;
  Cfg.DeliverySink = Srv.deliverySink();
  detail::configureTrace(Cfg, O);
  if (Inj)
    Cfg.Faults = &*Inj;
  engine::Engine E(C.structure(), C.topology(), Cfg);
  std::optional<detail::StreamCollector> Col;
  if (O.StreamingCheck)
    Col.emplace(E, C.structure(), C.topology(), detail::streamOptions(O),
                O.CheckDifferential);
  Srv.attach(E);
  E.start();

  // Without a stop flag the loop runs until the process dies; with one
  // (net/Signal.h) a SIGINT/SIGTERM drains sessions and the engine
  // before we get here. A duration composes with the flag: a watchdog
  // thread trips the serve loop at the deadline or when the caller's
  // flag fires, whichever is first — the soak harness's bounded-run
  // mode.
  static const std::atomic<bool> Never{false};
  const std::atomic<bool> &UserStop = O.StopFlag ? *O.StopFlag : Never;
  if (S.DurationSec > 0) {
    std::atomic<bool> StopServe{false};
    std::thread Watchdog([&] {
      auto Deadline = std::chrono::steady_clock::now() +
                      std::chrono::seconds(S.DurationSec);
      while (std::chrono::steady_clock::now() < Deadline &&
             !UserStop.load(std::memory_order_relaxed))
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      StopServe.store(true, std::memory_order_release);
    });
    Srv.serve(StopServe);
    Watchdog.join();
  } else {
    Srv.serve(UserStop);
  }
  E.finish();

  RunReport R;
  R.Backend = "net";
  R.Seed = O.Seed;
  detail::fillEngineReport(R, E, Col ? &*Col : nullptr, O, Inj.has_value());
  fillNetSide(R.Net, Srv.stats(), S.Udp);
  R.Net.Port = Srv.port();
  R.Net.Connections = R.Net.Accepted;
  detail::verifyReport(R, C, O);
  return R;
}

} // namespace api
} // namespace eventnet
