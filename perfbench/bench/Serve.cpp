//===- perfbench/bench/Serve.cpp - Socket front-end workload ---------------===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
// net::Server in front of a 1-shard ring16 engine on loopback TCP, with
// echo replies on and trace recording off, driven by a client built here
// on sim::encodeFrame / decodeFrame over at most nproc connections.
// Socket reads, frame decode and encode, writes and the delivery ring do
// most of the work. Two phases share one server and engine:
//
//  1. paced (open loop): requests fall due at a fixed offered rate,
//     round-robin over the connections, whether or not earlier ones were
//     answered; each is timed from when it was due, so a stall also
//     delays the requests queued behind it.
//  2. closed loop: every connection keeps a fixed number of requests
//     outstanding; this phase gives the served rate.
//
// The seed draws each request's direction (the connection's assigned
// host pair or its reverse). Threads: this client (the main thread), the
// server loop, one engine shard and the engine's controller.
//
//===----------------------------------------------------------------------===//

#include "Oracles.h"
#include "Workloads.h"

#include "apps/Programs.h"
#include "engine/Engine.h"
#include "nes/Pipeline.h"
#include "net/Server.h"
#include "sim/Wire.h"

#include <arpa/inet.h>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <functional>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <random>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <unordered_map>

using namespace eventnet;

namespace perfbench {

namespace {

/// Offered rate of the paced phase, requests per second over all
/// connections: about half the closed-loop rate measured on the
/// reference host (README.md).
constexpr double PacedRate = 90000;
/// Requests outstanding per connection in the closed loop. Each wake-up
/// of the server loop or the shard then finds a large batch, so the
/// served rate depends less on how long wake-ups take on a shared host.
constexpr unsigned Window = 256;
/// Share of the run given to the paced phase; the closed loop, which
/// gives the served rate, gets the rest.
constexpr double PacedShare = 0.2;
constexpr int64_t DrainNs = 5'000'000'000;

struct Conn {
  int Fd = -1;
  HostId From = 0, To = 0;
  std::vector<uint8_t> In;
  std::vector<uint8_t> Out;
  size_t OutOff = 0;
  unsigned Outstanding = 0;
  bool Closed = false;    ///< the server closed its side
  bool WriteShut = false; ///< this side shut down after its Bye
};

/// The benchmark's client side of the Wire protocol.
class Client {
public:
  explicit Client(uint64_t Seed) : Rng(Seed) {}
  ~Client() {
    for (Conn &C : Conns)
      if (C.Fd >= 0)
        close(C.Fd);
  }
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  /// Connects \p N sessions and completes each handshake.
  bool connectAll(uint16_t Port, unsigned N, std::string &Err) {
    for (unsigned I = 0; I != N; ++I) {
      Conn C;
      C.Fd = socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in A{};
      A.sin_family = AF_INET;
      A.sin_port = htons(Port);
      A.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      int One = 1;
      setsockopt(C.Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
      if (C.Fd < 0 ||
          connect(C.Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A)) != 0) {
        Err = std::string("connect: ") + strerror(errno);
        if (C.Fd >= 0)
          close(C.Fd);
        return false;
      }
      fcntl(C.Fd, F_SETFL, fcntl(C.Fd, F_GETFL) | O_NONBLOCK);
      Conns.push_back(std::move(C));
      sim::WireFrame H;
      H.T = sim::WireFrame::Hello;
      H.A = sim::WireProtoVersion;
      H.Seq = I + 1;
      queue(Conns.back(), H);
    }
    int64_t Deadline = nowNs() + DrainNs;
    while (Acked < N && nowNs() < Deadline)
      pump(1'000'000);
    if (Acked < N)
      Err = "handshake timed out";
    return Acked == N;
  }

  /// Queues and flushes one echo request on connection \p C, due at
  /// \p DueNs.
  void request(size_t C, int64_t DueNs) {
    Conn &Cn = Conns[C];
    bool Reverse = Rng() % 2;
    sim::WireFrame F;
    F.T = sim::WireFrame::Inject;
    F.A = Reverse ? Cn.To : Cn.From;
    F.B = Reverse ? Cn.From : Cn.To;
    F.Kind = static_cast<uint32_t>(sim::KindRequest);
    F.Seq = NextSeq++;
    Waiting.emplace(F.Seq, Pending{DueNs, static_cast<uint32_t>(C)});
    ++Cn.Outstanding;
    ++Requests;
    Span S("net.client.send", F.Seq);
    queue(Cn, F);
    flush(Cn);
  }

  /// Waits up to \p MaxWaitNs for socket activity and handles it.
  void pump(int64_t MaxWaitNs) {
    std::vector<pollfd> P(Conns.size());
    for (size_t I = 0; I != Conns.size(); ++I)
      P[I] = {Conns[I].Fd,
              static_cast<short>(
                  Conns[I].Closed
                      ? 0
                      : POLLIN | (Conns[I].OutOff < Conns[I].Out.size()
                                      ? POLLOUT
                                      : 0)),
              0};
    timespec Ts{static_cast<time_t>(MaxWaitNs / 1'000'000'000),
                static_cast<long>(MaxWaitNs % 1'000'000'000)};
    int Ready;
    {
      Span S("net.client.wait");
      Ready = ppoll(P.data(), P.size(), &Ts, nullptr);
    }
    if (Ready <= 0)
      return;
    for (size_t I = 0; I != Conns.size(); ++I) {
      if (P[I].revents & POLLOUT)
        flush(Conns[I]);
      if (P[I].revents & (POLLIN | POLLHUP | POLLERR))
        receive(I);
    }
  }

  /// Sends Bye on every connection, shuts down the write side once the
  /// Bye is out (the server closes a session on that end of file) and
  /// waits for the server to close.
  void goodbye() {
    for (Conn &C : Conns) {
      sim::WireFrame B;
      B.T = sim::WireFrame::Bye;
      queue(C, B);
      flush(C);
    }
    int64_t Deadline = nowNs() + DrainNs;
    auto AllClosed = [&] {
      bool All = true;
      for (Conn &C : Conns) {
        if (!C.WriteShut && C.Out.empty()) {
          shutdown(C.Fd, SHUT_WR);
          C.WriteShut = true;
        }
        All &= C.Closed;
      }
      return All;
    };
    while (!AllClosed() && nowNs() < Deadline)
      pump(1'000'000);
  }

  uint64_t outstanding() const {
    uint64_t N = 0;
    for (const Conn &C : Conns)
      N += C.Outstanding;
    return N;
  }

  std::vector<Conn> Conns;
  uint64_t NextSeq = 1;
  uint64_t Requests = 0;
  uint64_t FramesSent = 0;
  uint64_t FramesReceived = 0;
  uint64_t Acked = 0;
  /// A request sent and not yet answered.
  struct Pending {
    int64_t DueNs;
    uint32_t Conn;
  };
  /// Requests awaiting their reply, by sequence number. A reply whose
  /// number is not here was never sent or was answered before. Memory
  /// stays bounded by what is in flight, so it does not grow with the
  /// run and peak_rss_mb measures the program, not this bookkeeping.
  std::unordered_map<uint64_t, Pending> Waiting;
  uint64_t Replies = 0;            ///< replies that matched Waiting
  std::vector<uint64_t> StraySeqs; ///< replies that did not
  bool RecordRtt = false;          ///< collect RttUs (the paced phase)
  std::vector<double> RttUs;       ///< reply time minus due time
  std::vector<sim::WireFrame> Sent;  ///< a sample, for the encode bench
  bool ProtocolError = false;
  /// Called with the connection index after each reply.
  std::function<void(size_t)> OnReply;

private:
  void queue(Conn &C, const sim::WireFrame &F) {
    size_t At = C.Out.size();
    C.Out.resize(At + sim::WireFrameBytes);
    sim::encodeFrame(F, C.Out.data() + At);
    ++FramesSent;
    if (Sent.size() < 4096)
      Sent.push_back(F);
  }

  void flush(Conn &C) {
    while (C.OutOff < C.Out.size()) {
      ssize_t N = write(C.Fd, C.Out.data() + C.OutOff, C.Out.size() - C.OutOff);
      if (N <= 0)
        break;
      C.OutOff += static_cast<size_t>(N);
    }
    if (C.OutOff == C.Out.size()) {
      C.Out.clear();
      C.OutOff = 0;
    }
  }

  void receive(size_t I) {
    Conn &C = Conns[I];
    uint8_t Buf[1 << 16];
    {
      Span S("net.client.read");
      for (;;) {
        ssize_t N = read(C.Fd, Buf, sizeof(Buf));
        if (N == 0) {
          C.Closed = true;
          break;
        }
        if (N < 0)
          break;
        C.In.insert(C.In.end(), Buf, Buf + N);
      }
    }
    Span S("net.client.decode");
    size_t Off = 0;
    for (;;) {
      sim::WireFrame F;
      size_t Used = 0;
      sim::FrameDecode D =
          sim::decodeFrame(C.In.data() + Off, C.In.size() - Off, F, Used);
      if (D == sim::FrameDecode::NeedMore)
        break;
      if (D == sim::FrameDecode::Malformed) {
        ProtocolError = true;
        C.In.clear();
        return;
      }
      Off += Used;
      ++FramesReceived;
      handle(I, F);
    }
    C.In.erase(C.In.begin(), C.In.begin() + static_cast<ptrdiff_t>(Off));
  }

  void handle(size_t I, const sim::WireFrame &F) {
    Conn &C = Conns[I];
    if (F.T == sim::WireFrame::HelloAck) {
      C.From = F.A;
      C.To = F.B;
      ++Acked;
      return;
    }
    if (F.T != sim::WireFrame::Deliver ||
        F.Kind != static_cast<uint32_t>(sim::KindReply))
      return; // the request's own delivery at its destination
    auto It = Waiting.find(F.Seq);
    if (It == Waiting.end()) {
      StraySeqs.push_back(F.Seq);
      return;
    }
    Pending P = It->second;
    Waiting.erase(It);
    ++Replies;
    if (RecordRtt)
      RttUs.push_back(static_cast<double>(nowNs() - P.DueNs) * 1e-3);
    --Conns[P.Conn].Outstanding;
    if (OnReply)
      OnReply(P.Conn);
  }

  std::mt19937_64 Rng;
};

/// Nanoseconds per encodeFrame and per decodeFrame over \p Frames.
std::pair<double, double> codecNs(const std::vector<sim::WireFrame> &Frames) {
  std::vector<uint8_t> Buf(Frames.size() * sim::WireFrameBytes);
  int64_t T0 = nowNs();
  for (int Rep = 0; Rep != 100; ++Rep)
    for (size_t I = 0; I != Frames.size(); ++I)
      sim::encodeFrame(Frames[I], Buf.data() + I * sim::WireFrameBytes);
  double EncNs = static_cast<double>(nowNs() - T0) / (100.0 * Frames.size());
  uint64_t Sum = 0;
  T0 = nowNs();
  for (int Rep = 0; Rep != 100; ++Rep)
    for (size_t Off = 0; Off < Buf.size();) {
      sim::WireFrame F;
      size_t Used = 0;
      if (sim::decodeFrame(Buf.data() + Off, Buf.size() - Off, F, Used) !=
          sim::FrameDecode::Ok)
        break;
      Sum += F.Seq;
      Off += Used;
    }
  double DecNs = static_cast<double>(nowNs() - T0) / (100.0 * Frames.size());
  return {EncNs, Sum ? DecNs : 0};
}

} // namespace

Outcome runServe(const RunOptions &O) {
  Outcome R;
  apps::App A = apps::ringApp(16, 8);
  api::Result<nes::CompiledProgram> C = nes::compileAst(A.Ast, A.Topo);
  if (!C.ok()) {
    R.fail("ring program failed to compile: " + C.status().str());
    return R;
  }
  const nes::Nes &N = *C->N;

  net::ServerConfig SC;
  SC.EnableUdp = false;
  net::Server Srv(SC);
  std::string Err;
  if (!Srv.open(Err)) {
    R.fail("server open: " + Err);
    return R;
  }
  engine::EngineConfig Cfg;
  Cfg.NumShards = 1;
  Cfg.RecordTrace = false;
  Cfg.RecordDeliveries = false;
  Cfg.DeliverySink = Srv.deliverySink();
  engine::Engine E(N, A.Topo, Cfg);
  Srv.attach(E);
  std::vector<pid_t> Before = listTasks();
  E.start();
  std::vector<pid_t> EngineTids = newTasks(Before, listTasks());
  std::atomic<bool> Stop{false};
  std::atomic<pid_t> SrvTid{0};
  std::thread Loop([&] {
    SrvTid.store(currentTid());
    Srv.serve(Stop);
  });
  // Stops and joins the server loop on every way out of this function.
  struct LoopJoiner {
    std::atomic<bool> &Stop;
    std::thread &T;
    ~LoopJoiner() {
      Stop.store(true);
      if (T.joinable())
        T.join();
    }
  } Joiner{Stop, Loop};

  unsigned NumConns = std::min(4u, usableCpus());
  Client Cl(O.Seed);
  bool Connected = Cl.connectAll(Srv.port(), NumConns, Err);
  R.noteThreads();
  if (!Connected)
    R.fail("client: " + Err);

  // Warm-up: a short paced burst, answered before timing starts.
  int64_t Now = nowNs();
  for (unsigned I = 0; Connected && I != 256; ++I)
    Cl.request(I % NumConns, Now);
  int64_t WarmDeadline = nowNs() + DrainNs;
  while (Connected && Cl.outstanding() && nowNs() < WarmDeadline)
    Cl.pump(1'000'000);
  R.SetupS = secondsSince(processStartNs());

  std::vector<pid_t> SrvTids{SrvTid.load()};
  double SrvCpu0 = cpuSeconds(SrvTids), EngCpu0 = cpuSeconds(EngineTids);
  uint64_t Frames0 = Cl.FramesSent + Cl.FramesReceived;

  // Phase 1: paced.
  Cl.RecordRtt = true;
  std::vector<double> LagUs;
  int64_t WinStart = nowNs();
  int64_t PacedNs = static_cast<int64_t>(O.Seconds * PacedShare * 1e9);
  uint64_t PacedCount =
      static_cast<uint64_t>(PacedRate * static_cast<double>(PacedNs) * 1e-9);
  for (uint64_t I = 0; Connected && I != PacedCount; ++I) {
    int64_t Due = WinStart + static_cast<int64_t>(
                                 static_cast<double>(I) * 1e9 / PacedRate);
    while (nowNs() < Due)
      Cl.pump(Due - nowNs());
    LagUs.push_back(static_cast<double>(nowNs() - Due) * 1e-3);
    Cl.request(I % NumConns, Due);
  }
  int64_t PacedDeadline = nowNs() + DrainNs;
  while (Connected && Cl.outstanding() && nowNs() < PacedDeadline)
    Cl.pump(1'000'000);
  Cl.RecordRtt = false;

  // Phase 2: closed loop, Window requests outstanding per connection.
  uint64_t ClosedFirst = Cl.Replies;
  bool Closing = false;
  Cl.OnReply = [&](size_t Conn) {
    if (!Closing)
      Cl.request(Conn, nowNs());
  };
  int64_t ClosedStart = nowNs();
  int64_t ClosedEnd =
      ClosedStart + static_cast<int64_t>(O.Seconds * (1 - PacedShare) * 1e9);
  for (unsigned I = 0; Connected && I != Window * NumConns; ++I)
    Cl.request(I % NumConns, nowNs());
  // The served rate comes from 50 ms slices of the phase.
  std::vector<double> SliceRate;
  for (int64_t SliceStart = ClosedStart; Connected && SliceStart < ClosedEnd;) {
    int64_t SliceEnd = std::min(ClosedEnd, SliceStart + 50'000'000);
    uint64_t Replies0 = Cl.Replies;
    while (nowNs() < SliceEnd)
      Cl.pump(SliceEnd - nowNs());
    int64_t Now2 = nowNs();
    SliceRate.push_back(static_cast<double>(Cl.Replies - Replies0) /
                        (static_cast<double>(Now2 - SliceStart) * 1e-9));
    SliceStart = Now2;
  }
  uint64_t ClosedReplies = Cl.Replies - ClosedFirst;
  Closing = true;
  int64_t ClosedDeadline = nowNs() + DrainNs;
  while (Connected && Cl.outstanding() && nowNs() < ClosedDeadline)
    Cl.pump(1'000'000);
  int64_t WinEnd = nowNs();
  double SrvCpuS = cpuSeconds(SrvTids) - SrvCpu0;
  double EngCpuS = cpuSeconds(EngineTids) - EngCpu0;
  uint64_t WindowFrames = Cl.FramesSent + Cl.FramesReceived - Frames0;

  Cl.goodbye();
  Stop.store(true);
  Loop.join(); // before reading the loop-thread-owned server counters
  E.finish();
  net::ServerStats St = Srv.stats();

  ServeTally T;
  T.RequestsSent = Cl.Requests;
  T.Replies = Cl.Replies;
  T.StraySeqs = Cl.StraySeqs;
  T.ClientFramesSent = Cl.FramesSent;
  T.ServerFramesIn = St.FramesIn;
  T.ServerShed = St.BackpressureShed;
  if (O.Corrupt == 1) { // one reply's sequence number altered
    --T.Replies;
    T.StraySeqs.push_back(Cl.NextSeq + 7);
  }
  if (O.Corrupt == 2) // one reply removed
    --T.Replies;
  uint64_t Missing = 0;
  for (std::string &E2 : checkServe(T, Missing))
    R.fail(E2);
  if (Cl.ProtocolError)
    R.fail("client received a malformed frame");
  R.Attempted = T.RequestsSent;
  R.Failed = Missing;
  if (Missing)
    R.Errors.push_back(std::to_string(Missing) +
                       " requests got no good reply");

  R.Throughput = fastRate(SliceRate);
  std::vector<double> &PacedRtt = Cl.RttUs;
  R.report("serve_rtt_p50_us", percentile(PacedRtt, 0.5), "us");
  R.report("serve_rtt_p99_us", percentile(PacedRtt, 0.99), "us");
  R.report("serve_frames_per_s", R.Throughput, "frames/s");
  R.report("closed_loop_replies", static_cast<double>(ClosedReplies),
           "count");
  R.report("paced_rate_per_s", PacedRate, "1/s");
  R.report("paced_requests", static_cast<double>(PacedRtt.size()), "count");
  R.report("connections", NumConns, "count");

  if (O.Trace) {
    double WindowS = static_cast<double>(WinEnd - WinStart) * 1e-9;
    auto [EncNs, DecNs] = codecNs(Cl.Sent);
    R.Layer["engine.cpu_s"] = EngCpuS;
    R.Layer["net.server_cpu_s"] = SrvCpuS;
    // Every frame the client sent or received in the window crossed the
    // server loop once.
    R.Layer["net.ns_per_frame"] =
        SrvCpuS * 1e9 / static_cast<double>(WindowFrames);
    R.Layer["net.reassembly_partial"] =
        static_cast<double>(St.ReassemblyPartial);
    R.Layer["net.client_encode_ns"] = EncNs;
    R.Layer["net.client_decode_ns"] = DecNs;
    R.Layer["net.send_lag_us"] = percentile(LagUs, 0.99);
    R.Layer["trace.window_s"] = WindowS;
    R.Layer["trace.unattributed_s"] =
        WindowS - rootSpanSeconds(WinStart, WinEnd);
  }
  return R;
}

} // namespace perfbench
