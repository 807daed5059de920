//===- sim/Simulation.cpp - Discrete-event network simulator --------------===//

#include "sim/Simulation.h"

#include <algorithm>
#include <cassert>

using namespace eventnet;
using namespace eventnet::sim;
using eventnet::consistency::TraceEntry;
using eventnet::netkat::Packet;

namespace {
// Shorthands for the shared wire-format fields (sim/Wire.h).
FieldId ipDst() { return sim::ipDstField(); }
FieldId probeF() { return sim::probeField(); }
} // namespace

double Simulation::FlowStats::goodputBps() const {
  double Dur = LastDelivery - FirstDelivery;
  if (Dur <= 0)
    return 0;
  return static_cast<double>(PayloadBytesDelivered) * 8.0 / Dur;
}

double Simulation::FlowStats::lossRate() const {
  if (PktsSent == 0)
    return 0;
  return 1.0 - static_cast<double>(PktsDelivered) /
                   static_cast<double>(PktsSent);
}

Simulation::Simulation(const nes::Nes &N, const topo::Topology &Topo, Mode M,
                       SimParams P)
    : N(N), Topo(Topo), M(M), P(P), Rand(P.Seed) {
  for (SwitchId Sw : Topo.switches()) {
    SwitchSim &S = Switches[Sw];
    if (M != Mode::Nes)
      S.Installed = N.configOf(N.emptySet()).tableFor(Sw);
  }
}

void Simulation::schedule(double At, std::function<void()> Fn) {
  assert(At >= Now && "scheduling into the past");
  Queue.push({At, EventSeq++, std::move(Fn)});
}

void Simulation::run(double Until) {
  while (!Queue.empty() && std::get<0>(Queue.top()) <= Until) {
    auto [At, Seq, Fn] =
        std::move(const_cast<QueueItem &>(Queue.top()));
    Queue.pop();
    Now = At;
    Fn();
  }
  Now = Until;
}

unsigned Simulation::overheadBytes() const {
  if (P.OverheadBytes)
    return P.OverheadBytes;
  // 2B tag + 2B shim header + the event-digest bitmap.
  return 4 + (N.numEvents() + 7) / 8;
}

Packet Simulation::makeHeader(HostId From, HostId To, Value Kind,
                              uint64_t Seq) {
  return makeWireHeader(From, To, Kind, Seq);
}

//===----------------------------------------------------------------------===//
// Data path
//===----------------------------------------------------------------------===//

void Simulation::hostSend(HostId From, Packet Header,
                          unsigned PayloadBytes) {
  ++Emissions;
  Location At = Topo.hostLoc(From);
  SimPacket Pk;
  Pk.Pkt = std::move(Header);
  Pk.Pkt.setLoc(At);
  Pk.PayloadBytes = PayloadBytes;
  Pk.WireBytes = PayloadBytes + (M == Mode::Nes ? overheadBytes() : 0);
  if (M == Mode::Nes) {
    // IN rule: stamp the ingress switch's current event-set tag.
    auto Tag = N.setIndex(Switches[At.Sw].E);
    assert(Tag && "switch register left the NES family");
    Pk.Tag = *Tag;
  }
  Pk.TraceParent = -1;
  // Log the emission now: the tag above reflects the switch state at
  // this instant, so the trace's per-switch order must place the
  // emission here, not at processing time.
  TraceEntry Entry;
  Entry.Lp = Pk.Pkt;
  Entry.Parent = -1;
  Pk.TraceParent = Trace.append(std::move(Entry));
  Pk.IngressLogged = true;
  enterSwitch(std::move(Pk), Now);
}

void Simulation::enterSwitch(SimPacket Pk, double At) {
  SwitchId Sw = Pk.Pkt.sw();
  auto It = Switches.find(Sw);
  assert(It != Switches.end() && "packet at unknown switch");
  SwitchSim &S = It->second;
  double PerPacket =
      P.SwitchDelaySec + (M == Mode::Nes ? P.NesTagProcessingSec : 0);
  double Start = std::max(At, S.BusyUntil) + PerPacket;
  S.BusyUntil = Start;
  auto Shared = std::make_shared<SimPacket>(std::move(Pk));
  schedule(Start, [this, Shared] { processAtSwitch(std::move(*Shared)); });
}

void Simulation::processAtSwitch(SimPacket Pk) {
  ++Hops;
  SwitchId Sw = Pk.Pkt.sw();
  SwitchSim &S = Switches[Sw];

  // Log the ingress located packet (link arrivals are logged here, at
  // processing time; host emissions were logged at IN time).
  if (!Pk.IngressLogged) {
    TraceEntry Entry;
    Entry.Lp = Pk.Pkt;
    Entry.Parent = Pk.TraceParent;
    Pk.TraceParent = Trace.append(std::move(Entry));
    Pk.IngressLogged = true;
  }
  int Idx = Pk.TraceParent;

  std::vector<Packet> Outs;
  DenseBitSet OutDigest;

  switch (M) {
  case Mode::Nes: {
    DenseBitSet Known = S.E | Pk.Digest;
    noteSwitchLearned(Sw, S.E, Known);

    // Fresh events (greedy, consistent; cf. runtime::Machine).
    DenseBitSet Fresh;
    for (nes::EventId E = 0; E != N.numEvents(); ++E) {
      if (Known.test(E) || Fresh.test(E))
        continue;
      if (!N.event(E).matches(Pk.Pkt))
        continue;
      DenseBitSet Ext = Known | Fresh;
      Ext.set(E);
      if (N.enables(Known, E) && N.con(Ext)) {
        Fresh.set(E);
        onEventOccurred(E);
      }
    }

    Outs = N.configOf(Pk.Tag).tableFor(Sw).apply(Pk.Pkt);
    DenseBitSet NewE = Known | Fresh;
    noteSwitchLearned(Sw, S.E, NewE);
    S.E = NewE;
    OutDigest = Pk.Digest | NewE;
    break;
  }
  case Mode::Uncoordinated: {
    // Event detection against the global occurred set (an optimistic
    // model of the baseline's controller watching packet-ins). Enabling
    // is judged against the set as of this packet's arrival so one
    // packet fires at most one link in a causal chain.
    DenseBitSet Before = Occurred;
    for (nes::EventId E = 0; E != N.numEvents(); ++E) {
      if (Before.test(E))
        continue;
      if (!N.event(E).matches(Pk.Pkt))
        continue;
      DenseBitSet Ext = Before;
      Ext.set(E);
      if (N.enables(Before, E) && N.con(Ext))
        onEventOccurred(E);
    }
    Outs = S.Installed.apply(Pk.Pkt);
    break;
  }
  case Mode::StaticReference:
    Outs = S.Installed.apply(Pk.Pkt);
    break;
  }

  for (Packet &Out : Outs) {
    SimPacket Child;
    Child.Tag = Pk.Tag;
    Child.Digest = OutDigest;
    Child.PayloadBytes = Pk.PayloadBytes;
    Child.WireBytes = Pk.WireBytes;
    Child.FlowSeq = Pk.FlowSeq;
    Child.TraceParent = Idx;
    Child.Pkt = std::move(Out);
    egress(std::move(Child));
  }
}

void Simulation::egress(SimPacket Pk) {
  Location At = Pk.Pkt.loc();

  if (auto H = Topo.hostAt(At)) {
    TraceEntry Entry;
    Entry.Lp = Pk.Pkt;
    Entry.Parent = Pk.TraceParent;
    Entry.IsDelivery = true;
    Pk.TraceParent = Trace.append(std::move(Entry));
    HostId Host = *H;
    auto Shared = std::make_shared<SimPacket>(std::move(Pk));
    schedule(Now + P.LinkLatencySec,
             [this, Host, Shared] { deliverToHost(Host, *Shared); });
    return;
  }

  auto Dst = Topo.linkFrom(At);
  if (!Dst)
    return; // dangling port: discard

  // Fault hook: the same content-addressed verdict the engine computes
  // at this site for this packet (faults/Injector.h).
  faults::Action FA = faults::Action::None;
  if (Faults)
    FA = Faults->decide(At.Sw, At.Pt, Pk.Pkt);
  if (FA == faults::Action::Drop) {
    // The egress occurrence never happens; the chain ends at the
    // processing entry, which the ledger excuses for the checker.
    Ledger.Records.push_back(faults::Injector::recordAt(
        faults::FaultKind::Drop, At.Sw, At.Pt, Pk.Pkt));
    if (Pk.TraceParent >= 0)
      Ledger.ExcusedEntries.push_back(Pk.TraceParent);
    ++FC.Drops;
    return;
  }

  LinkSim &L = Links[At];
  double Tx = static_cast<double>(Pk.WireBytes) * 8.0 / P.LinkBandwidthBps;
  double Start = std::max(Now, L.BusyUntil);
  if (Start - Now > P.MaxQueueDelaySec)
    return; // drop-tail: queue is full (no egress occurrence logged)
  L.BusyUntil = Start + Tx;

  int ChainParent = Pk.TraceParent;
  TraceEntry Entry;
  Entry.Lp = Pk.Pkt;
  Entry.Parent = ChainParent;
  Pk.TraceParent = Trace.append(std::move(Entry));

  double Arrive = Start + Tx + P.LinkLatencySec;
  if (FA == faults::Action::Delay) {
    // Held back on the wire: later traffic overtakes it (reordering).
    Arrive += Faults->plan().DelayExtraSec;
    Ledger.Records.push_back(faults::Injector::recordAt(
        faults::FaultKind::Delay, At.Sw, At.Pt, Pk.Pkt));
    ++FC.Delays;
  }
  Location To = *Dst;
  Pk.IngressLogged = false; // the arrival is logged at processing time
  auto Shared = std::make_shared<SimPacket>(std::move(Pk));
  schedule(Arrive, [this, To, Shared] {
    Shared->Pkt.setLoc(To);
    enterSwitch(std::move(*Shared), Now);
  });

  if (FA == faults::Action::Dup) {
    // Duplicate copy: its own egress entry rooted at the same parent
    // (the trace stays a tree). The copy is a packet like any other (it
    // can trigger events, and the checker verifies its subtree) and
    // consumes its own transmission slot right behind the original.
    SimPacket DupPk = *Shared;
    DupPk.FromDup = true;
    TraceEntry DupEntry;
    DupEntry.Lp = DupPk.Pkt;
    DupEntry.Parent = ChainParent;
    DupPk.TraceParent = Trace.append(std::move(DupEntry));
    Ledger.Records.push_back(faults::Injector::recordAt(
        faults::FaultKind::Dup, At.Sw, At.Pt, DupPk.Pkt));
    ++FC.Dups;
    double DupStart = std::max(Now, L.BusyUntil);
    L.BusyUntil = DupStart + Tx;
    double DupArrive = DupStart + Tx + P.LinkLatencySec;
    auto DupShared = std::make_shared<SimPacket>(std::move(DupPk));
    schedule(DupArrive, [this, To, DupShared] {
      DupShared->Pkt.setLoc(To);
      enterSwitch(std::move(*DupShared), Now);
    });
  }
}

//===----------------------------------------------------------------------===//
// Controller
//===----------------------------------------------------------------------===//

void Simulation::onEventOccurred(nes::EventId E) {
  if (Occurred.test(E))
    return;
  Occurred.set(E);
  EventTimes[E] = Now;

  if (M == Mode::Nes) {
    schedule(Now + P.CtrlLatencySec, [this, E] {
      CtrlKnown.set(E);
      if (!P.CtrlBroadcast)
        return;
      // CTRLSEND to every switch.
      double At = Now + P.CtrlLatencySec;
      for (const auto &[Sw, St] : Switches) {
        SwitchId Target = Sw;
        schedule(At, [this, Target] {
          SwitchSim &S = Switches[Target];
          DenseBitSet NewE = S.E | CtrlKnown;
          noteSwitchLearned(Target, S.E, NewE);
          S.E = NewE;
        });
      }
    });
    return;
  }

  if (M == Mode::Uncoordinated) {
    // The controller hears about the event (with the event-set as of the
    // notification), waits, then walks the switches in a random order
    // installing the corresponding configuration.
    auto SetAtEvent = N.setIndex(Occurred);
    assert(SetAtEvent && "occurred set left the NES family");
    nes::SetId Snapshot = *SetAtEvent;
    schedule(Now + P.CtrlLatencySec + P.UncoordDelaySec, [this, Snapshot] {
      const topo::Configuration &Cfg = N.configOf(Snapshot);
      std::vector<SwitchId> Order;
      for (const auto &[Sw, St] : Switches)
        Order.push_back(Sw);
      Rand.shuffle(Order);
      double At = Now;
      for (SwitchId Sw : Order) {
        At += P.UncoordPerSwitchGapSec;
        flowtable::Table T = Cfg.tableFor(Sw);
        schedule(At, [this, Sw, T] { Switches[Sw].Installed = T; });
      }
    });
  }
}

void Simulation::noteSwitchLearned(SwitchId Sw, const DenseBitSet &Before,
                                   const DenseBitSet &After) {
  After.forEach([&](unsigned E) {
    if (Before.test(E))
      return;
    auto Key = std::make_pair(Sw, static_cast<nes::EventId>(E));
    if (!LearnTimes.count(Key))
      LearnTimes[Key] = Now;
  });
}

double Simulation::eventTime(nes::EventId E) const {
  auto It = EventTimes.find(E);
  return It == EventTimes.end() ? -1 : It->second;
}

//===----------------------------------------------------------------------===//
// Host applications
//===----------------------------------------------------------------------===//

void Simulation::deliverToHost(HostId H, SimPacket Pk) {
  Delivered[H].push_back({Now, Pk.Pkt});
  if (Pk.FromDup)
    ++FC.DupDelivered;

  Value Kind = Pk.Pkt.getOr(kindField(), KindData);
  Value Dst = Pk.Pkt.getOr(ipDst(), -1);
  if (Dst != static_cast<Value>(H))
    return; // not addressed to this host (e.g. a flooded copy): ignore

  if (Kind == KindRequest) {
    // Echo: reply to the sender.
    Value Src = Pk.Pkt.getOr(ipSrcField(), -1);
    uint64_t Seq = static_cast<uint64_t>(Pk.Pkt.getOr(seqField(), 0));
    if (Src < 0)
      return;
    schedule(Now + P.HostDelaySec, [this, H, Src, Seq] {
      hostSend(H, makeHeader(H, static_cast<HostId>(Src), KindReply, Seq),
               P.AckBytes);
    });
    return;
  }

  if (Kind == KindReply) {
    uint64_t Seq = static_cast<uint64_t>(Pk.Pkt.getOr(seqField(), 0));
    auto It = AwaitingReply.find(Seq);
    if (It == AwaitingReply.end())
      return; // duplicate or timed-out reply
    PingRecord &R = Pings[It->second];
    R.Succeeded = true;
    R.Rtt = Now - R.SentAt;
    AwaitingReply.erase(It);
    return;
  }

  if (Kind == KindData) {
    ++Flow.PktsDelivered;
    Flow.PayloadBytesDelivered += Pk.PayloadBytes;
    if (Flow.FirstDelivery == 0)
      Flow.FirstDelivery = Now;
    Flow.LastDelivery = Now;
    // Ack back to the sender (used by the TCP-like flow; harmless for
    // UDP, whose sender ignores acks).
    Value Src = Pk.Pkt.getOr(ipSrcField(), -1);
    if (Src >= 0) {
      uint64_t Seq = static_cast<uint64_t>(Pk.Pkt.getOr(seqField(), 0));
      schedule(Now + P.HostDelaySec, [this, H, Src, Seq] {
        Packet Ack = makeHeader(H, static_cast<HostId>(Src), KindAck, Seq);
        hostSend(H, Ack, P.AckBytes);
      });
    }
    return;
  }

  if (Kind == KindAck) {
    uint64_t Seq = static_cast<uint64_t>(Pk.Pkt.getOr(seqField(), 0));
    for (size_t I = 0; I != TcpFlows.size(); ++I)
      if (TcpFlows[I].From == static_cast<HostId>(
                                  Pk.Pkt.getOr(ipDst(), -1)))
        tcpOnAck(I, Seq);
    return;
  }

  // KindProbe: consumed silently.
}

const std::vector<std::pair<double, Packet>> &
Simulation::deliveriesTo(HostId H) const {
  static const std::vector<std::pair<double, Packet>> Empty;
  auto It = Delivered.find(H);
  return It == Delivered.end() ? Empty : It->second;
}

//===----------------------------------------------------------------------===//
// Traffic scheduling
//===----------------------------------------------------------------------===//

void Simulation::schedulePing(double At, HostId From, HostId To,
                              double Timeout) {
  schedule(At, [this, From, To, Timeout] {
    uint64_t Seq = NextPingSeq++;
    PingRecord R;
    R.SentAt = Now;
    R.From = From;
    R.To = To;
    Pings.push_back(R);
    size_t Idx = Pings.size() - 1;
    AwaitingReply[Seq] = Idx;
    hostSend(From, makeHeader(From, To, KindRequest, Seq), P.AckBytes);
    schedule(Now + Timeout, [this, Seq] { AwaitingReply.erase(Seq); });
  });
}

void Simulation::scheduleInjection(double At, HostId From,
                                   netkat::Packet Header) {
  schedule(At, [this, From, Header = std::move(Header)]() mutable {
    hostSend(From, std::move(Header), P.AckBytes);
  });
}

void Simulation::scheduleProbe(double At, HostId From, HostId To) {
  schedule(At, [this, From, To] {
    Packet H = makeHeader(From, To, KindProbe, 0);
    H.set(probeF(), 1);
    hostSend(From, std::move(H), P.AckBytes);
  });
}

void Simulation::scheduleUdpFlow(double Start, double End, HostId From,
                                 HostId To, double Bps) {
  double Interval = static_cast<double>(P.PayloadBytes) * 8.0 / Bps;
  for (double At = Start; At < End; At += Interval)
    schedule(At, [this, From, To] {
      ++Flow.PktsSent;
      Packet H = makeHeader(From, To, KindData, 0);
      hostSend(From, std::move(H), P.PayloadBytes);
    });
}

void Simulation::scheduleTcpFlow(double Start, double End, HostId From,
                                 HostId To) {
  TcpState T;
  T.End = End;
  T.From = From;
  T.To = To;
  TcpFlows.push_back(T);
  size_t Idx = TcpFlows.size() - 1;
  schedule(Start, [this, Idx] { tcpTrySend(Idx); });
}

void Simulation::tcpTrySend(size_t FlowIdx) {
  TcpState &T = TcpFlows[FlowIdx];
  while (Now < T.End &&
         T.InFlight.size() < static_cast<size_t>(T.Window)) {
    uint64_t Seq = T.NextSeq++;
    T.InFlight[Seq] = Now;
    ++Flow.PktsSent;
    Packet H = makeHeader(T.From, T.To, KindData, Seq);
    hostSend(T.From, std::move(H), P.PayloadBytes);
    double Rto = std::max(4 * T.RttEstimate, 0.05);
    schedule(Now + Rto, [this, FlowIdx, Seq] { tcpOnTimeout(FlowIdx, Seq); });
  }
}

void Simulation::tcpOnAck(size_t FlowIdx, uint64_t Seq) {
  TcpState &T = TcpFlows[FlowIdx];
  auto It = T.InFlight.find(Seq);
  if (It == T.InFlight.end())
    return;
  T.RttEstimate = 0.8 * T.RttEstimate + 0.2 * (Now - It->second);
  T.InFlight.erase(It);
  T.Window += 1.0 / T.Window; // additive increase
  tcpTrySend(FlowIdx);
}

void Simulation::tcpOnTimeout(size_t FlowIdx, uint64_t Seq) {
  TcpState &T = TcpFlows[FlowIdx];
  auto It = T.InFlight.find(Seq);
  if (It == T.InFlight.end())
    return; // already acked
  T.InFlight.erase(It);
  T.Window = std::max(T.Window / 2, 1.0); // multiplicative decrease
  tcpTrySend(FlowIdx);
}
