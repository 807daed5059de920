//===- perfbench/bench/Compile.cpp - Source-to-classifier workload ---------===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
// Compiles a fixed program set from source (or AST) to classifier arenas,
// pass after pass, on one thread: the five Figure 9 applications, the
// bandwidth cap at growing N (its ETS is a chain of N+2 states, so ETS and
// FDD construction cost grows fastest there) and the Section 5.2 ring at
// growing size (many switches per configuration, so table extraction and
// lowering grow). The seed fixes the order of the set and the sample
// headers of the classifier check; the set itself is fixed so that every
// seed does the same work.
//
//===----------------------------------------------------------------------===//

#include "Oracles.h"
#include "Workloads.h"

#include "apps/Programs.h"
#include "engine/Compiled.h"
#include "ets/Ets.h"
#include "fdd/Fdd.h"
#include "nes/FromEts.h"
#include "netkat/PathSplit.h"
#include "stateful/Parser.h"

#include <algorithm>
#include <memory>
#include <random>

using namespace eventnet;

namespace perfbench {

namespace {

struct Program {
  std::string Name;
  std::string Source;   ///< empty for AST-built programs
  stateful::SPolRef Ast; ///< set for AST-built programs
  topo::Topology Topo;
  int BandwidthN = -1;
  bool IsRing = false;
};

/// One program's compiled artifacts, kept from the last pass for the
/// classifier check.
struct Compiled {
  ets::Ets T;
  std::optional<nes::Nes> N;
  std::unique_ptr<engine::SwitchIndex> Idx;
  std::unique_ptr<engine::CompiledNes> Cn;
};

std::vector<Program> programSet() {
  std::vector<Program> Set;
  for (apps::App &A : apps::caseStudyApps()) {
    Program P{A.Name, A.Source, A.Ast, A.Topo};
    if (A.Name == "bandwidth-cap") {
      P.BandwidthN = 10;
      P.Name = "bandwidth-cap-10";
    }
    Set.push_back(std::move(P));
  }
  for (unsigned N : {50u, 100u, 200u, 400u}) {
    apps::App A = apps::bandwidthCapApp(N);
    Set.push_back({"bandwidth-cap-" + std::to_string(N), A.Source, nullptr,
                   A.Topo, static_cast<int>(N)});
  }
  for (unsigned Sw : {16u, 64u, 128u}) {
    apps::App A = apps::ringApp(Sw, Sw / 2);
    Program P{"ring-" + std::to_string(Sw), "", A.Ast, A.Topo};
    P.IsRing = true;
    Set.push_back(std::move(P));
  }
  return Set;
}

/// Runs every stage on \p P; false (and a message in \p Err) if a stage
/// failed.
bool compileOne(const Program &P, uint64_t Pass, Compiled &Out,
                std::string &Err) {
  stateful::SPolRef Ast = P.Ast;
  if (!P.Source.empty()) {
    Span S("stateful.parseProgram", Pass);
    api::Result<stateful::Parsed> Parsed = stateful::parseProgram(P.Source);
    if (!Parsed.ok()) {
      Err = Parsed.status().str();
      return false;
    }
    Ast = Parsed->Program;
  }
  ets::BuildResult B;
  {
    Span S("ets.buildEts", Pass);
    B = ets::buildEts(Ast, P.Topo);
  }
  if (!B.Ok) {
    Err = B.Error;
    return false;
  }
  {
    Span S("nes.fromEts", Pass);
    nes::ConvertResult C = nes::fromEts(B.T);
    if (!C.Ok || !C.N->isLocallyDetermined()) {
      Err = C.Ok ? "not locally determined" : C.Error;
      return false;
    }
    Out.N.emplace(std::move(*C.N));
  }
  Out.T = std::move(B.T);
  {
    Span S("engine.CompiledNes", Pass);
    Out.Idx = std::make_unique<engine::SwitchIndex>(P.Topo);
    Out.Cn = std::make_unique<engine::CompiledNes>(*Out.N, *Out.Idx);
  }
  return true;
}

/// Seconds to compile every ETS state's projected policy to per-switch
/// tables again with a fresh FDD manager: the FDD share of buildEts.
double fddRecompileSeconds(const std::vector<Program> &Set,
                           const std::vector<Compiled> &Out) {
  int64_t T0 = nowNs();
  for (size_t I = 0; I != Set.size(); ++I) {
    Span S("fdd.compile", I);
    fdd::FddManager M;
    for (const ets::Vertex &V : Out[I].T.vertices()) {
      netkat::PathSplitResult Split = netkat::splitAtLinks(V.Projected);
      fdd::NodeId Local = M.compile(Split.Local);
      for (SwitchId Sw : Set[I].Topo.switches())
        (void)M.toSwitchTable(Local, Sw);
    }
  }
  return secondsSince(T0);
}

} // namespace

Outcome runCompile(const RunOptions &O) {
  Outcome R;
  std::vector<Program> Set = programSet();
  std::mt19937_64 Rng(O.Seed);
  std::shuffle(Set.begin(), Set.end(), Rng);
  std::vector<Compiled> Out(Set.size());

  // One untimed pass: lazy interning and allocator growth happen here.
  std::string Err;
  for (size_t I = 0; I != Set.size(); ++I)
    if (!compileOne(Set[I], 0, Out[I], Err)) {
      R.fail(Set[I].Name + ": " + Err);
      return R;
    }
  R.SetupS = secondsSince(processStartNs());

  std::vector<double> PassS;
  int64_t WinStart = nowNs();
  int64_t Deadline = WinStart + static_cast<int64_t>(O.Seconds * 1e9);
  for (uint64_t Pass = 1; PassS.empty() || nowNs() < Deadline; ++Pass) {
    int64_t T0 = nowNs();
    {
      Span S("compile.pass", Pass);
      for (size_t I = 0; I != Set.size(); ++I) {
        Out[I] = Compiled();
        ++R.Attempted;
        if (!compileOne(Set[I], Pass, Out[I], Err)) {
          ++R.Failed;
          fprintf(stderr, "%s: %s\n", Set[I].Name.c_str(), Err.c_str());
        }
      }
    }
    PassS.push_back(secondsSince(T0));
    for (size_t I = 0; I != Set.size(); ++I) {
      if (!Out[I].N)
        continue;
      CompiledShape Got{static_cast<unsigned>(Out[I].T.vertices().size()),
                        Out[I].N->numEvents(), Out[I].N->numSets()};
      if (O.Corrupt == 1 && Set[I].BandwidthN >= 0 && Pass == 1)
        ++Got.States;
      for (std::string &E :
           checkShape(Set[I].Name, Set[I].BandwidthN, Set[I].IsRing, Got))
        R.fail(E);
    }
  }
  int64_t WinEnd = nowNs();
  double WindowS = static_cast<double>(WinEnd - WinStart) * 1e-9;

  // The last pass's classifiers against Table::apply, every configuration
  // of every program on seeded sample headers.
  uint64_t Rules = 0, Words = 0, States = 0;
  bool Corrupted = false;
  for (size_t I = 0; I != Set.size(); ++I) {
    const Compiled &C = Out[I];
    if (!C.N)
      continue;
    States += C.T.vertices().size();
    for (nes::SetId S = 0; S != C.N->numSets(); ++S) {
      const topo::Configuration &Cfg = C.N->configOf(S);
      Rules += Cfg.totalRules();
      for (uint32_t D = 0; D != C.Idx->numSwitches(); ++D) {
        SwitchId Sw = C.Idx->idOf(D);
        const engine::MatchPipeline &Pipe = C.Cn->pipe(S, D);
        Words += Pipe.classifier().codeWords();
        std::vector<netkat::Packet> Samples = sampleHeaders(
            Cfg.tableFor(Sw), Sw, O.Seed * 1000003 + I * 131 + S * 7 + D, 32);
        std::vector<std::vector<netkat::Packet>> Got;
        for (const netkat::Packet &P : Samples)
          Got.push_back(classifierOutput(Pipe, P));
        if (O.Corrupt == 2 && !Corrupted)
          for (auto &G : Got)
            if (!G.empty()) {
              G[0].set(FieldPt, G[0].pt() + 100);
              Corrupted = true;
              break;
            }
        for (std::string &E : checkClassifier(
                 Set[I].Name + " set " + std::to_string(S) + " switch " +
                     std::to_string(Sw),
                 Cfg.tableFor(Sw), Samples, Got))
          R.fail(E);
      }
    }
  }

  std::vector<double> PassRate;
  for (double S : PassS)
    PassRate.push_back(static_cast<double>(Set.size()) / S);
  R.Throughput = fastRate(PassRate);
  R.report("compile_s", percentile(PassS, 0.5), "s");
  R.report("compile_fast_s", percentile(PassS, 0.1), "s");
  R.report("passes", static_cast<double>(PassS.size()), "count");
  R.report("programs_per_pass", static_cast<double>(Set.size()), "count");

  if (O.Trace) {
    double Passes = static_cast<double>(PassS.size());
    std::map<std::string, SpanTotals> T = spanTotals(WinStart, WinEnd);
    R.Layer["stateful.parse_s"] = T["stateful.parseProgram"].SelfS / Passes;
    R.Layer["ets.build_s"] = T["ets.buildEts"].SelfS / Passes;
    R.Layer["nes.from_ets_s"] = T["nes.fromEts"].SelfS / Passes;
    R.Layer["engine.lower_s"] = T["engine.CompiledNes"].SelfS / Passes;
    R.Layer["trace.unattributed_s"] = T["compile.pass"].SelfS / Passes;
    R.Layer["fdd.compile_s"] = fddRecompileSeconds(Set, Out);
    R.Layer["ets.states"] = static_cast<double>(States);
    R.Layer["flowtable.rules"] = static_cast<double>(Rules);
    R.Layer["engine.classifier_words"] = static_cast<double>(Words);
    R.Layer["trace.window_s"] = WindowS;
  }
  return R;
}

} // namespace perfbench
