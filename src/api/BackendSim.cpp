//===- api/BackendSim.cpp - "sim" backend ---------------------------------===//
//
// The discrete-event simulator behind the façade's Backend interface.
// The shared workload's phases are laid out as quiescence-separated
// windows on the simulated clock (the sim-world analogue of the engine's
// run-to-quiescence phase barrier), injected through
// Simulation::scheduleInjection so every backend executes the exact same
// wire-format packets; host applications (echo replies) run natively.
//
//===----------------------------------------------------------------------===//

#include "api/Run.h"

#include "sim/Simulation.h"

#include <optional>

using namespace eventnet;
using namespace eventnet::api;

namespace {

/// Gap between phase starts. Orders of magnitude above the default
/// latencies (0.5 ms links, 2 ms controller RTT), so each phase drains
/// before the next begins, like the other backends' quiescence barriers.
constexpr double PhaseGapSec = 0.5;

class SimBackend : public Backend {
public:
  const char *name() const override { return "sim"; }

  Result<RunReport> execute(const Compilation &C, const RunOptions &O,
                            const engine::Workload &W) override {
    sim::SimParams P;
    P.Seed = O.Seed;
    sim::Simulation Sim(C.structure(), C.topology(),
                        sim::Simulation::Mode::Nes, P);
    std::optional<faults::Injector> Inj;
    if (O.Faults && O.Faults->enabled()) {
      Inj.emplace(*O.Faults);
      Sim.setFaults(&*Inj);
    }

    double At = 0.05;
    for (const engine::Phase &Ph : W.Phases) {
      for (const engine::Injection &Inj : Ph.Injections)
        Sim.scheduleInjection(At, Inj.From, Inj.Header);
      At += PhaseGapSec;
    }
    Sim.run(At + 1.0);

    RunReport R;
    R.PacketsInjected = Sim.hostEmissions();
    for (const auto &[Host, Loc] : C.topology().hosts())
      R.PacketsDelivered += Sim.deliveriesTo(Host).size();
    // The sim counts drops residually (it has no per-drop counter), so
    // deliveries descending from injected duplicates are discounted here
    // — they are outcomes no injection owns.
    const sim::Simulation::FaultCounters &FC = Sim.faultCounters();
    uint64_t EffDelivered = R.PacketsDelivered > FC.DupDelivered
                                ? R.PacketsDelivered - FC.DupDelivered
                                : 0;
    R.PacketsDropped = R.PacketsInjected > EffDelivered
                           ? R.PacketsInjected - EffDelivered
                           : 0;
    if (Inj) {
      R.Faults.Enabled = true;
      R.Faults.Drops = FC.Drops;
      R.Faults.Dups = FC.Dups;
      R.Faults.Delays = FC.Delays;
      R.Faults.DupDelivered = FC.DupDelivered;
      faults::FaultLedger L = Sim.takeFaultLedger();
      R.Faults.LedgerEntries = L.Records.size();
      R.Faults.Ledger = L.canonical();
      R.FaultCtx.ExcusedEntries = std::move(L.ExcusedEntries);
    }
    R.SwitchHops = Sim.switchHops();
    for (nes::EventId E = 0; E != C.structure().numEvents(); ++E)
      R.EventsDetected += Sim.eventTime(E) >= 0;
    R.ConfigTransitions = Sim.learnTimes().size();
    R.ElapsedSec = Sim.now();
    R.Trace = Sim.takeTrace();
    return R;
  }
};

} // namespace

namespace eventnet {
namespace api {
std::unique_ptr<Backend> makeSimBackend() {
  return std::make_unique<SimBackend>();
}
} // namespace api
} // namespace eventnet
