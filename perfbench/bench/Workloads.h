//===- perfbench/bench/Workloads.h - The four workloads ---------*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One function per workload. Each generates its inputs from the seed,
/// runs its timed loop for the requested seconds, checks the outputs
/// with Oracles.h, and fills an Outcome. README.md says what each one
/// measures and why it was chosen.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Harness.h"

namespace perfbench {

Outcome runCompile(const RunOptions &O);
Outcome runUpdate(const RunOptions &O);
Outcome runVerified(const RunOptions &O);
Outcome runServe(const RunOptions &O);

/// Number of distinct corruptions the self-test applies per workload.
inline constexpr int CompileCorruptions = 2;
inline constexpr int UpdateCorruptions = 1;
inline constexpr int VerifiedCorruptions = 2;
inline constexpr int ServeCorruptions = 2;

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
