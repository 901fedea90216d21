// Host-speed probes: fixed work written in this directory, timed in CPU
// time next to the program's own work.
//
// On a shared VM the CPU time of the same code moves by tens of percent over
// minutes with no steal recorded, most likely because other tenants share
// caches, memory bandwidth and core siblings. The probes slow down with it,
// and no change to the program moves them, so a program timing scaled by
// the probe timings taken just before and after it keeps the program's own
// share. probe.cpp is built with fixed flags for the same reason.
#pragma once

namespace perfbench {

/// CPU ms of each probe on one run of it.
struct ProbeTimes {
  double bytes_ms = 0.0;   ///< hashing, scanning and copying a 64 KB text
  double switch_ms = 0.0;  ///< pipe ping-pong with a child (syscalls, wakeups)

  double total_ms() const { return bytes_ms + switch_ms; }
};

/// The probe time that normalized figures are scaled to. On the 4-vCPU
/// x86-64 VM the benchmark was tuned on, total_ms() read 43-74 ms.
constexpr double kProbeReferenceMs = 50.0;

/// A CPU time `raw` measured between two probe runs, scaled to the
/// reference host state.
inline double at_reference_speed(double raw, const ProbeTimes& before,
                                 const ProbeTimes& after) {
  return raw * kProbeReferenceMs / (0.5 * (before.total_ms() + after.total_ms()));
}

/// Builds the probes' input and forks the echo process switch_ms talks to.
/// Call it before the harness starts any thread.
void start_probes();

/// Runs every probe once on the calling thread. No other harness thread may
/// run meanwhile: the times are the harness's CPU time (switch_ms leaves out
/// the echo process's half).
ProbeTimes run_probes();

}  // namespace perfbench
