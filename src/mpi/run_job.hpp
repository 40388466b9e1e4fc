// The one way to run an MPI job (every experiment of the paper has this
// shape): build a Simulation, a Grid, the fault plan and a Job, run one
// program on every rank and report the slowest rank's finish time. MPMD
// programs branch on `r.rank()`; whatever a program needs from the Grid it
// reads through `r.job().grid()`.
#pragma once

#include <functional>
#include <vector>

#include "mpi/mpi.hpp"
#include "simcore/simulation.hpp"
#include "simfault/injector.hpp"
#include "topology/grid5000.hpp"

namespace gridsim::mpi {

struct JobResult {
  /// Finish time of the slowest rank; the timeout when the run was cut.
  /// Stale network events can outlive the application, so this is not the
  /// engine's final time.
  SimTime makespan = 0;
  bool timed_out = false;  ///< a rank was still running at the timeout
  TrafficStats traffic;
  /// TCP stall (RTO-like) events across the job; nonzero only under an
  /// active fault plan (see Job::degraded_progress_events).
  int degraded_progress_events = 0;
};

/// One host per rank, chosen from the built Grid.
using Placement = std::function<std::vector<net::HostId>(const topo::Grid&)>;
using RankBody = std::function<Task<void>(Rank&)>;

/// Runs `body` on every rank placed by `placement` on `spec`, with `faults`
/// installed. `hooks.on_start` sees the fresh engine; `hooks.on_finish`
/// sees it after the run, before the Job is torn down. `timeout` > 0 bounds
/// the virtual time (the paper's batch walltime limit); without one a
/// deadlocked program throws DeadlockError.
JobResult run_job(const topo::GridSpec& spec, const Placement& placement,
                  const ImplProfile& profile,
                  const tcp::KernelTunables& kernel,
                  const simfault::FaultPlan& faults, const RankBody& body,
                  const SimHooks& hooks = {}, SimTime timeout = 0);

}  // namespace gridsim::mpi
