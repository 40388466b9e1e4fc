#include "mpi/run_job.hpp"

#include <algorithm>
#include <utility>

namespace gridsim::mpi {

namespace {

// Awaiting the body resumes it by symmetric transfer, so this wrapper adds
// no event to the run.
Task<void> timed_rank(const RankBody* body, Rank* rank, SimTime* finish) {
  co_await (*body)(*rank);
  *finish = rank->sim().now();
}

}  // namespace

JobResult run_job(const topo::GridSpec& spec, const Placement& placement,
                  const ImplProfile& profile,
                  const tcp::KernelTunables& kernel,
                  const simfault::FaultPlan& faults, const RankBody& body,
                  const SimHooks& hooks, SimTime timeout) {
  Simulation sim;
  if (hooks.on_start) hooks.on_start(sim);
  topo::Grid grid(sim, spec);
  const auto injector = topo::install_faults(grid, faults);
  Job job(grid, placement(grid), profile, kernel);
  // kSimTimeNever until the rank's body returns.
  std::vector<SimTime> finish(static_cast<size_t>(job.size()),
                              kSimTimeNever);
  for (int r = 0; r < job.size(); ++r) {
    sim.spawn(
        timed_rank(&body, &job.rank(r), &finish[static_cast<size_t>(r)]));
  }
  if (timeout > 0) {
    sim.run_until(timeout);
  } else {
    sim.run();
  }
  JobResult result;
  result.makespan = *std::max_element(finish.begin(), finish.end());
  result.timed_out = result.makespan == kSimTimeNever;
  if (result.timed_out) result.makespan = timeout;
  result.traffic = std::move(job.traffic());
  result.degraded_progress_events = job.degraded_progress_events();
  if (hooks.on_finish) hooks.on_finish(sim);
  return result;
}

}  // namespace gridsim::mpi
