#include "apps/simri.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "mpi/run_job.hpp"

namespace gridsim::apps {

namespace {

using mpi::Rank;

constexpr int kTagWork = 1;
constexpr int kTagResult = 2;

struct Shared {
  const SimriConfig* app;
  SimTime distribute_done = 0;
  SimTime compute_results_in = 0;
  SimTime total_done = 0;
};

Task<void> master_body(Rank& r, Shared* sh) {
  const int slaves = r.size() - 1;
  const double vectors = double(sh->app->object_n) * sh->app->object_n;
  const double per_slave = vectors / slaves;
  // Static division: one set per slave.
  for (int s = 1; s <= slaves; ++s)
    co_await r.send(s, per_slave * sh->app->bytes_per_vector, kTagWork);
  sh->distribute_done = r.sim().now();
  for (int s = 1; s <= slaves; ++s)
    (void)co_await r.recv(mpi::kAnySource, kTagResult);
  sh->compute_results_in = r.sim().now();
  sh->total_done = r.sim().now();
}

Task<void> slave_body(Rank& r, const SimriConfig* app) {
  const int slaves = r.size() - 1;
  const double vectors = double(app->object_n) * app->object_n / slaves;
  (void)co_await r.recv(0, kTagWork);
  co_await r.compute(vectors * app->vector_compute_seconds);
  co_await r.send(0, vectors * app->result_bytes_per_vector, kTagResult);
}

}  // namespace

SimriResult run_simri(const topo::GridSpec& spec, int nodes,
                      const profiles::ExperimentConfig& cfg,
                      const SimriConfig& app) {
  if (nodes < 2) throw std::invalid_argument("simri needs >= 2 nodes");
  if (spec.sites.empty() || spec.sites[0].nodes < nodes)
    throw std::invalid_argument("first site too small for requested nodes");
  Shared sh;
  sh.app = &app;
  mpi::run_job(
      spec,
      [nodes](const topo::Grid& grid) {
        std::vector<net::HostId> placement;
        for (int n = 0; n < nodes; ++n) placement.push_back(grid.node(0, n));
        return placement;
      },
      cfg.profile, cfg.kernel, cfg.faults, [&sh, &app](Rank& r) {
        return r.rank() == 0 ? master_body(r, &sh) : slave_body(r, &app);
      });

  SimriResult res;
  res.total_time = sh.total_done;
  // Communication = everything that is not slave compute: distribution plus
  // the result collection tail beyond the slowest slave's compute.
  const int slaves = nodes - 1;
  const double vectors = double(app.object_n) * app.object_n;
  const double slave_compute_ref =
      vectors / slaves * app.vector_compute_seconds;
  const double speed = spec.sites[0].cpu_speed;
  const SimTime compute_span = from_seconds(slave_compute_ref / speed);
  res.comm_time = res.total_time - compute_span;
  res.comm_fraction = to_seconds(res.comm_time) / to_seconds(res.total_time);
  // One slave doing all vectors, no communication:
  const double t1 = vectors * app.vector_compute_seconds / speed;
  res.speedup = t1 / to_seconds(res.total_time);
  res.efficiency = res.speedup / slaves;
  return res;
}

}  // namespace gridsim::apps
