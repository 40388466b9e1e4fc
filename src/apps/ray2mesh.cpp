#include "apps/ray2mesh.hpp"

#include <algorithm>
#include <cassert>

#include "collectives/collectives.hpp"
#include "mpi/run_job.hpp"

namespace gridsim::apps {

namespace {

using mpi::Rank;

constexpr int kTagRequest = 1;
constexpr int kTagSet = 2;
constexpr int kTagStop = 3;

struct Shared {
  const Ray2MeshConfig* app;
  std::vector<int> sets_per_slave;
  SimTime compute_done = 0;
  SimTime merge_done = 0;
  SimTime total_done = 0;
};

Task<void> master_body(Rank& r, Shared* sh) {
  const int slaves = r.size() - 1;
  sh->sets_per_slave.assign(static_cast<size_t>(slaves), 0);
  int sets_left = sh->app->total_rays / sh->app->rays_per_set;
  int stopped = 0;
  co_await r.compute(sh->app->init_write_seconds / 2);
  while (stopped < slaves) {
    const mpi::RecvInfo req = co_await r.recv(mpi::kAnySource, kTagRequest);
    if (sets_left > 0) {
      --sets_left;
      ++sh->sets_per_slave[static_cast<size_t>(req.source - 1)];
      co_await r.send(req.source, sh->app->set_bytes, kTagSet);
    } else {
      ++stopped;
      co_await r.send(req.source, 8, kTagStop);
    }
  }
  sh->compute_done = r.sim().now();
  // Merge phase: the master participates in the submesh exchange.
  co_await coll::barrier(r);
  co_await coll::alltoall(r, sh->app->merge_traffic_bytes / (r.size() - 1));
  co_await r.compute(sh->app->merge_compute_seconds);
  co_await coll::barrier(r);
  sh->merge_done = r.sim().now();
  co_await r.compute(sh->app->init_write_seconds / 2);
  sh->total_done = r.sim().now();
}

Task<void> slave_body(Rank& r, const Ray2MeshConfig* app) {
  const double per_set = app->rays_per_set * app->ray_compute_seconds;
  while (true) {
    co_await r.send(0, app->request_bytes, kTagRequest);
    const mpi::RecvInfo got = co_await r.recv(0, mpi::kAnyTag);
    if (got.tag == kTagStop) break;
    co_await r.compute(per_set);
  }
  co_await coll::barrier(r);
  co_await coll::alltoall(r, app->merge_traffic_bytes / (r.size() - 1));
  co_await r.compute(app->merge_compute_seconds);
  co_await coll::barrier(r);
}

}  // namespace

Ray2MeshResult run_ray2mesh(const topo::GridSpec& spec, int master_site,
                            const profiles::ExperimentConfig& cfg,
                            const Ray2MeshConfig& app, const SimHooks& hooks) {
  Shared sh;
  sh.app = &app;
  const mpi::JobResult run = mpi::run_job(
      spec,
      [master_site](const topo::Grid& grid) {
        // Rank 0: master, co-located with the first slave of its cluster.
        std::vector<net::HostId> placement{grid.node(master_site, 0)};
        for (int s = 0; s < grid.site_count(); ++s)
          for (int n = 0; n < grid.nodes_at(s); ++n)
            placement.push_back(grid.node(s, n));
        return placement;
      },
      cfg.profile, cfg.kernel, cfg.faults,
      [&sh, &app](Rank& r) {
        return r.rank() == 0 ? master_body(r, &sh) : slave_body(r, &app);
      },
      hooks);

  Ray2MeshResult result;
  result.rays_per_slave.reserve(sh.sets_per_slave.size());
  for (int sets : sh.sets_per_slave)
    result.rays_per_slave.push_back(sets * app.rays_per_set);
  // Slaves are placed site by site, node by node.
  size_t slave = 0;
  for (const topo::SiteSpec& site : spec.sites) {
    int rays = 0;
    for (int n = 0; n < site.nodes; ++n) rays += result.rays_per_slave[slave++];
    result.rays_per_site.push_back(rays);
  }
  result.compute_time = sh.compute_done;
  result.merge_time = sh.merge_done - sh.compute_done;
  result.total_time = sh.total_done;
  result.degraded_progress_events = run.degraded_progress_events;
  return result;
}

}  // namespace gridsim::apps
