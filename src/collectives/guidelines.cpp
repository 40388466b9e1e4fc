#include "collectives/guidelines.hpp"

#include <string>
#include <vector>

#include "collectives/collectives.hpp"
#include "collectives/selector.hpp"
#include "mpi/run_job.hpp"

namespace gridsim::coll {

namespace {

using mpi::CollOp;
using mpi::Rank;

/// Makespan of one SPMD body, in seconds.
double measure(const topo::GridSpec& spec, const mpi::ImplProfile& profile,
               const tcp::KernelTunables& kernel, bool cyclic,
               const SimHooks& hooks, const mpi::RankBody& body) {
  const mpi::JobResult run = mpi::run_job(
      spec,
      [cyclic](const topo::Grid& grid) {
        return cyclic ? mpi::cyclic_placement(grid, kGuidelineRanks)
                      : mpi::block_placement(grid, kGuidelineRanks);
      },
      profile, kernel, {}, body, hooks);
  return to_seconds(run.makespan);
}

/// Times for one probe size, measured as independent simulations so a
/// composition's cost includes its own cold-start like the collective it
/// is compared against.
struct SizeTimes {
  double allreduce = 0;
  double bcast = 0;
  double reduce_scatter = 0;
  double reduce_then_bcast = 0;
  double scatter_then_allgather = 0;
  double reduce_then_scatter = 0;
};

SizeTimes measure_size(const topo::GridSpec& spec,
                       const mpi::ImplProfile& profile,
                       const tcp::KernelTunables& kernel,
                       const GuidelineOptions& opt, double bytes) {
  const double per_rank = bytes / kGuidelineRanks;
  auto run = [&](const mpi::RankBody& body) {
    return measure(spec, profile, kernel, opt.cyclic, opt.hooks, body);
  };
  SizeTimes t;
  t.allreduce = run(
      [bytes](Rank& r) -> Task<void> { co_await allreduce(r, bytes); });
  t.bcast =
      run([bytes](Rank& r) -> Task<void> { co_await bcast(r, 0, bytes); });
  t.reduce_scatter = run(
      [bytes](Rank& r) -> Task<void> { co_await reduce_scatter(r, bytes); });
  t.reduce_then_bcast = run([bytes](Rank& r) -> Task<void> {
    co_await reduce(r, 0, bytes);
    co_await bcast(r, 0, bytes);
  });
  t.scatter_then_allgather = run([per_rank](Rank& r) -> Task<void> {
    co_await scatter(r, 0, per_rank);
    co_await allgather(r, per_rank);
  });
  t.reduce_then_scatter = run([bytes, per_rank](Rank& r) -> Task<void> {
    co_await reduce(r, 0, bytes);
    co_await scatter(r, 0, per_rank);
  });
  return t;
}

/// The algorithm the selector would choose, for the cell's detail string.
/// `nsites` comes from the deployment spec (block placement fills sites in
/// order, so 16 ranks over these catalog specs reach every site).
std::string chosen(const mpi::CollectiveSuite& suite, CollOp op, double bytes,
                   int nsites) {
  return std::string(to_string(op)) + "=" +
         Selector::pick(suite, op, bytes, kGuidelineRanks, nsites).algo;
}

}  // namespace

GuidelineReport verify_guidelines(const topo::GridSpec& spec,
                                  const std::string& topology_label,
                                  const mpi::ImplProfile& profile,
                                  const tcp::KernelTunables& kernel,
                                  const GuidelineOptions& opt) {
  const auto& sizes = kGuidelineSizes;
  const int nsites = static_cast<int>(spec.sites.size());
  GuidelineReport report;

  auto add = [&](const char* guideline, double bytes, double lhs, double rhs,
                 double tol, std::string detail) {
    GuidelineCell c;
    c.guideline = guideline;
    c.profile = profile.name;
    c.topology = topology_label;
    c.bytes = bytes;
    c.lhs_s = lhs;
    c.rhs_s = rhs;
    c.ratio = rhs > 0 ? lhs / rhs : 0;
    c.tolerance = tol;
    c.violated = lhs > tol * rhs;
    c.detail = std::move(detail);
    report.cells.push_back(std::move(c));
  };

  const auto& suite = profile.collectives;
  std::vector<SizeTimes> times;
  times.reserve(sizes.size());
  for (double bytes : sizes)
    times.push_back(measure_size(spec, profile, kernel, opt, bytes));

  const double ctol = kCompositionTolerance;
  for (size_t i = 0; i < sizes.size(); ++i) {
    const double bytes = sizes[i];
    const SizeTimes& t = times[i];
    add("allreduce<=reduce+bcast", bytes, t.allreduce, t.reduce_then_bcast,
        ctol, chosen(suite, CollOp::kAllreduce, bytes, nsites) + ", " +
            chosen(suite, CollOp::kBcast, bytes, nsites));
    add("bcast<=scatter+allgather", bytes, t.bcast, t.scatter_then_allgather,
        ctol, chosen(suite, CollOp::kBcast, bytes, nsites));
    add("reduce_scatter<=reduce+scatter", bytes, t.reduce_scatter,
        t.reduce_then_scatter, ctol, "reduce_scatter=recursive-halving");
  }

  const double mtol = kMonotoneTolerance;
  for (size_t i = 0; i + 1 < sizes.size(); ++i) {
    const double small = sizes[i];
    const double large = sizes[i + 1];
    add("monotone-bcast", small, times[i].bcast, times[i + 1].bcast, mtol,
        chosen(suite, CollOp::kBcast, small, nsites) + " vs " +
            chosen(suite, CollOp::kBcast, large, nsites));
    add("monotone-allreduce", small, times[i].allreduce,
        times[i + 1].allreduce, mtol,
        chosen(suite, CollOp::kAllreduce, small, nsites) + " vs " +
            chosen(suite, CollOp::kAllreduce, large, nsites));
  }
  return report;
}

mpi::CollRules misruled_selector() {
  mpi::CollRule small;
  small.op = mpi::CollOp::kBcast;
  small.algo = "scatter-ring";
  small.max_bytes = kBcastSmallCutoff;
  mpi::CollRule large;
  large.op = mpi::CollOp::kBcast;
  large.algo = "binomial";
  return {small, large};
}

}  // namespace gridsim::coll
