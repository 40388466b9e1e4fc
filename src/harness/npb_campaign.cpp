#include "harness/npb_campaign.hpp"

namespace gridsim::harness {

mpi::JobResult run_npb(const topo::GridSpec& spec, int nranks, npb::Kernel k,
                       npb::Class c, const profiles::ExperimentConfig& cfg,
                       SimTime timeout, const SimHooks& hooks) {
  npb::validate_ranks(k, nranks);
  return mpi::run_job(
      spec,
      [nranks](auto& grid) { return mpi::block_placement(grid, nranks); },
      cfg.profile, cfg.kernel, cfg.faults,
      [k, c](mpi::Rank& r) { return npb::run_kernel(r, k, c); }, hooks,
      timeout);
}

}  // namespace gridsim::harness
