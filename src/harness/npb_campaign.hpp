// Campaign runner for the NPB experiments (Figs 10-13, Table 2).
#pragma once

#include "mpi/run_job.hpp"
#include "npb/npb.hpp"
#include "profiles/profiles.hpp"
#include "topology/grid5000.hpp"

namespace gridsim::harness {

/// Runs one kernel at one class over `nranks` block-placed ranks.
/// `timeout` bounds the *virtual* time, mirroring the paper's batch-system
/// walltime limit (their MPICH-Madeleine BT/SP runs "timed out"); 0 = no
/// limit. A timed-out result reports the partial traffic and
/// makespan = timeout.
mpi::JobResult run_npb(const topo::GridSpec& spec, int nranks, npb::Kernel k,
                       npb::Class c, const profiles::ExperimentConfig& cfg,
                       SimTime timeout = 0, const SimHooks& hooks = {});

}  // namespace gridsim::harness
