#include "profiles/profiles.hpp"

#include <algorithm>
#include <limits>

#include "collectives/registry.hpp"

namespace gridsim::profiles {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double k4MB = 4.0 * 1024 * 1024;
constexpr double kTunedThreshold = 65.0 * 1024 * 1024;  // Table 5
}  // namespace

std::string to_string(TuningLevel level) {
  switch (level) {
    case TuningLevel::kDefault:
      return "default";
    case TuningLevel::kTcpTuned:
      return "tcp-tuned";
    case TuningLevel::kFullyTuned:
      return "fully-tuned";
  }
  return "?";
}

mpi::ImplProfile mpich2() {
  mpi::ImplProfile p;
  p.name = "MPICH2";
  p.send_overhead = p.recv_overhead = microseconds(2) + nanoseconds(500);
  p.eager_threshold = 256 * 1024;
  p.buffers = mpi::BufferStrategy::kAutoTune;
  p.collectives.bcast = "scatter-ring";  // ring for large msgs
  p.collectives.allreduce = "rabenseifner";
  p.collectives.alltoall = "pairwise";
  return p;
}

mpi::ImplProfile gridmpi() {
  mpi::ImplProfile p;
  p.name = "GridMPI";
  p.send_overhead = p.recv_overhead = microseconds(2) + nanoseconds(500);
  p.eager_threshold = kInf;  // no rendez-vous for MPI_Send by default
  p.buffers = mpi::BufferStrategy::kLockToInitial;
  p.pacing = true;
  p.collectives.bcast = "hierarchical";
  p.collectives.allreduce = "hierarchical";
  p.collectives.alltoall = "pairwise";  // not optimised
  return p;
}

mpi::ImplProfile mpich_madeleine() {
  mpi::ImplProfile p;
  p.name = "MPICH-Madeleine";
  p.send_overhead = p.recv_overhead = microseconds(7);
  p.lan_extra_overhead = microseconds(3) + nanoseconds(500);
  p.eager_threshold = 128 * 1024;
  p.buffers = mpi::BufferStrategy::kAutoTune;
  p.collectives.bcast = "binomial";
  p.collectives.allreduce = "recursive-doubling";
  p.collectives.alltoall = "pairwise";
  return p;
}

mpi::ImplProfile openmpi() {
  mpi::ImplProfile p;
  p.name = "OpenMPI";
  p.send_overhead = p.recv_overhead = microseconds(2) + nanoseconds(500);
  p.eager_threshold = 64 * 1024;
  p.eager_threshold_max = 32.0 * 1024 * 1024;  // btl_tcp_eager_limit cap
  p.buffers = mpi::BufferStrategy::kSetsockopt;
  p.setsockopt_bytes = 128 * 1024;
  p.collectives.bcast = "scatter-ring";
  p.collectives.allreduce = "rabenseifner";
  p.collectives.alltoall = "pairwise";
  return p;
}

mpi::ImplProfile raw_tcp() {
  mpi::ImplProfile p;
  p.name = "TCP";
  p.send_overhead = p.recv_overhead = 0;
  p.eager_threshold = kInf;
  p.header_bytes = 0;
  p.buffers = mpi::BufferStrategy::kAutoTune;
  return p;
}

mpi::ImplProfile mpich_g2() {
  mpi::ImplProfile p;
  p.name = "MPICH-G2";
  // The Globus layers (security contexts, vMPI dispatch) cost more CPU per
  // message than a bare ch3/tcp stack.
  p.send_overhead = p.recv_overhead = microseconds(4);
  p.eager_threshold = 256 * 1024;  // MPICH lineage
  p.buffers = mpi::BufferStrategy::kAutoTune;
  // Topology-aware collectives: WAN < LAN < intra-machine (Section 2.1.5).
  p.collectives.bcast = "hierarchical";
  p.collectives.allreduce = "hierarchical";
  // "Support for large messages using several TCP streams" (GridFTP).
  p.wan_parallel_streams = 4;
  p.stripe_threshold = 256 * 1024;
  return p;
}

std::vector<mpi::ImplProfile> all_implementations() {
  return {mpich2(), gridmpi(), mpich_madeleine(), openmpi()};
}

ExperimentConfig configure(mpi::ImplProfile base, TuningLevel level) {
  ExperimentConfig cfg;
  cfg.kernel = tcp::KernelTunables::linux_2_6_18_default();
  if (level == TuningLevel::kDefault) {
    cfg.profile = std::move(base);
    return cfg;
  }
  // TCP tuning (4.2.1): 4 MB core max + auto-tuning bounds + initial value
  // (the GridMPI requirement), and the OpenMPI MCA buffer parameters.
  cfg.kernel = tcp::KernelTunables::grid_tuned();
  if (base.buffers == mpi::BufferStrategy::kSetsockopt)
    base.setsockopt_bytes = k4MB;
  if (level == TuningLevel::kFullyTuned) {
    // MPI tuning (4.2.2, Table 5): raise the eager/rendez-vous threshold,
    // clamped to the implementation's knob range. Implementations already
    // at or above the target (GridMPI's infinity) are left alone.
    if (base.eager_threshold < kTunedThreshold)
      base.eager_threshold =
          std::min(kTunedThreshold, base.eager_threshold_max);
  }
  cfg.profile = std::move(base);
  return cfg;
}

// Name-based knobs store the registry's canonical name, so
// `.bcast_algo("vandegeijn")` and `.bcast_algo("scatter-ring")` are the same
// profile. Defined out of line to keep the collectives registry out of this
// widely-included header.
ExperimentBuilder& ExperimentBuilder::bcast_algo(std::string_view name) {
  base_.collectives.bcast =
      coll::AlgorithmRegistry::instance().canonical(mpi::CollOp::kBcast, name);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::allreduce_algo(std::string_view name) {
  base_.collectives.allreduce = coll::AlgorithmRegistry::instance().canonical(
      mpi::CollOp::kAllreduce, name);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::alltoall_algo(std::string_view name) {
  base_.collectives.alltoall = coll::AlgorithmRegistry::instance().canonical(
      mpi::CollOp::kAlltoall, name);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::barrier_algo(std::string_view name) {
  base_.collectives.barrier = coll::AlgorithmRegistry::instance().canonical(
      mpi::CollOp::kBarrier, name);
  return *this;
}

ExperimentConfig ExperimentBuilder::build() const {
  ExperimentConfig cfg = configure(base_, level_);
  if (kernel_) cfg.kernel = *kernel_;
  if (congestion_) cfg.kernel.algo = *congestion_;
  if (eager_threshold_) cfg.profile.eager_threshold = *eager_threshold_;
  if (setsockopt_bytes_) cfg.profile.setsockopt_bytes = *setsockopt_bytes_;
  if (wan_extra_overhead_)
    cfg.profile.wan_extra_overhead = *wan_extra_overhead_;
  cfg.faults = faults_;
  return cfg;
}

}  // namespace gridsim::profiles
