// Collective operations over the point-to-point engine.
//
// Every rank of a communicator must call the same collectives in the same
// order (SPMD); tags are derived from a per-rank collective sequence number.
//
// The algorithm behind each operation comes from the algorithm layer:
//
//  * `AlgorithmRegistry` (registry.hpp) — every implemented algorithm is a
//    named, introspectable entry (binomial, scatter-ring/van de Geijn,
//    pipeline, hierarchical, recursive-doubling, rabenseifner, ...).
//  * `Selector` (selector.hpp) — picks the entry per (operation, message
//    size, communicator size, topology shape) from the profile's
//    declarative rules, falling back to the default table of the
//    per-operation policy name in the profile's `CollectiveSuite`:
//      - WAN-oblivious defaults (MPICH2/OpenMPI-style): binomial trees for
//        small messages, scatter + rank-ordered ring allgather for large
//        broadcasts — the ring crosses the WAN once per step, which is the
//        paper's explanation for poor FT performance on the grid.
//      - GridMPI (topology-aware): hierarchical algorithms that cross the
//        WAN once, using one simultaneous stream per node pair ("multiple
//        node-to-node connections", Matsuda et al. Cluster'06).
//  * guideline verification (guidelines.hpp) — `gridsim coll --verify`
//    sweeps profile x size x topology and flags self-contradictory
//    selections (e.g. Allreduce slower than Reduce+Bcast).
#pragma once

#include <vector>

#include "mpi/mpi.hpp"
#include "simcore/task.hpp"

namespace gridsim::coll {

/// Barrier (algorithm chosen by the selector: dissemination or tree).
Task<void> barrier(mpi::Rank& r);

/// Broadcast `bytes` from `root` to all ranks.
Task<void> bcast(mpi::Rank& r, int root, double bytes);

/// Reduce `bytes` from all ranks onto `root` (binomial tree).
Task<void> reduce(mpi::Rank& r, int root, double bytes);

/// Allreduce `bytes` across all ranks.
Task<void> allreduce(mpi::Rank& r, double bytes);

/// Root gathers `bytes_per_rank` from everyone (binomial).
Task<void> gather(mpi::Rank& r, int root, double bytes_per_rank);

/// Root scatters `bytes_per_rank` to everyone (binomial).
Task<void> scatter(mpi::Rank& r, int root, double bytes_per_rank);

/// Everyone ends with everyone's block (ring).
Task<void> allgather(mpi::Rank& r, double bytes_per_rank);

/// Personalised exchange: every rank sends `bytes_per_pair` to every other.
Task<void> alltoall(mpi::Rank& r, double bytes_per_pair);

/// Vector variant: `send_bytes[d]` goes to rank d (size() entries).
Task<void> alltoallv(mpi::Rank& r, const std::vector<double>& send_bytes);

/// Root gathers `bytes[i]` from rank i (linear: the classic
/// non-topology-aware implementation the paper notes for MPICH-G2).
Task<void> gatherv(mpi::Rank& r, int root, const std::vector<double>& bytes);

/// Root sends `bytes[i]` to rank i (linear).
Task<void> scatterv(mpi::Rank& r, int root, const std::vector<double>& bytes);

/// Reduce + scatter of the result: every rank ends with bytes/size() of
/// the reduced vector (recursive halving on powers of two).
Task<void> reduce_scatter(mpi::Rank& r, double bytes);

}  // namespace gridsim::coll
