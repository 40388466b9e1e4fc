// Implementation profiles: the per-MPI-implementation parameters the paper
// compares and tunes (Tables 1, 4, 5 and Section 4.2).
//
// One message-passing engine (see rank.hpp) is parameterised by an
// `ImplProfile`; the four profiles in src/profiles model MPICH2, GridMPI,
// MPICH-Madeleine and OpenMPI.
#pragma once

#include <limits>
#include <string>

#include "mpi/coll_rules.hpp"
#include "simcore/time.hpp"

namespace gridsim::mpi {

/// How the implementation sizes its TCP socket buffers (Section 4.2.1).
enum class BufferStrategy {
  kAutoTune,       ///< no setsockopt: kernel auto-tuning (MPICH2, Madeleine)
  kLockToInitial,  ///< frozen at tcp_*mem[1] (GridMPI)
  kSetsockopt,     ///< explicit SO_SNDBUF/SO_RCVBUF (OpenMPI btl_tcp_*buf)
};

/// The collective algorithms an implementation reaches for (Table 1). Each
/// operation's default policy is a canonical name from the collective
/// registry (collectives/registry.hpp); the selector turns it into a rule
/// table with the layer's small-message fallback (collectives/selector.hpp).
struct CollectiveSuite {
  std::string bcast = "binomial";
  std::string allreduce = "recursive-doubling";
  std::string alltoall = "pairwise";
  std::string barrier = "dissemination";
  /// Declarative selection rules, scanned first-match-wins before the
  /// default policies above. Empty (the default) means the policies alone.
  CollRules selector;
};

/// Everything that distinguishes one MPI implementation from another in
/// this model.
struct ImplProfile {
  std::string name;

  // --- point-to-point software costs (Table 4) ---------------------------
  /// CPU time per MPI_Send / MPI_Recv call (per side, excludes the 3 us
  /// kernel stack cost modelled separately).
  SimTime send_overhead = microseconds(2);
  SimTime recv_overhead = microseconds(2);
  /// Extra per-side cost on low-latency paths only: MPICH-Madeleine's
  /// thread-based progression engine costs ~3.5 us per side that is hidden
  /// under WAN latency but visible on a cluster (Table 4: +21 us LAN vs
  /// +14 us WAN round trip).
  SimTime lan_extra_overhead = 0;
  /// Extra per-side cost on WAN paths only: the gateway/copy cost of
  /// heterogeneity management when intra-site traffic rides a native
  /// fabric and inter-site messages must be forwarded onto TCP (the
  /// paper's Section 5 question).
  SimTime wan_extra_overhead = 0;

  // --- eager / rendez-vous (Section 4.2.2, Table 5) ----------------------
  /// Messages <= threshold are sent eagerly; larger ones use rendez-vous.
  double eager_threshold = 256 * 1024;
  /// Implementation cap on the threshold knob (OpenMPI: 32 MB).
  double eager_threshold_max = std::numeric_limits<double>::infinity();

  // --- TCP behaviour (Section 4.2.1) --------------------------------------
  BufferStrategy buffers = BufferStrategy::kAutoTune;
  /// For kSetsockopt: the default request (OpenMPI: 128 kB).
  double setsockopt_bytes = 128 * 1024;
  /// GridMPI software pacing.
  bool pacing = false;

  // --- parallel WAN streams (MPICH-G2, Section 2.1.5) --------------------
  /// Messages above `stripe_threshold` crossing a WAN path are striped
  /// over this many TCP connections (GridFTP-style; each stream has its
  /// own window, multiplying window-limited throughput). 1 = disabled.
  int wan_parallel_streams = 1;
  double stripe_threshold = 256 * 1024;

  // --- collectives (Table 1) ----------------------------------------------
  CollectiveSuite collectives;

  // --- constants shared by all implementations ---------------------------
  /// Per-message protocol header bytes (match header + envelope).
  double header_bytes = 40;
  /// Control message size for RTS / CTS in rendez-vous mode.
  double control_bytes = 64;
  /// Memory copy bandwidth for the receiver-side "extra copy" of an
  /// unexpected eager message (Fig 4, arrow 2), on a reference node.
  double memcpy_bytes_per_sec = 2e9;
};

}  // namespace gridsim::mpi
