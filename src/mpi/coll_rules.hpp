// Declarative collective-selection rules.
//
// A `CollRule` names a registered collective algorithm (see
// collectives/registry.hpp) and the conditions under which the selector may
// use it: operation, message-size band, communicator-size band and topology
// scope. An `ImplProfile` carries an ordered list of rules in its
// `CollectiveSuite`; the first matching rule wins, and a call no rule
// matches falls back to the suite's per-operation default policy, itself a
// registry name (the WAN-oblivious/-aware defaults of Table 1).
//
// The types are plain data on purpose: the mpi layer stores and transports
// rules, the collectives layer interprets them. This mirrors OpenMPI's
// decision tables (smpi_openmpi_selector.cpp in SimGrid reproduces them)
// where each (operation, size, communicator) cell names an algorithm.
#pragma once

#include <limits>
#include <string>
#include <vector>

namespace gridsim::mpi {

/// Operations the selector dispatches on. Rooted fan-in/fan-out collectives
/// (reduce, gather, scatter, ...) have a single registered algorithm each
/// and bypass the selector.
enum class CollOp {
  kBcast,
  kAllreduce,
  kAlltoall,
  kBarrier,
};

std::string to_string(CollOp op);

/// Topology predicate of a rule. "Site" is the grid notion: a cluster
/// behind one WAN uplink (topo::Grid::site_of).
enum class TopoScope {
  kAny,         ///< matches every deployment
  kSingleSite,  ///< only when all ranks share one site (no WAN crossing)
  kMultiSite,   ///< only when the job spans at least two sites
};

std::string to_string(TopoScope scope);

/// One decision rule: "for this operation, in this size/ranks band, on this
/// topology shape, use the algorithm registered under `algo`".
struct CollRule {
  CollOp op = CollOp::kBcast;
  /// Registry name of the algorithm ("binomial", "scatter-ring",
  /// "hierarchical", "pipeline", "recursive-doubling", "rabenseifner",
  /// "pairwise", "ring", "bruck", "dissemination", "tree").
  std::string algo;
  /// Message-size band, inclusive on both ends (bytes). For alltoall the
  /// size tested is the total send volume of the calling rank; barrier
  /// rules match any size.
  double min_bytes = 0;
  double max_bytes = std::numeric_limits<double>::infinity();
  /// Communicator-size band, inclusive on both ends.
  int min_ranks = 0;
  int max_ranks = std::numeric_limits<int>::max();
  TopoScope topo = TopoScope::kAny;
};

/// Ordered rule list; first match wins.
using CollRules = std::vector<CollRule>;

inline std::string to_string(CollOp op) {
  switch (op) {
    case CollOp::kBcast:
      return "bcast";
    case CollOp::kAllreduce:
      return "allreduce";
    case CollOp::kAlltoall:
      return "alltoall";
    case CollOp::kBarrier:
      return "barrier";
  }
  return "?";
}

inline std::string to_string(TopoScope scope) {
  switch (scope) {
    case TopoScope::kAny:
      return "any";
    case TopoScope::kSingleSite:
      return "single-site";
    case TopoScope::kMultiSite:
      return "multi-site";
  }
  return "?";
}

}  // namespace gridsim::mpi
