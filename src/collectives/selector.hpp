// WAN-aware collective-algorithm selection.
//
// Every public collective entry point (collectives.cpp) asks the selector
// which registered algorithm to run for (operation, message size,
// communicator size, topology shape). Selection is declarative: an ordered
// `mpi::CollRules` list, first match wins.
//
//  1. The profile's custom rules (`suite.selector`) are scanned first —
//     this is how experiments override per-size/per-topology behaviour
//     without touching the algorithms.
//  2. A call no custom rule matches falls back to the *default table* of
//     the suite's per-operation policy name. The default tables reproduce
//     the historic cutoffs exactly (e.g. "scatter-ring" = binomial at or
//     below 12 kB, scatter-ring above), which is what keeps every
//     pre-registry catalog digest byte-identical.
//
// The default tables are total (their last rule is unbounded), so `pick`
// always returns a rule. A policy name the registry does not know throws
// std::invalid_argument listing the known names.
#pragma once

#include "mpi/coll_rules.hpp"
#include "mpi/mpi.hpp"
#include "mpi/profile.hpp"

namespace gridsim::coll {

/// Small-message cutoffs of the default tables (bytes, inclusive): at or
/// below the cutoff the latency-optimal algorithm wins (binomial bcast,
/// recursive-doubling allreduce); above it the policy's bandwidth algorithm
/// takes over.
constexpr double kBcastSmallCutoff = 12 * 1024;
constexpr double kAllreduceSmallCutoff = 2 * 1024;

class Selector {
 public:
  /// The rule that decides (op, bytes, nranks, nsites) under `suite`:
  /// custom rules first, then the policy's default table. The returned
  /// reference lives as long as `suite` (custom match) or the process
  /// (default match). Throws std::invalid_argument if the suite's policy
  /// for `op` names no registered algorithm.
  static const mpi::CollRule& pick(const mpi::CollectiveSuite& suite,
                                   mpi::CollOp op, double bytes, int nranks,
                                   int nsites);

  /// The default table the suite's policy name implies for one operation;
  /// aliases resolve to their canonical policy.
  static const mpi::CollRules& default_rules(const mpi::CollectiveSuite& suite,
                                             mpi::CollOp op);

  /// Custom rules for `op` followed by the default table — the full
  /// decision list `pick` scans, for the `coll` group renderer and tests.
  static mpi::CollRules effective_rules(const mpi::CollectiveSuite& suite,
                                        mpi::CollOp op);

  /// True if any custom rule for `op` discriminates on topology — only
  /// then does a collective call need to count sites before picking.
  static bool needs_sites(const mpi::CollectiveSuite& suite, mpi::CollOp op);

  /// Whether one rule matches the given call.
  static bool matches(const mpi::CollRule& rule, mpi::CollOp op, double bytes,
                      int nranks, int nsites);
};

/// Distinct sites hosting this job's ranks.
int site_count(mpi::Job& job);

}  // namespace gridsim::coll
