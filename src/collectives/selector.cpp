#include "collectives/selector.hpp"

#include <algorithm>
#include <limits>
#include <string_view>

#include "collectives/registry.hpp"
#include "simcore/check.hpp"
#include "topology/grid5000.hpp"

namespace gridsim::coll {

namespace {

using mpi::CollOp;
using mpi::CollRule;
using mpi::CollRules;

CollRule rule(CollOp op, const char* algo, double min_bytes = 0,
              double max_bytes = std::numeric_limits<double>::infinity()) {
  CollRule r;
  r.op = op;
  r.algo = algo;
  r.min_bytes = min_bytes;
  r.max_bytes = max_bytes;
  return r;
}

/// One default policy: the rule table an operation's registry name in a
/// `CollectiveSuite` implies. Tables are total — the last rule is
/// unbounded.
struct Policy {
  CollOp op;
  const char* name;  ///< registry canonical name
  CollRules rules;
};

/// The algorithm alone, at every size.
Policy single(CollOp op, const char* name) {
  return {op, name, {rule(op, name)}};
}

/// The latency algorithm `small` at or below `cutoff`, `name` above.
Policy small_first(CollOp op, const char* name, const char* small,
                   double cutoff) {
  return {op, name, {rule(op, small, 0, cutoff), rule(op, name)}};
}

/// Reproduces the historic cutoffs: binomial bcast up to 12 kB in front of
/// every bandwidth broadcast, recursive-doubling up to 2 kB in front of
/// rabenseifner only.
const std::vector<Policy>& policies() {
  static const std::vector<Policy> table = {
      single(CollOp::kBcast, "binomial"),
      small_first(CollOp::kBcast, "scatter-ring", "binomial",
                  kBcastSmallCutoff),
      small_first(CollOp::kBcast, "hierarchical", "binomial",
                  kBcastSmallCutoff),
      small_first(CollOp::kBcast, "pipeline", "binomial", kBcastSmallCutoff),
      single(CollOp::kAllreduce, "recursive-doubling"),
      small_first(CollOp::kAllreduce, "rabenseifner", "recursive-doubling",
                  kAllreduceSmallCutoff),
      single(CollOp::kAllreduce, "hierarchical"),
      single(CollOp::kAlltoall, "pairwise"),
      single(CollOp::kAlltoall, "ring"),
      single(CollOp::kAlltoall, "bruck"),
      single(CollOp::kBarrier, "dissemination"),
      single(CollOp::kBarrier, "tree"),
  };
  return table;
}

const CollRules* find_policy(CollOp op, std::string_view name) {
  for (const Policy& p : policies())
    if (p.op == op && name == p.name) return &p.rules;
  return nullptr;
}

const std::string& policy_name(const mpi::CollectiveSuite& suite, CollOp op) {
  switch (op) {
    case CollOp::kBcast:
      return suite.bcast;
    case CollOp::kAllreduce:
      return suite.allreduce;
    case CollOp::kAlltoall:
      return suite.alltoall;
    case CollOp::kBarrier:
      return suite.barrier;
  }
  return suite.bcast;
}

}  // namespace

bool Selector::matches(const CollRule& r, CollOp op, double bytes, int nranks,
                       int nsites) {
  if (r.op != op) return false;
  if (bytes < r.min_bytes || bytes > r.max_bytes) return false;
  if (nranks < r.min_ranks || nranks > r.max_ranks) return false;
  switch (r.topo) {
    case mpi::TopoScope::kAny:
      return true;
    case mpi::TopoScope::kSingleSite:
      return nsites <= 1;
    case mpi::TopoScope::kMultiSite:
      return nsites >= 2;
  }
  return true;
}

const CollRules& Selector::default_rules(const mpi::CollectiveSuite& suite,
                                         CollOp op) {
  const std::string& name = policy_name(suite, op);
  if (const CollRules* rules = find_policy(op, name)) return *rules;
  // Off the canonical-name fast path: an alias resolves to its canonical
  // policy; an unregistered name throws, listing the known ones.
  const CollRules* rules =
      find_policy(op, AlgorithmRegistry::instance().canonical(op, name));
  GRIDSIM_CHECK(rules != nullptr, "%s algorithm '%s' has no default policy",
                mpi::to_string(op).c_str(), name.c_str());
  return *rules;
}

const CollRule& Selector::pick(const mpi::CollectiveSuite& suite, CollOp op,
                               double bytes, int nranks, int nsites) {
  for (const CollRule& r : suite.selector)
    if (matches(r, op, bytes, nranks, nsites)) return r;
  const CollRules& defaults = default_rules(suite, op);
  for (const CollRule& r : defaults)
    if (matches(r, op, bytes, nranks, nsites)) return r;
  // Unreachable: default tables are total.
  return defaults.back();
}

CollRules Selector::effective_rules(const mpi::CollectiveSuite& suite,
                                    CollOp op) {
  CollRules out;
  for (const CollRule& r : suite.selector)
    if (r.op == op) out.push_back(r);
  for (const CollRule& r : default_rules(suite, op)) out.push_back(r);
  return out;
}

bool Selector::needs_sites(const mpi::CollectiveSuite& suite, CollOp op) {
  for (const CollRule& r : suite.selector)
    if (r.op == op && r.topo != mpi::TopoScope::kAny) return true;
  return false;
}

int site_count(mpi::Job& job) {
  std::vector<int> seen;
  for (int rk = 0; rk < job.size(); ++rk) {
    const int site = job.grid().site_of(job.rank(rk).host());
    if (std::find(seen.begin(), seen.end(), site) == seen.end())
      seen.push_back(site);
  }
  return static_cast<int>(seen.size());
}

}  // namespace gridsim::coll
