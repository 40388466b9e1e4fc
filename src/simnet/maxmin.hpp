// Progressive-filling max-min fairness solver, incremental edition.
//
// The allocator's job: given flows crossing fixed sets of links, assign each
// flow the max-min fair rate honouring per-flow rate caps. Historically the
// Network re-ran a global progressive-filling pass over *all* links and
// *all* flows on every mutation (flow arrival/departure, cap change, link
// capacity change) — O(bottlenecks x (links + flows)) per event, the wall
// between the simulator and 100k-rank / 1M-flow campaigns.
//
// This module supplies the pieces of the incremental scheme:
//
//  - `FlowState`: the solver-relevant slice of a flow (route, cap, rate),
//    embedded by the Network's Flow via inheritance.
//  - `BipartiteIndex`: persistent per-link flow lists with O(route) add and
//    swap-pop remove, replacing the O(flows x links) `std::find` scans.
//  - `Solver`: collects the connected component of links/flows reachable
//    from a mutation's dirty set and re-solves *only that component*; flows
//    outside it keep their frozen rates. Uncontended flows (no link shared
//    with any other flow) take a constant-time fast path, SimGrid-surf
//    style.
//  - `solve_global_reference()`: the historical global pass, kept verbatim
//    as the differential-testing oracle (`GRIDSIM_NET_ORACLE`).
//
// Bit-exactness contract: progressive filling touches a component's
// residuals and caps only through that component's own flows, so the global
// pass decomposes into independent per-component passes with *identical*
// floating-point arithmetic. `solve_component()` freezes the same flows at
// the same values in the same rounds as the reference loop, so every
// residual receives the same subtractions of the same values; the
// differential churn suite and the campaign-digest oracle check in CI
// enforce that the two solvers agree to the last bit.
//
// What differs is how each round finds its freeze. The reference rescans
// every link and every unfrozen flow per round; the component solver keeps
//  - a min-heap of the component's links keyed by
//    (max(0, residual) / nflows, LinkId) — the scan's strict `<` over
//    ascending links picks exactly that minimum. A link with no unfrozen
//    flow or an infinite share is never chosen by the scan and has no
//    entry. A link whose share changes gets a fresh entry; the old one no
//    longer matches the link's current share and is dropped when it
//    surfaces;
//  - a min-heap of the finite-cap flows keyed by (rate_cap, order) — the
//    scan's strict `<` over flows in `order` picks exactly that minimum;
//    frozen flows are dropped when they surface;
// and freezes a bottleneck's flows by walking that link's index list,
// skipping frozen flows. Only links whose residual or flow count changed in
// a round are re-keyed, so a solve costs O((flows x route + links) log)
// instead of O(rounds x (flows + links)).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace gridsim::net::maxmin {

using LinkId = int;

inline constexpr double kUnlimited = std::numeric_limits<double>::infinity();

/// The solver-visible slice of a flow. `links` and `rate_cap` are inputs;
/// `rate` and `achievable` are outputs. The remaining fields are
/// bookkeeping owned by BipartiteIndex (`link_pos`) and Solver (`mark`).
struct FlowState {
  std::vector<LinkId> links;
  double rate_cap = kUnlimited;
  double rate = 0;
  double achievable = 0;

  /// Position of this flow inside each crossed link's flow list, parallel
  /// to `links`. Maintained by BipartiteIndex.
  std::vector<std::uint32_t> link_pos;
  /// Stable solve order (the Network uses the flow id): progressive filling
  /// breaks cap ties by the first flow in this order, so it must match the
  /// reference solver's sorted-id iteration for bit-identical results.
  std::uint64_t order = 0;
  /// Component-BFS epoch stamp (Solver-internal).
  std::uint64_t mark = 0;
  /// Position in Solver::comp_flows() after collection (Solver-internal).
  std::uint32_t comp_pos = 0;
  /// Rate fixed in the current solve, or left out of it (Solver-internal).
  bool frozen = false;
};

/// Persistent flow<->link incidence lists: for every link, the flows that
/// cross it. Replaces the per-event `std::find` route scans. Routes must
/// not repeat a link (Network::add_route rejects duplicates): a repeated
/// link would double-count the flow in its own list.
class BipartiteIndex {
 public:
  /// Grows the per-link table; existing lists are untouched.
  void ensure_links(std::size_t n) {
    if (flows_on_.size() < n) flows_on_.resize(n);
  }

  /// O(route length): appends `f` to each crossed link's list.
  void add(FlowState* f);
  /// O(route length): swap-pop removal from each crossed link's list.
  void remove(FlowState* f);

  const std::vector<FlowState*>& flows_on(LinkId l) const {
    return flows_on_[static_cast<std::size_t>(l)];
  }

 private:
  std::vector<std::vector<FlowState*>> flows_on_;
};

/// Statistics the churn micro-bench and tests read back.
struct SolverStats {
  std::uint64_t solves = 0;          ///< component re-solves run
  std::uint64_t fast_solves = 0;     ///< of which took the 1-flow fast path
  std::size_t peak_component_flows = 0;  ///< peak dirty-component flow count
  std::size_t peak_component_links = 0;  ///< peak dirty-component link count
};

/// Component-restricted progressive-filling solver. Scratch buffers persist
/// across solves so a steady-state re-solve performs no allocations.
class Solver {
 public:
  /// Grows the link-indexed scratch tables (call when links are added).
  void ensure_links(std::size_t n);

  /// Gathers the connected component of flows/links reachable from the
  /// dirty set: `seed_links` (the mutated link, or a mutated flow's route)
  /// plus an optional `seed_flow` (covers linkless flows). After this call
  /// `comp_flows()` is sorted by FlowState::order (the order the Network
  /// schedules completions in); `comp_links()` is in discovery order.
  /// `index` must outlive the following solve_component().
  void collect_component(const BipartiteIndex& index,
                         const std::vector<LinkId>& seed_links,
                         FlowState* seed_flow);

  /// Drops one flow from the collected component (a departing flow is
  /// settled as part of its component but must not participate in the
  /// re-solve). The component stays valid: solving the remainder as one
  /// subset equals solving its split parts independently. O(1): the flow's
  /// entry becomes a hole that solve_component() squeezes out, so
  /// comp_flows() holds a null entry until the next solve. Call it after
  /// removing `f` from the index.
  void remove_from_component(FlowState* f);

  /// True when `f` was gathered by the latest collect_component().
  bool in_component(const FlowState* f) const { return f->mark == epoch_; }

  /// Re-solves the collected component. `capacity[l]` must give every
  /// link's capacity indexed by LinkId. Writes FlowState::rate/achievable
  /// for component flows only; everything else keeps its frozen rate.
  void solve_component(const std::vector<double>& capacity);

  const std::vector<FlowState*>& comp_flows() const { return comp_flows_; }
  const std::vector<LinkId>& comp_links() const { return comp_links_; }

  const SolverStats& stats() const { return stats_; }

 private:
  void solve_uncontended(FlowState& f, const std::vector<double>& capacity);
  /// Fixes `f` at `rate` and charges it to its links, queueing every link
  /// whose key changed for rekey_touched().
  void freeze(FlowState& f, double rate);
  /// Recomputes the share of every link freeze() touched and gives each
  /// changed, still eligible link a fresh heap entry.
  void rekey_touched();

  // Heap entries. std heaps keep the *largest* element in front, so
  // `later` puts the smallest (share, LinkId) or (rate_cap, order) there.
  struct LinkKey {
    double share;
    LinkId link;
    std::uint32_t slot;  // dense index
    static bool later(const LinkKey& a, const LinkKey& b) {
      if (a.share != b.share) return a.share > b.share;
      return a.link > b.link;
    }
  };
  struct CapKey {
    double cap;
    std::uint64_t order;
    FlowState* flow;
    static bool later(const CapKey& a, const CapKey& b) {
      if (a.cap != b.cap) return a.cap > b.cap;
      return a.order > b.order;
    }
  };

  const BipartiteIndex* index_ = nullptr;  // of the latest collection
  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> link_mark_;   // epoch stamps, by LinkId
  std::vector<std::uint32_t> link_slot_;   // dense index, valid iff marked
  std::vector<LinkId> bfs_stack_;
  std::vector<FlowState*> comp_flows_;
  std::size_t holes_ = 0;  // null entries left by remove_from_component()
  std::vector<LinkId> comp_links_;
  // Dense per-component scratch, parallel to comp_links_.
  std::vector<double> residual_;
  std::vector<int> nflows_;
  std::vector<double> share_;  // current key; +inf = never chosen
  std::vector<char> touched_;  // queued in touched_links_; zero between solves
  std::vector<std::uint32_t> touched_links_;
  std::vector<LinkKey> link_heap_;  // may hold outdated entries
  std::vector<CapKey> cap_heap_;    // finite-cap flows; may hold frozen ones
  std::size_t unfrozen_ = 0;
  SolverStats stats_;
};

/// The historical global solver, kept verbatim (including its O(flows)
/// route scans) as the differential-testing oracle and the baseline the
/// `flow_churn` micro-bench measures the incremental solver against.
/// `flows_by_order` must be sorted by FlowState::order; `capacity[l]` is
/// indexed by LinkId over all `num_links` links.
void solve_global_reference(const std::vector<FlowState*>& flows_by_order,
                            std::size_t num_links,
                            const std::vector<double>& capacity);

}  // namespace gridsim::net::maxmin
