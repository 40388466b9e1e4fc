// Closed-form max-min allocations on hand-built topologies, pinned for both
// the incremental solver and the global-resolve oracle, plus unit coverage
// of the incremental machinery (fast path, component isolation, the
// bipartite index) that the differential churn suite exercises only
// statistically.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "simcore/rng.hpp"

#include "simcore/simulation.hpp"
#include "simnet/maxmin.hpp"
#include "simnet/network.hpp"

namespace gridsim::net {
namespace {

using namespace gridsim::literals;

// Every closed-form case runs under both solvers: the expected rates are
// what progressive filling computes, so any disagreement is a solver bug,
// not a tolerance artifact.
class MaxMinClosedForm : public ::testing::TestWithParam<SolverMode> {
 protected:
  Simulation sim;
  Network net{sim};
  void SetUp() override { net.set_solver_mode(GetParam()); }
};

TEST_P(MaxMinClosedForm, SingleBottleneckEqualShares) {
  // Three uncapped flows on one 90 MB/s link: 30 MB/s each.
  const HostId a = net.add_host("a");
  const HostId b = net.add_host("b");
  const LinkId ab = net.add_link("ab", 9e7, 1_ms, 1e6);
  net.add_route(a, b, {ab});
  std::vector<FlowId> flows;
  for (int i = 0; i < 3; ++i)
    flows.push_back(net.start_flow(a, b, 1e12, kUnlimitedRate, nullptr));
  for (FlowId f : flows) EXPECT_DOUBLE_EQ(net.flow_info(f).rate, 3e7);
  EXPECT_DOUBLE_EQ(net.link_utilization(ab), 9e7);
}

TEST_P(MaxMinClosedForm, ChainSharesTheMiddleLink) {
  // l0 --- l1 --- l2, all 90 MB/s. f0 crosses {l0,l1}, f1 crosses {l1,l2},
  // f2 crosses {l1} only. l1 carries three flows -> everyone freezes at
  // 30 MB/s (no tighter constraint exists).
  const HostId h0 = net.add_host("h0");
  const HostId h1 = net.add_host("h1");
  const HostId h2 = net.add_host("h2");
  const LinkId l0 = net.add_link("l0", 9e7, 1_ms, 1e6);
  const LinkId l1 = net.add_link("l1", 9e7, 1_ms, 1e6);
  const LinkId l2 = net.add_link("l2", 9e7, 1_ms, 1e6);
  net.add_route(h0, h1, {l0, l1});
  net.add_route(h1, h2, {l1, l2});
  net.add_route(h0, h2, {l1});
  const FlowId f0 = net.start_flow(h0, h1, 1e12, kUnlimitedRate, nullptr);
  const FlowId f1 = net.start_flow(h1, h2, 1e12, kUnlimitedRate, nullptr);
  const FlowId f2 = net.start_flow(h0, h2, 1e12, kUnlimitedRate, nullptr);
  EXPECT_DOUBLE_EQ(net.flow_info(f0).rate, 3e7);
  EXPECT_DOUBLE_EQ(net.flow_info(f1).rate, 3e7);
  EXPECT_DOUBLE_EQ(net.flow_info(f2).rate, 3e7);
  // The outer links have 60 MB/s slack each; the middle link has none.
  EXPECT_DOUBLE_EQ(net.flow_info(f0).achievable_rate, 3e7);
  EXPECT_DOUBLE_EQ(net.link_utilization(l0), 3e7);
  EXPECT_DOUBLE_EQ(net.link_utilization(l1), 9e7);
}

TEST_P(MaxMinClosedForm, CrossTrafficStarUplinkThenWanBottleneck) {
  // Four senders, each behind a 40 MB/s uplink, all crossing a 100 MB/s
  // WAN. Four flows: WAN share 25 MB/s is the bottleneck. After two cancel,
  // the uplinks (40 < 100/2) become the bottleneck.
  const LinkId wan = net.add_link("wan", 1e8, 5_ms, 1e6);
  std::vector<FlowId> flows;
  std::vector<LinkId> ups;
  for (int i = 0; i < 4; ++i) {
    const std::string s = std::to_string(i);
    const HostId src = net.add_host("s" + s);
    const HostId dst = net.add_host("r" + s);
    ups.push_back(net.add_link("up" + s, 4e7, 1_ms, 1e6));
    net.add_route(src, dst, {ups.back(), wan});
    flows.push_back(net.start_flow(src, dst, 1e12, kUnlimitedRate, nullptr));
  }
  for (FlowId f : flows) EXPECT_DOUBLE_EQ(net.flow_info(f).rate, 2.5e7);
  EXPECT_DOUBLE_EQ(net.link_utilization(wan), 1e8);
  net.cancel_flow(flows[2]);
  net.cancel_flow(flows[3]);
  EXPECT_DOUBLE_EQ(net.flow_info(flows[0]).rate, 4e7);
  EXPECT_DOUBLE_EQ(net.flow_info(flows[1]).rate, 4e7);
  EXPECT_DOUBLE_EQ(net.link_utilization(wan), 8e7);
  EXPECT_DOUBLE_EQ(net.link_utilization(ups[0]), 4e7);
}

TEST_P(MaxMinClosedForm, CapLimitedFlowDonatesItsShare) {
  // One 100 MB/s link, three flows, one capped at 10 MB/s: the capped flow
  // freezes first and the other two split the 90 MB/s residual.
  const HostId a = net.add_host("a");
  const HostId b = net.add_host("b");
  const LinkId ab = net.add_link("ab", 1e8, 1_ms, 1e6);
  net.add_route(a, b, {ab});
  const FlowId capped = net.start_flow(a, b, 1e12, 1e7, nullptr);
  const FlowId f1 = net.start_flow(a, b, 1e12, kUnlimitedRate, nullptr);
  const FlowId f2 = net.start_flow(a, b, 1e12, kUnlimitedRate, nullptr);
  EXPECT_DOUBLE_EQ(net.flow_info(capped).rate, 1e7);
  EXPECT_DOUBLE_EQ(net.flow_info(f1).rate, 4.5e7);
  EXPECT_DOUBLE_EQ(net.flow_info(f2).rate, 4.5e7);
  // Raising the cap past the fair level re-levels everyone.
  net.set_rate_cap(capped, kUnlimitedRate);
  const double third = std::max(0.0, 1e8) / 3;
  EXPECT_DOUBLE_EQ(net.flow_info(capped).rate, third);
  EXPECT_DOUBLE_EQ(net.flow_info(f1).rate, third);
}

TEST_P(MaxMinClosedForm, LinklessFlowRunsAtItsCap) {
  // A same-host (loopback) route crosses no links: the flow is constrained
  // only by its cap.
  const HostId a = net.add_host("a");
  net.add_route(a, a, {});
  SimTime done = -1;
  net.start_flow(a, a, 1e6, 1e8, [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, 10_ms);  // 1 MB at 100 MB/s
}

TEST_P(MaxMinClosedForm, TransferTimesMatchAllocations) {
  // Integration over time, not just instantaneous rates: short flow done at
  // 1 s (50 MB at 50 MB/s), long flow speeds up to 100 MB/s afterwards.
  const HostId a = net.add_host("a");
  const HostId b = net.add_host("b");
  const LinkId ab = net.add_link("ab", 1e8, 1_ms, 1e6);
  net.add_route(a, b, {ab});
  std::vector<SimTime> done(2, -1);
  net.start_flow(a, b, 5e7, kUnlimitedRate, [&] { done[0] = sim.now(); });
  net.start_flow(a, b, 1e8, kUnlimitedRate, [&] { done[1] = sim.now(); });
  sim.run();
  EXPECT_EQ(done[0], 1_s);
  EXPECT_EQ(done[1], 1500_ms);
}

INSTANTIATE_TEST_SUITE_P(BothSolvers, MaxMinClosedForm,
                         ::testing::Values(SolverMode::kIncremental,
                                           SolverMode::kGlobalOracle),
                         [](const auto& param_info) {
                           return param_info.param == SolverMode::kIncremental
                                      ? "incremental"
                                      : "oracle";
                         });

// ---------------------------------------------------------------------------
// Incremental-machinery unit tests (solver stats, component isolation, the
// bipartite index) — these run on the incremental solver only.
// ---------------------------------------------------------------------------

TEST(MaxMinIncremental, UncontendedFlowTakesFastPath) {
  Simulation sim;
  Network net(sim);
  net.set_solver_mode(SolverMode::kIncremental);
  const HostId a = net.add_host("a");
  const HostId b = net.add_host("b");
  const LinkId ab = net.add_link("ab", 1e8, 1_ms, 1e6);
  net.add_route(a, b, {ab});
  const FlowId f = net.start_flow(a, b, 1e12, 2e7, nullptr);
  const auto& stats = net.solver_stats();
  EXPECT_EQ(stats.solves, 1u);
  EXPECT_EQ(stats.fast_solves, 1u);  // alone on its link
  EXPECT_DOUBLE_EQ(net.flow_info(f).rate, 2e7);
  EXPECT_DOUBLE_EQ(net.flow_info(f).achievable_rate, 1e8);
  // A second flow on the same link forces the general path.
  net.start_flow(a, b, 1e12, kUnlimitedRate, nullptr);
  EXPECT_EQ(stats.solves, 2u);
  EXPECT_EQ(stats.fast_solves, 1u);
  EXPECT_EQ(stats.peak_component_flows, 2u);
}

TEST(MaxMinIncremental, DisjointComponentsDoNotTouchEachOther) {
  Simulation sim;
  Network net(sim);
  net.set_solver_mode(SolverMode::kIncremental);
  // Two independent dumbbells; mutating one must not enlarge the dirty
  // component beyond it or perturb the other's rates.
  std::vector<FlowId> flows;
  for (int g = 0; g < 2; ++g) {
    const std::string s = std::to_string(g);
    const HostId src = net.add_host("s" + s);
    const HostId dst = net.add_host("r" + s);
    const LinkId l = net.add_link("l" + s, 1e8, 1_ms, 1e6);
    net.add_route(src, dst, {l});
    flows.push_back(net.start_flow(src, dst, 1e12, kUnlimitedRate, nullptr));
    flows.push_back(net.start_flow(src, dst, 1e12, kUnlimitedRate, nullptr));
  }
  EXPECT_EQ(net.solver_stats().peak_component_flows, 2u);
  const double other_before = net.flow_info(flows[2]).rate;
  net.set_rate_cap(flows[0], 1e7);
  // Still 2: the re-solve saw only dumbbell 0.
  EXPECT_EQ(net.solver_stats().peak_component_flows, 2u);
  EXPECT_EQ(net.flow_info(flows[2]).rate, other_before);  // bit-identical
  EXPECT_DOUBLE_EQ(net.flow_info(flows[1]).rate, 9e7);
}

TEST(MaxMinIncremental, RouteCrossingALinkTwiceIsRejected) {
  Simulation sim;
  Network net(sim);
  const HostId a = net.add_host("a");
  const HostId b = net.add_host("b");
  const LinkId ab = net.add_link("ab", 1e8, 1_ms, 1e6);
  EXPECT_THROW(net.add_route(a, b, {ab, ab}), std::invalid_argument);
}

TEST(MaxMinIncremental, SolverModeSwitchRequiresIdleNetwork) {
  Simulation sim;
  Network net(sim);
  const HostId a = net.add_host("a");
  const HostId b = net.add_host("b");
  const LinkId ab = net.add_link("ab", 1e8, 1_ms, 1e6);
  net.add_route(a, b, {ab});
  net.start_flow(a, b, 1e12, kUnlimitedRate, nullptr);
  EXPECT_DEATH(net.set_solver_mode(SolverMode::kGlobalOracle),
               "no flows are active");
}

TEST(MaxMinIncremental, LinkUtilizationMatchesFlowInfoSum) {
  // Regression: link_utilization() must read the persistent per-link flow
  // list, i.e. agree exactly with summing the flows' own reported rates.
  Simulation sim;
  Network net(sim);
  const LinkId wan = net.add_link("wan", 1e8, 5_ms, 1e6);
  std::vector<FlowId> flows;
  std::vector<LinkId> ups;
  for (int i = 0; i < 5; ++i) {
    const std::string s = std::to_string(i);
    const HostId src = net.add_host("s" + s);
    const HostId dst = net.add_host("r" + s);
    ups.push_back(net.add_link("up" + s, 4e7, 1_ms, 1e6));
    net.add_route(src, dst, {ups.back(), wan});
    const double cap = (i % 2 == 0) ? 1.5e7 : kUnlimitedRate;
    flows.push_back(net.start_flow(src, dst, 1e12, cap, nullptr));
  }
  double sum = 0;
  for (FlowId f : flows) sum += net.flow_info(f).rate;
  EXPECT_EQ(net.link_utilization(wan), sum);
  for (std::size_t i = 0; i < ups.size(); ++i)
    EXPECT_EQ(net.link_utilization(ups[i]), net.flow_info(flows[i]).rate);
  net.cancel_flow(flows[1]);
  sum = 0;
  for (FlowId f : flows)
    if (net.flow_active(f)) sum += net.flow_info(f).rate;
  EXPECT_EQ(net.link_utilization(wan), sum);
}

// ---------------------------------------------------------------------------
// Direct solver-primitive tests (no Network, no Simulation).
// ---------------------------------------------------------------------------

TEST(BipartiteIndex, SwapPopRemoveRepairsBackReferences) {
  maxmin::BipartiteIndex index;
  index.ensure_links(2);
  maxmin::FlowState f0, f1, f2;
  f0.links = {0, 1};
  f1.links = {0};
  f2.links = {0, 1};
  index.add(&f0);
  index.add(&f1);
  index.add(&f2);
  ASSERT_EQ(index.flows_on(0).size(), 3u);
  // Removing the middle entry swap-pops f2 into its slot; f2's back-refs
  // must be repaired or a later remove corrupts the list.
  index.remove(&f1);
  ASSERT_EQ(index.flows_on(0).size(), 2u);
  EXPECT_EQ(index.flows_on(0)[1], &f2);
  index.remove(&f2);
  ASSERT_EQ(index.flows_on(0).size(), 1u);
  EXPECT_EQ(index.flows_on(0)[0], &f0);
  EXPECT_EQ(index.flows_on(1).size(), 1u);
  index.remove(&f0);
  EXPECT_TRUE(index.flows_on(0).empty());
  EXPECT_TRUE(index.flows_on(1).empty());
}

TEST(MaxMinSolver, ComponentSolveMatchesGlobalReference) {
  // Two disjoint components solved one at a time must reproduce the global
  // pass bit-for-bit (the incremental scheme's core claim, in miniature).
  const std::vector<double> capacity = {9e7, 5e7, 1e8};
  const auto build = [](std::vector<maxmin::FlowState>& fs) {
    fs.resize(4);
    fs[0].links = {0, 1};
    fs[1].links = {1};
    fs[2].links = {2};
    fs[3].links = {2};
    fs[2].rate_cap = 2e7;
    for (std::size_t i = 0; i < fs.size(); ++i) fs[i].order = i;
  };
  std::vector<maxmin::FlowState> ref;
  build(ref);
  std::vector<maxmin::FlowState*> by_order;
  for (auto& f : ref) by_order.push_back(&f);
  maxmin::solve_global_reference(by_order, capacity.size(), capacity);

  std::vector<maxmin::FlowState> inc;
  build(inc);
  maxmin::BipartiteIndex index;
  index.ensure_links(capacity.size());
  for (auto& f : inc) index.add(&f);
  maxmin::Solver solver;
  solver.ensure_links(capacity.size());
  solver.collect_component(index, {0}, nullptr);
  EXPECT_EQ(solver.comp_flows().size(), 2u);
  solver.solve_component(capacity);
  solver.collect_component(index, {2}, nullptr);
  EXPECT_EQ(solver.comp_flows().size(), 2u);
  solver.solve_component(capacity);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(inc[i].rate, ref[i].rate) << "flow " << i;
    EXPECT_EQ(inc[i].achievable, ref[i].achievable) << "flow " << i;
  }
}

// ---------------------------------------------------------------------------
// Component solver vs the global reference, bitwise, on the cases where the
// heap-driven freeze search must break ties exactly like the reference scan.
// ---------------------------------------------------------------------------

struct FlowSpec {
  std::vector<maxmin::LinkId> links;
  double cap = maxmin::kUnlimited;
  std::uint64_t order = 0;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Solves `specs` with solve_global_reference and, separately, component
/// by component with the incremental Solver, then requires every rate and
/// achievable rate to match bit for bit. `removed` flows are added to the
/// index and swap-pop removed again before solving (reordering the per-link
/// lists); when `depart` is set, that flow is instead collected with its
/// component and dropped by remove_from_component, as the Network does for
/// a finishing flow.
void expect_component_solve_matches_reference(
    const std::vector<FlowSpec>& specs, const std::vector<double>& capacity,
    const std::vector<std::size_t>& removed = {}, int depart = -1) {
  const auto gone = [&](std::size_t i) {
    return std::find(removed.begin(), removed.end(), i) != removed.end() ||
           static_cast<int>(i) == depart;
  };
  const auto build = [&](std::vector<maxmin::FlowState>& fs) {
    fs.resize(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      fs[i].links = specs[i].links;
      fs[i].rate_cap = specs[i].cap;
      fs[i].order = specs[i].order;
    }
  };

  std::vector<maxmin::FlowState> ref;
  build(ref);
  std::vector<maxmin::FlowState*> by_order;
  for (std::size_t i = 0; i < ref.size(); ++i)
    if (!gone(i)) by_order.push_back(&ref[i]);
  std::sort(by_order.begin(), by_order.end(),
            [](const auto* a, const auto* b) { return a->order < b->order; });
  maxmin::solve_global_reference(by_order, capacity.size(), capacity);

  std::vector<maxmin::FlowState> inc;
  build(inc);
  maxmin::BipartiteIndex index;
  index.ensure_links(capacity.size());
  maxmin::Solver solver;
  solver.ensure_links(capacity.size());
  for (auto& f : inc) index.add(&f);
  for (std::size_t i : removed) index.remove(&inc[i]);
  if (depart >= 0) {
    maxmin::FlowState& d = inc[static_cast<std::size_t>(depart)];
    solver.collect_component(index, d.links, &d);
    index.remove(&d);
    solver.remove_from_component(&d);
    solver.solve_component(capacity);
  }
  std::vector<bool> solved(inc.size(), false);
  for (std::size_t i = 0; i < inc.size(); ++i) {
    if (gone(i) || solved[i]) continue;
    solver.collect_component(index, inc[i].links, &inc[i]);
    for (std::size_t j = 0; j < inc.size(); ++j)
      if (!gone(j) && solver.in_component(&inc[j])) solved[j] = true;
    solver.solve_component(capacity);
  }
  for (std::size_t i = 0; i < inc.size(); ++i) {
    if (gone(i)) continue;
    EXPECT_EQ(bits(inc[i].rate), bits(ref[i].rate))
        << "flow " << i << ": " << inc[i].rate << " vs " << ref[i].rate;
    EXPECT_EQ(bits(inc[i].achievable), bits(ref[i].achievable))
        << "flow " << i << ": " << inc[i].achievable << " vs "
        << ref[i].achievable;
  }
}

TEST(MaxMinSolver, EqualLinkSharesFreezeTheLowestLinkIdFirst) {
  // Links 1 and 2 tie at 1/3 (1.0/3 and 2.0/6 round to the same double)
  // and share flow 0, so which one freezes first decides the inexact
  // residuals the others see. Link 0 (id below both) is slack.
  const std::vector<double> capacity = {10.0, 1.0, 2.0, 0.9};
  ASSERT_EQ(bits(capacity[1] / 3), bits(capacity[2] / 6));
  std::vector<FlowSpec> specs = {
      {{1, 2, 0}}, {{1}}, {{1, 3}},
      {{2, 3}},    {{2}}, {{2}}, {{2, 0}}, {{2}},
  };
  for (std::size_t i = 0; i < specs.size(); ++i) specs[i].order = 10 - i;
  expect_component_solve_matches_reference(specs, capacity);
}

TEST(MaxMinSolver, CapEqualToTheLinkShareWinsTheTie) {
  // Flow 1's cap equals link 0's share exactly: `<=` freezes the cap
  // first, one flow at a time, not the whole link.
  const std::vector<double> capacity = {1.0, 0.7};
  std::vector<FlowSpec> specs = {{{0}}, {{0, 1}}, {{0}}, {{1}}};
  specs[1].cap = capacity[0] / 3;
  for (std::size_t i = 0; i < specs.size(); ++i) specs[i].order = i;
  expect_component_solve_matches_reference(specs, capacity);
}

TEST(MaxMinSolver, EqualCapsFreezeTheLowestOrderFirst) {
  // Flows 0 and 1 share link 0 with the same cap, equal to the link's
  // share. Whichever freezes first keeps its cap; in floating point the
  // share left for the rest then drops an ulp below that cap, so the other
  // is frozen at the share instead. The lower `order` (flow 1, not the
  // lower index) must win, as in the reference's scan over flows in order.
  const std::vector<double> capacity = {2.1};
  const double cap = capacity[0] / 3;
  ASSERT_LT((capacity[0] - cap) / 2, cap);
  const std::vector<FlowSpec> specs = {
      {{0}, cap, 7}, {{0}, cap, 3}, {{0}, maxmin::kUnlimited, 5}};
  expect_component_solve_matches_reference(specs, capacity);
}

TEST(MaxMinSolver, InfiniteCapacityLinkIsNeverTheBottleneck) {
  // Link 0 is unbounded: its share is +inf, so only caps and link 1 can
  // freeze flows; flow 2 crosses nothing finite and ends at its (infinite)
  // cap, exactly as the reference's fall-through branch does.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> capacity = {inf, 3e7};
  std::vector<FlowSpec> specs = {
      {{0, 1}}, {{0}, 2e6}, {{0}}, {{1}, 1e7},
  };
  for (std::size_t i = 0; i < specs.size(); ++i) specs[i].order = i;
  expect_component_solve_matches_reference(specs, capacity);
}

TEST(MaxMinSolver, SwapPopReorderedLinkListsKeepReferenceRates) {
  // Removals swap-pop the per-link lists out of `order`; the bottleneck
  // walk visits flows in list order, which must not matter. One flow also
  // departs through remove_from_component, leaving a hole in the
  // collected component.
  const std::vector<double> capacity = {1.0, 0.3, 0.77, 5.0};
  std::vector<FlowSpec> specs;
  for (std::uint64_t i = 0; i < 12; ++i) {
    FlowSpec f;
    f.links = {0, static_cast<maxmin::LinkId>(1 + i % 3)};
    f.cap = i % 4 == 1 ? 0.05 : maxmin::kUnlimited;
    f.order = (i * 7) % 12;
    specs.push_back(f);
  }
  expect_component_solve_matches_reference(specs, capacity, {0, 4, 5});
  expect_component_solve_matches_reference(specs, capacity, {0, 4, 5}, 8);
  expect_component_solve_matches_reference(specs, capacity, {}, 3);
}

TEST(MaxMinSolver, RandomComponentsWithTiesMatchReference) {
  // Capacities, caps and routes drawn from small sets so equal shares,
  // cap/share ties and equal caps are common.
  Rng rng(18);
  const double caps[] = {0.1, 0.25, 1.0 / 3, 0.5, maxmin::kUnlimited};
  for (int round = 0; round < 200; ++round) {
    const auto nlinks = static_cast<std::size_t>(rng.uniform_int(1, 6));
    std::vector<double> capacity(nlinks);
    for (double& c : capacity)
      c = static_cast<double>(rng.uniform_int(1, 4)) * (1.0 / 3);
    std::vector<FlowSpec> specs(static_cast<std::size_t>(rng.uniform_int(1, 14)));
    for (std::size_t i = 0; i < specs.size(); ++i) {
      for (std::size_t l = 0; l < nlinks; ++l)
        if (rng.uniform_int(0, 2) == 0)
          specs[i].links.push_back(static_cast<maxmin::LinkId>(l));
      specs[i].cap = caps[rng.uniform_int(0, 4)];
      specs[i].order = i;
    }
    rng.shuffle(specs);  // order no longer follows the index
    std::vector<std::size_t> removed;
    if (specs.size() > 3 && rng.uniform_int(0, 1) == 1) removed = {1};
    const int depart = specs.size() > 2 ? 0 : -1;
    SCOPED_TRACE(round);
    expect_component_solve_matches_reference(specs, capacity, removed,
                                             depart);
  }
}

}  // namespace
}  // namespace gridsim::net
