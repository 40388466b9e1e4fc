// Tests for the Grid'5000 topology builder.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "simcore/simulation.hpp"
#include "topology/grid5000.hpp"

namespace gridsim::topo {
namespace {

using namespace gridsim::literals;

// Reference for the computed routes: a hand-built network holding the
// materialised per-pair route table the grid used to store, with its links
// added in the same order (so LinkIds match). Test-only; keep it a literal
// copy of the historical pair loops rather than a re-derivation.
std::unique_ptr<net::Network> reference_pair_table(Simulation& sim,
                                                   const GridSpec& spec) {
  auto net = std::make_unique<net::Network>(sim);
  auto& network_ = *net;
  const auto& spec_ = spec;
  const auto nsites = spec_.sites.size();
  struct SiteLinks {
    net::LinkId up = -1, down = -1;
    std::vector<net::LinkId> node_up, node_down;
    std::vector<net::LinkId> native_up, native_down;
  };
  std::vector<SiteLinks> sl(nsites);
  std::vector<std::vector<net::HostId>> site_nodes_;
  for (size_t s = 0; s < nsites; ++s) {
    const SiteSpec& site = spec_.sites[s];
    sl[s].up = network_.add_link(site.name + ".up",
                                 tcp::ethernet_goodput(site.uplink_bps),
                                 spec_.uplink_latency, spec_.queue_bytes);
    sl[s].down = network_.add_link(site.name + ".down",
                                   tcp::ethernet_goodput(site.uplink_bps),
                                   spec_.uplink_latency, spec_.queue_bytes);
    site_nodes_.emplace_back();
    for (int n = 0; n < site.nodes; ++n) {
      const std::string host_name = site.name + std::to_string(n);
      const net::HostId h = network_.add_host(host_name, site.cpu_speed);
      site_nodes_.back().push_back(h);
      sl[s].node_up.push_back(network_.add_link(
          host_name + ".up", tcp::ethernet_goodput(site.nic_bps),
          spec_.nic_latency, spec_.queue_bytes));
      sl[s].node_down.push_back(network_.add_link(
          host_name + ".down", tcp::ethernet_goodput(site.nic_bps),
          spec_.nic_latency, spec_.queue_bytes));
      const net::LinkId lo = network_.add_link(host_name + ".lo", 5e9,
                                               microseconds(5), 4e6);
      network_.add_route(h, h, {lo}, /*symmetric=*/false);
      if (spec_.prefer_native_intra && site.native_bps > 0) {
        sl[s].native_up.push_back(
            network_.add_link(host_name + ".mx.up", site.native_bps / 8.0,
                              site.native_latency, spec_.queue_bytes));
        sl[s].native_down.push_back(
            network_.add_link(host_name + ".mx.down", site.native_bps / 8.0,
                              site.native_latency, spec_.queue_bytes));
      }
    }
  }
  for (size_t s = 0; s < nsites; ++s) {
    const auto& nodes = site_nodes_[s];
    const bool native = !sl[s].native_up.empty();
    for (size_t i = 0; i < nodes.size(); ++i) {
      for (size_t j = 0; j < nodes.size(); ++j) {
        if (i == j) continue;
        if (native) {
          network_.add_route(nodes[i], nodes[j],
                             {sl[s].native_up[i], sl[s].native_down[j]},
                             /*symmetric=*/false);
        } else {
          network_.add_route(nodes[i], nodes[j],
                             {sl[s].node_up[i], sl[s].node_down[j]},
                             /*symmetric=*/false);
        }
      }
    }
  }
  for (size_t s1 = 0; s1 < nsites; ++s1) {
    for (size_t s2 = s1 + 1; s2 < nsites; ++s2) {
      const double rtt = spec_.rtt_ms[s1][s2];
      const SimTime one_way = from_seconds(rtt * 1e-3 / 2.0);
      const SimTime wan_lat =
          one_way - 2 * spec_.uplink_latency - 2 * spec_.nic_latency;
      const std::string nm =
          spec_.sites[s1].name + "-" + spec_.sites[s2].name;
      const net::LinkId w12 = network_.add_link(
          nm, tcp::ethernet_goodput(10e9), wan_lat, 4e6);
      const net::LinkId w21 = network_.add_link(
          nm + ".rev", tcp::ethernet_goodput(10e9), wan_lat, 4e6);
      for (size_t i = 0; i < site_nodes_[s1].size(); ++i) {
        for (size_t j = 0; j < site_nodes_[s2].size(); ++j) {
          network_.add_route(site_nodes_[s1][i], site_nodes_[s2][j],
                             {sl[s1].node_up[i], sl[s1].up, w12, sl[s2].down,
                              sl[s2].node_down[j]},
                             /*symmetric=*/false);
          network_.add_route(site_nodes_[s2][j], site_nodes_[s1][i],
                             {sl[s2].node_up[j], sl[s2].up, w21, sl[s1].down,
                              sl[s1].node_down[i]},
                             /*symmetric=*/false);
        }
      }
    }
  }
  return net;
}

GridSpec native_fabric_spec() {
  GridSpec spec = GridSpec::rennes_nancy(4);
  spec.prefer_native_intra = true;
  spec.sites[0].native_bps = 10e9;  // Nancy keeps Ethernet only
  return spec;
}

class RouteEquivalence : public ::testing::TestWithParam<const char*> {};

GridSpec equivalence_spec(const std::string& name) {
  if (name == "rennes_nancy") return GridSpec::rennes_nancy(8);
  if (name == "single_cluster") return GridSpec::single_cluster(16);
  if (name == "ray2mesh_quad") return GridSpec::ray2mesh_quad(4);
  if (name == "grid5000_full") return GridSpec::grid5000_full(2);
  if (name == "native_fabric") return native_fabric_spec();
  throw std::invalid_argument(name);
}

TEST_P(RouteEquivalence, ComputedRoutesMatchPairTable) {
  const GridSpec spec = equivalence_spec(GetParam());
  Simulation sim;
  Grid grid(sim, spec);
  Simulation ref_sim;
  const auto ref = reference_pair_table(ref_sim, spec);
  const net::Network& got = grid.network();
  ASSERT_EQ(got.host_count(), ref->host_count());
  ASSERT_EQ(got.link_count(), ref->link_count());
  for (net::LinkId l = 0; l < got.link_count(); ++l) {
    EXPECT_EQ(got.link(l).name, ref->link(l).name);
    EXPECT_EQ(got.link(l).capacity, ref->link(l).capacity);
    EXPECT_EQ(got.link(l).latency, ref->link(l).latency);
    EXPECT_EQ(got.link(l).queue_bytes, ref->link(l).queue_bytes);
  }
  for (net::HostId a = 0; a < got.host_count(); ++a) {
    for (net::HostId b = 0; b < got.host_count(); ++b) {
      ASSERT_TRUE(got.has_route(a, b));
      const net::Route want = ref->route(a, b);
      const net::Route have = got.route(a, b);
      ASSERT_EQ(std::vector<net::LinkId>(have.begin(), have.end()),
                std::vector<net::LinkId>(want.begin(), want.end()))
          << a << "->" << b;
      EXPECT_EQ(got.path_latency(a, b), ref->path_latency(a, b));
      EXPECT_EQ(got.path_capacity(a, b), ref->path_capacity(a, b));
      EXPECT_EQ(got.path_queue(a, b), ref->path_queue(a, b));
    }
  }
  EXPECT_FALSE(got.has_route(0, got.host_count()));
  EXPECT_FALSE(got.has_route(-1, 0));
}

INSTANTIATE_TEST_SUITE_P(AllSpecs, RouteEquivalence,
                         ::testing::Values("rennes_nancy", "single_cluster",
                                           "ray2mesh_quad", "grid5000_full",
                                           "native_fabric"),
                         [](const auto& p) { return std::string(p.param); });

TEST(Grid5000, RennesNancyShape) {
  Simulation sim;
  Grid grid(sim, GridSpec::rennes_nancy(8));
  EXPECT_EQ(grid.site_count(), 2);
  EXPECT_EQ(grid.nodes_at(0), 8);
  EXPECT_EQ(grid.total_nodes(), 16);
  EXPECT_EQ(grid.site_of(grid.node(0, 3)), 0);
  EXPECT_EQ(grid.site_of(grid.node(1, 7)), 1);
}

TEST(Grid5000, IntraClusterLatencyBudget) {
  Simulation sim;
  Grid grid(sim, GridSpec::rennes_nancy(2));
  // Two NIC hops of 17.5 us: the 41 us of Table 4 minus 2 x 3 us stack.
  EXPECT_EQ(grid.network().path_latency(grid.node(0, 0), grid.node(0, 1)),
            35_us);
  EXPECT_EQ(grid.rtt(grid.node(0, 0), grid.node(0, 1)), 70_us);
}

TEST(Grid5000, InterClusterRttMatchesSpec) {
  Simulation sim;
  Grid grid(sim, GridSpec::rennes_nancy(2));
  const SimTime rtt = grid.rtt(grid.node(0, 0), grid.node(1, 0));
  EXPECT_EQ(rtt, from_seconds(11.6e-3));
}

TEST(Grid5000, PathCapacityIsNicBound) {
  Simulation sim;
  Grid grid(sim, GridSpec::rennes_nancy(2));
  const double cap = grid.network().path_capacity(grid.node(0, 0),
                                                  grid.node(1, 0));
  EXPECT_NEAR(cap * 8 / 1e6, 941.5, 1.0);  // 1 GbE goodput despite 10G WAN
}

TEST(Grid5000, LoopbackRouteExists) {
  Simulation sim;
  Grid grid(sim, GridSpec::rennes_nancy(2));
  const auto h = grid.node(0, 0);
  EXPECT_TRUE(grid.network().has_route(h, h));
  EXPECT_LE(grid.network().path_latency(h, h), 10_us);
}

TEST(Grid5000, AllPairsRouted) {
  Simulation sim;
  Grid grid(sim, GridSpec::ray2mesh_quad(4));
  for (int a = 0; a < grid.total_nodes(); ++a)
    for (int b = 0; b < grid.total_nodes(); ++b)
      EXPECT_TRUE(grid.network().has_route(a, b))
          << "missing route " << a << "->" << b;
}

TEST(Grid5000, QuadRttsHonourPaperValues) {
  Simulation sim;
  Grid grid(sim, GridSpec::ray2mesh_quad(1));
  // Rennes-Nancy 11.6 ms, Sophia-Toulouse 19.9 ms.
  EXPECT_EQ(grid.rtt(grid.node(0, 0), grid.node(1, 0)),
            from_seconds(11.6e-3));
  EXPECT_EQ(grid.rtt(grid.node(2, 0), grid.node(3, 0)),
            from_seconds(19.9e-3));
}

TEST(Grid5000, CpuSpeedOrdering) {
  Simulation sim;
  Grid grid(sim, GridSpec::ray2mesh_quad(1));
  const double rennes = grid.cpu_speed(grid.node(0, 0));
  const double nancy = grid.cpu_speed(grid.node(1, 0));
  const double sophia = grid.cpu_speed(grid.node(2, 0));
  const double toulouse = grid.cpu_speed(grid.node(3, 0));
  // Paper: Nancy < Rennes, Toulouse < Sophia.
  EXPECT_LT(nancy, rennes);
  EXPECT_LT(nancy, toulouse);
  EXPECT_GT(sophia, rennes);
  EXPECT_GT(sophia, toulouse);
}

TEST(Grid5000, SingleClusterHasNoWan) {
  Simulation sim;
  Grid grid(sim, GridSpec::single_cluster(16));
  EXPECT_EQ(grid.site_count(), 1);
  EXPECT_EQ(grid.total_nodes(), 16);
  EXPECT_EQ(grid.rtt(grid.node(0, 0), grid.node(0, 15)), 70_us);
}

TEST(Grid5000, InvalidSpecsThrow) {
  Simulation sim;
  GridSpec bad = GridSpec::rennes_nancy(2);
  bad.rtt_ms = {{0.0}};
  EXPECT_THROW(Grid(sim, bad), std::invalid_argument);
  GridSpec zero_nodes = GridSpec::single_cluster(0);
  EXPECT_THROW(Grid(sim, zero_nodes), std::invalid_argument);
}

TEST(Grid5000, RaggedRttMatrixThrows) {
  // Right row count, but a row too short to hold every site pair.
  Simulation sim;
  GridSpec ragged = GridSpec::ray2mesh_quad(1);
  ragged.rtt_ms[1] = {11.6, 0.0};
  EXPECT_THROW(Grid(sim, ragged), std::invalid_argument);
  GridSpec short_first = GridSpec::rennes_nancy(1);
  short_first.rtt_ms[0] = {0.0};
  EXPECT_THROW(Grid(sim, short_first), std::invalid_argument);
}

TEST(Grid5000, NodeIndexOutOfRangeThrows) {
  Simulation sim;
  Grid grid(sim, GridSpec::rennes_nancy(2));
  EXPECT_EQ(grid.node(1, 1), 3);
  EXPECT_THROW(grid.node(0, 2), std::out_of_range);
  EXPECT_THROW(grid.node(0, -1), std::out_of_range);
  EXPECT_THROW(grid.node(2, 0), std::out_of_range);
  EXPECT_THROW(grid.site_of(4), std::out_of_range);
}

TEST(Grid5000, AddRouteOnComputedRoutesThrows) {
  Simulation sim;
  Grid grid(sim, GridSpec::rennes_nancy(2));
  EXPECT_THROW(grid.network().add_route(0, 1, {0}), std::logic_error);
}

TEST(Grid5000, HundredThousandHostsConstruct) {
  // 100k hosts: a per-pair table would need 10^10 routes.
  Simulation sim;
  Grid grid(sim, GridSpec::rennes_nancy(50000));
  EXPECT_EQ(grid.total_nodes(), 100000);
  const net::HostId a = grid.node(0, 49999);
  const net::HostId b = grid.node(1, 12345);
  EXPECT_EQ(grid.site_of(b), 1);
  const net::Route r = grid.network().route(a, b);
  ASSERT_EQ(r.size(), 5u);
  EXPECT_EQ(grid.network().link(*r.begin()).name, "rennes49999.up");
  EXPECT_EQ(grid.network().link(r.begin()[2]).name, "rennes-nancy");
  EXPECT_EQ(grid.network().link(r.begin()[4]).name, "nancy12345.down");
  EXPECT_EQ(grid.rtt(a, b), from_seconds(11.6e-3));
}

TEST(Grid5000, WanLatencyChangeReachesEveryCrossSitePair) {
  // Route latencies are summed on demand: a WAN latency change (the jitter
  // injector's path) must show in every Rennes->Nancy pair and nowhere
  // inside a site.
  Simulation sim;
  Grid grid(sim, GridSpec::rennes_nancy(4));
  auto& net = grid.network();
  const net::LinkId wan = net.find_link("rennes-nancy");
  ASSERT_GE(wan, 0);
  const SimTime before_cross = grid.rtt(grid.node(0, 0), grid.node(1, 0));
  const SimTime before_intra = grid.rtt(grid.node(0, 0), grid.node(0, 1));
  net.set_link_latency(wan, net.link(wan).latency + 1_ms);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      const net::HostId r = grid.node(0, i);
      const net::HostId n = grid.node(1, j);
      EXPECT_EQ(grid.rtt(r, n), before_cross + 1_ms);
      EXPECT_EQ(net.path_latency(n, r), before_cross / 2);  // .rev untouched
      if (i == j) continue;
      for (int site = 0; site < 2; ++site) {
        EXPECT_EQ(grid.rtt(grid.node(site, i), grid.node(site, j)),
                  before_intra);
      }
    }
  }
}

TEST(Grid5000, WanContentionAtUplink) {
  // Eight concurrent node pairs Rennes->Nancy share the 10G uplink: each
  // still gets its full NIC rate (8 x 1G < 10G). With a 1G uplink
  // (Toulouse) they would contend.
  Simulation sim;
  Grid grid(sim, GridSpec::rennes_nancy(8));
  auto& net = grid.network();
  std::vector<net::FlowId> flows;
  for (int i = 0; i < 8; ++i)
    flows.push_back(net.start_flow(grid.node(0, i), grid.node(1, i), 1e9,
                                   net::kUnlimitedRate, nullptr));
  for (auto f : flows) {
    EXPECT_NEAR(net.flow_info(f).rate, tcp::ethernet_goodput(1e9), 1e4);
  }
}

}  // namespace
}  // namespace gridsim::topo
