#include "topology/grid5000.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

namespace gridsim::topo {

namespace {

// Site-to-site RTTs for the four ray2mesh sites (ms). The paper's Fig 8
// labels the six edges with {11.6, 14.5, 17.2, 17.8, 19.2, 19.9}; the text
// additionally gives Rennes--Sophia ~19 ms. The assignment below honours
// those constraints (order: Rennes, Nancy, Sophia, Toulouse).
constexpr double kQuadRtt[4][4] = {
    {0.0, 11.6, 19.2, 14.5},
    {11.6, 0.0, 17.2, 17.8},
    {19.2, 17.2, 0.0, 19.9},
    {14.5, 17.8, 19.9, 0.0},
};

}  // namespace

GridSpec GridSpec::rennes_nancy(int nodes_per_site) {
  GridSpec g;
  // Table 3: Rennes Opteron 248 @ 2.2 GHz, Nancy Opteron 246 @ 2.0 GHz.
  g.sites.push_back(SiteSpec{"rennes", nodes_per_site, 1.0, 1e9, 10e9});
  g.sites.push_back(SiteSpec{"nancy", nodes_per_site, 0.97, 1e9, 10e9});
  g.rtt_ms = {{0.0, 11.6}, {11.6, 0.0}};
  return g;
}

GridSpec GridSpec::single_cluster(int nodes, std::string name) {
  GridSpec g;
  g.sites.push_back(SiteSpec{std::move(name), nodes, 1.0, 1e9, 10e9});
  g.rtt_ms = {{0.0}};
  return g;
}

GridSpec GridSpec::ray2mesh_quad(int nodes_per_site) {
  GridSpec g;
  // Node capacity order from the paper: Nancy < Rennes, Toulouse < Sophia.
  // Speeds calibrated against Table 6's per-cluster ray throughput.
  g.sites.push_back(SiteSpec{"rennes", nodes_per_site, 1.00, 1e9, 10e9});
  g.sites.push_back(SiteSpec{"nancy", nodes_per_site, 0.97, 1e9, 10e9});
  g.sites.push_back(SiteSpec{"sophia", nodes_per_site, 1.21, 1e9, 10e9});
  g.sites.push_back(SiteSpec{"toulouse", nodes_per_site, 0.99, 1e9, 1e9});
  g.rtt_ms.assign(4, std::vector<double>(4, 0.0));
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j) g.rtt_ms[static_cast<size_t>(i)][static_cast<size_t>(j)] = kQuadRtt[i][j];
  return g;
}

GridSpec GridSpec::grid5000_full(int nodes_per_site) {
  GridSpec g;
  // Order: bordeaux, grenoble, lille, lyon, nancy, orsay, rennes, sophia,
  // toulouse. Fig 1: lyon, nancy, orsay, rennes (and the core ring) on
  // 10 GbE; bordeaux, grenoble, lille, sophia, toulouse reached at 1 GbE.
  struct Row {
    const char* name;
    double speed;
    double uplink;
  };
  const Row rows[9] = {
      {"bordeaux", 1.0, 1e9},  {"grenoble", 1.0, 1e9}, {"lille", 1.0, 1e9},
      {"lyon", 1.05, 10e9},    {"nancy", 0.97, 10e9},  {"orsay", 1.0, 10e9},
      {"rennes", 1.0, 10e9},   {"sophia", 1.21, 1e9},  {"toulouse", 0.99, 1e9},
  };
  for (const Row& r : rows)
    g.sites.push_back(SiteSpec{r.name, nodes_per_site, r.speed, 1e9,
                               r.uplink});
  // Pairwise RTTs in ms. Published values where the paper gives them;
  // distance-based estimates elsewhere (RENATER star around Paris).
  const double rtt[9][9] = {
      //        bor   gre   lil   lyo   nan   ors   ren   sop   tou
      /*bor*/ {0.0, 14.0, 14.5, 11.0, 14.0, 9.5, 10.5, 15.5, 5.5},
      /*gre*/ {14.0, 0.0, 16.0, 3.5, 13.0, 11.5, 15.0, 7.0, 12.5},
      /*lil*/ {14.5, 16.0, 0.0, 12.0, 8.5, 5.0, 9.0, 19.5, 18.2},
      /*lyo*/ {11.0, 3.5, 12.0, 0.0, 10.0, 8.5, 12.0, 9.0, 10.0},
      /*nan*/ {14.0, 13.0, 8.5, 10.0, 0.0, 7.0, 11.6, 17.2, 17.8},
      /*ors*/ {9.5, 11.5, 5.0, 8.5, 7.0, 0.0, 7.5, 15.0, 13.0},
      /*ren*/ {10.5, 15.0, 9.0, 12.0, 11.6, 7.5, 0.0, 19.2, 14.5},
      /*sop*/ {15.5, 7.0, 19.5, 9.0, 17.2, 15.0, 19.2, 0.0, 19.9},
      /*tou*/ {5.5, 12.5, 18.2, 10.0, 17.8, 13.0, 14.5, 19.9, 0.0},
  };
  g.rtt_ms.assign(9, std::vector<double>(9, 0.0));
  for (int i = 0; i < 9; ++i)
    for (int j = 0; j < 9; ++j)
      g.rtt_ms[static_cast<size_t>(i)][static_cast<size_t>(j)] = rtt[i][j];
  return g;
}

/// The grid's routes, computed on demand from the hierarchy host -> site
/// switch -> WAN link -> site switch -> host (plus loopback and the optional
/// native fabric): O(hosts + sites^2) link ids instead of a table entry per
/// host pair.
struct Grid::Routes final : net::RouteSource {
  struct Host {
    int site = 0;
    net::LinkId up = -1, down = -1, lo = -1;
    /// Native fabric ports; -1 unless the site's intra traffic uses them.
    net::LinkId native_up = -1, native_down = -1;
  };
  struct Uplink {
    net::LinkId up = -1, down = -1;
  };

  explicit Routes(std::size_t n)
      : nsites(n), uplinks(n), wan(n * n, -1) {}

  bool find(net::HostId src, net::HostId dst, net::Route& out) const override {
    if (src < 0 || dst < 0 || static_cast<std::size_t>(src) >= hosts.size() ||
        static_cast<std::size_t>(dst) >= hosts.size())
      return false;
    const Host& a = hosts[static_cast<std::size_t>(src)];
    const Host& b = hosts[static_cast<std::size_t>(dst)];
    if (src == dst) {
      out = {a.lo};
    } else if (a.site != b.site) {
      const auto s1 = static_cast<std::size_t>(a.site);
      const auto s2 = static_cast<std::size_t>(b.site);
      out = {a.up, uplinks[s1].up, wan[s1 * nsites + s2], uplinks[s2].down,
             b.down};
    } else if (a.native_up >= 0) {
      out = {a.native_up, b.native_down};
    } else {
      out = {a.up, b.down};
    }
    return true;
  }

  std::size_t nsites;
  std::vector<Host> hosts;
  std::vector<Uplink> uplinks;
  std::vector<net::LinkId> wan;  ///< [s1 * nsites + s2]: the s1 -> s2 link
};

Grid::Grid(Simulation& sim, const GridSpec& spec)
    : spec_(spec), network_(sim) {
  const auto nsites = spec_.sites.size();
  if (spec_.rtt_ms.size() != nsites)
    throw std::invalid_argument("rtt_ms matrix size != number of sites");
  for (const auto& row : spec_.rtt_ms)
    if (row.size() != nsites)
      throw std::invalid_argument("rtt_ms row size != number of sites");

  auto routes = std::make_unique<Routes>(nsites);
  routes_ = routes.get();

  // Hosts, NIC links and site uplinks. The add_link order fixes every
  // LinkId, which the campaign digests depend on.
  for (size_t s = 0; s < nsites; ++s) {
    const SiteSpec& site = spec_.sites[s];
    if (site.nodes <= 0) throw std::invalid_argument("site with no nodes");
    routes->uplinks[s].up = network_.add_link(
        site.name + ".up", tcp::ethernet_goodput(site.uplink_bps),
        spec_.uplink_latency, spec_.queue_bytes);
    routes->uplinks[s].down = network_.add_link(
        site.name + ".down", tcp::ethernet_goodput(site.uplink_bps),
        spec_.uplink_latency, spec_.queue_bytes);
    site_first_host_.push_back(network_.host_count());
    const bool native = spec_.prefer_native_intra && site.native_bps > 0;
    for (int n = 0; n < site.nodes; ++n) {
      const std::string host_name = site.name + std::to_string(n);
      network_.add_host(host_name, site.cpu_speed);
      Routes::Host h;
      h.site = static_cast<int>(s);
      h.up = network_.add_link(host_name + ".up",
                               tcp::ethernet_goodput(site.nic_bps),
                               spec_.nic_latency, spec_.queue_bytes);
      h.down = network_.add_link(host_name + ".down",
                                 tcp::ethernet_goodput(site.nic_bps),
                                 spec_.nic_latency, spec_.queue_bytes);
      // Loopback for co-located processes: ~5 GB/s, 5 us one-way.
      h.lo = network_.add_link(host_name + ".lo", 5e9, microseconds(5), 4e6);
      // Optional native fabric ports (Myrinet/Infiniband class). Native
      // rates are used raw (no Ethernet framing overhead).
      if (native) {
        h.native_up =
            network_.add_link(host_name + ".mx.up", site.native_bps / 8.0,
                              site.native_latency, spec_.queue_bytes);
        h.native_down =
            network_.add_link(host_name + ".mx.down", site.native_bps / 8.0,
                              site.native_latency, spec_.queue_bytes);
      }
      routes->hosts.push_back(h);
    }
  }

  // Inter-site WAN links, one per direction.
  for (size_t s1 = 0; s1 < nsites; ++s1) {
    for (size_t s2 = s1 + 1; s2 < nsites; ++s2) {
      const double rtt = spec_.rtt_ms[s1][s2];
      if (rtt <= 0)
        throw std::invalid_argument("missing RTT between sites");
      // One-way budget: NIC + uplink on each side already contribute
      // 17.5 + 10 us per side; the WAN link carries the rest.
      const SimTime one_way = from_seconds(rtt * 1e-3 / 2.0);
      const SimTime wan_lat =
          one_way - 2 * spec_.uplink_latency - 2 * spec_.nic_latency;
      if (wan_lat <= 0) throw std::invalid_argument("RTT too small");
      // The backbone itself is 10 Gbps (RENATER); site uplinks bottleneck.
      const std::string nm =
          spec_.sites[s1].name + "-" + spec_.sites[s2].name;
      routes->wan[s1 * nsites + s2] = network_.add_link(
          nm, tcp::ethernet_goodput(10e9), wan_lat, 4e6);
      routes->wan[s2 * nsites + s1] = network_.add_link(
          nm + ".rev", tcp::ethernet_goodput(10e9), wan_lat, 4e6);
    }
  }
  network_.set_route_source(std::move(routes));
}

int Grid::total_nodes() const { return network_.host_count(); }

net::HostId Grid::node(int site, int index) const {
  if (index < 0 || index >= nodes_at(site))
    throw std::out_of_range("node index out of range");
  return site_first_host_[static_cast<size_t>(site)] + index;
}

int Grid::site_of(net::HostId h) const {
  return routes_->hosts.at(static_cast<size_t>(h)).site;
}

SimTime Grid::rtt(net::HostId a, net::HostId b) const {
  return network_.path_latency(a, b) + network_.path_latency(b, a);
}

std::vector<std::pair<net::HostId, net::HostId>> wan_host_pairs(
    const Grid& grid) {
  std::vector<std::pair<net::HostId, net::HostId>> pairs;
  const int nsites = grid.site_count();
  if (nsites == 1) {
    // No WAN to cross: a ring of intra-site pairs keeps cross-traffic
    // meaningful on single-cluster deployments.
    const int n = grid.nodes_at(0);
    for (int i = 0; i < n && n > 1; ++i)
      pairs.emplace_back(grid.node(0, i), grid.node(0, (i + 1) % n));
    return pairs;
  }
  for (int s1 = 0; s1 < nsites; ++s1) {
    for (int s2 = 0; s2 < nsites; ++s2) {
      if (s1 == s2) continue;
      const int n = std::min(grid.nodes_at(s1), grid.nodes_at(s2));
      for (int k = 0; k < n; ++k)
        pairs.emplace_back(grid.node(s1, k), grid.node(s2, k));
    }
  }
  return pairs;
}

std::unique_ptr<simfault::FaultInjector> install_faults(
    Grid& grid, const simfault::FaultPlan& plan) {
  if (!plan.active()) return nullptr;
  return std::make_unique<simfault::FaultInjector>(grid.network(), plan,
                                                   wan_host_pairs(grid));
}

}  // namespace gridsim::topo
