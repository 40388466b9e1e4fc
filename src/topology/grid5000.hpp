// Grid'5000 testbed model (paper Section 3.2).
//
// A deployment is a set of *sites*; each site has `nodes` hosts with one
// 1 GbE NIC each, connected to a site switch, which reaches the RENATER
// backbone through an uplink. Site pairs are joined by dedicated directed
// WAN links whose latency is derived from the paper's published RTTs
// (Fig 2: Rennes--Nancy 11.6 ms; Fig 8: the four ray2mesh sites).
//
// All links are directed (full-duplex Ethernet): each host has an up and a
// down link, each site an up/down uplink pair and each site pair two WAN
// links. Every host also gets a loopback link for co-located processes.
// Routes are not stored per host pair: the grid installs a route source
// that composes each one on demand from those per-host, per-site and
// per-site-pair link ids, so building a grid costs O(hosts + sites^2).
//
// Latency budget (matches Table 4): an intra-cluster TCP one-way time of
// 41 us = 2 x 17.5 us NIC/switch hops + 2 x 3 us kernel stack cost (the
// stack cost is applied by the messaging layer, not the links), and a grid
// one-way time of 5812 us for the 11.6 ms RTT pair.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "simcore/simulation.hpp"
#include "simfault/injector.hpp"
#include "simnet/network.hpp"
#include "simtcp/tcp.hpp"

namespace gridsim::topo {

/// One cluster of identical nodes.
struct SiteSpec {
  std::string name;
  int nodes = 8;
  /// Relative node speed; 1.0 = Rennes (AMD Opteron 248, 2.2 GHz).
  double cpu_speed = 1.0;
  double nic_bps = 1e9;     ///< raw NIC rate; Ethernet goodput applied
  double uplink_bps = 10e9; ///< site uplink to the backbone
  /// Optional high-speed intra-cluster fabric (Myrinet/Infiniband class).
  /// 0 disables it. Used only when GridSpec::prefer_native_intra is set —
  /// the paper's future-work question: is routing local traffic over the
  /// native network worth the heterogeneity-management overhead?
  double native_bps = 0;
  SimTime native_latency = microseconds(5);
};

struct GridSpec {
  std::vector<SiteSpec> sites;
  /// Symmetric site-to-site RTT in milliseconds; diagonal ignored.
  std::vector<std::vector<double>> rtt_ms;
  SimTime nic_latency = microseconds(17) + nanoseconds(500);  // 17.5 us
  SimTime uplink_latency = microseconds(10);
  double queue_bytes = 1e6;  ///< bottleneck queue per link
  /// Route intra-site traffic over each site's native fabric (where one is
  /// configured) instead of Ethernet. Inter-site traffic always uses
  /// Ethernet + the WAN.
  bool prefer_native_intra = false;

  /// The paper's main testbed: Rennes + Nancy, 11.6 ms RTT (Fig 2).
  static GridSpec rennes_nancy(int nodes_per_site = 8);
  /// One cluster only (the paper's intra-cluster reference runs).
  static GridSpec single_cluster(int nodes = 16, std::string name = "rennes");
  /// The four-site ray2mesh deployment of Fig 8 (8 nodes each).
  static GridSpec ray2mesh_quad(int nodes_per_site = 8);
  /// The full nine-site Grid'5000 backbone of Fig 1 (Bordeaux, Grenoble,
  /// Lille, Lyon, Nancy, Orsay, Rennes, Sophia, Toulouse). RTTs are
  /// derived from the paper's published pairs (Rennes-Nancy 11.6 ms,
  /// Rennes-Sophia ~19.2 ms, Toulouse-Lille 18.2 ms) and geographic
  /// distance estimates for the rest; sites on the 10 GbE ring get 10 Gbps
  /// uplinks, the others 1 Gbps.
  static GridSpec grid5000_full(int nodes_per_site = 2);
};

/// A built deployment: the network plus site/node bookkeeping.
class Grid {
 public:
  Grid(Simulation& sim, const GridSpec& spec);
  Grid(const Grid&) = delete;
  Grid& operator=(const Grid&) = delete;

  net::Network& network() { return network_; }
  const GridSpec& spec() const { return spec_; }

  int site_count() const { return static_cast<int>(spec_.sites.size()); }
  int nodes_at(int site) const {
    return spec_.sites.at(static_cast<size_t>(site)).nodes;
  }
  int total_nodes() const;
  net::HostId node(int site, int index) const;
  int site_of(net::HostId h) const;
  /// TCP round-trip time between two hosts (twice the path latency).
  SimTime rtt(net::HostId a, net::HostId b) const;
  double cpu_speed(net::HostId h) const { return network_.host(h).cpu_speed; }

 private:
  struct Routes;

  GridSpec spec_;
  net::Network network_;
  /// Hosts are numbered site by site: site s owns the ids
  /// [site_first_host_[s], site_first_host_[s] + nodes_at(s)).
  std::vector<net::HostId> site_first_host_;
  const Routes* routes_ = nullptr;  ///< owned by network_
};

/// Candidate (src, dst) host pairs for background cross-traffic on this
/// deployment: index-matched node pairs for every ordered pair of distinct
/// sites (traffic that crosses the WAN, like competing RENATER flows). On a
/// single-site grid, falls back to a ring of intra-site node pairs.
std::vector<std::pair<net::HostId, net::HostId>> wan_host_pairs(
    const Grid& grid);

/// Builds a FaultInjector over the grid's network, wiring cross-traffic
/// generators to wan_host_pairs(). Returns nullptr for an inactive plan —
/// callers hold the result until Simulation::run() drains. Note host names
/// carry no dash ("rennes0"), so the specs' default "*-*" glob selects
/// exactly the WAN backbone links ("rennes-nancy", "rennes-nancy.rev").
std::unique_ptr<simfault::FaultInjector> install_faults(
    Grid& grid, const simfault::FaultPlan& plan);

}  // namespace gridsim::topo
