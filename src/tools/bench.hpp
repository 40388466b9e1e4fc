// `gridsim bench` support: engine micro-benchmarks written to
// BENCH_micro.json (see docs/usage.md for the schema). End-to-end timing of
// paper workloads lives in gridbench/. Each row builds its own Simulation:
// the rows time engine layers below MPI, so none goes through
// mpi::run_job.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "simcore/callback.hpp"
#include "simcore/json.hpp"
#include "simcore/sync.hpp"
#include "simnet/network.hpp"
#include "simtcp/packet_sim.hpp"
#include "topology/grid5000.hpp"

namespace gridsim::bench {

/// One benchmark measurement. `events` is the number of engine events the
/// run processed; `heap_payloads`/`pool_misses` are the callback allocation
/// counters accumulated during the run (zero on the intended hot path).
struct BenchRecord {
  std::string name;
  std::uint64_t events = 0;
  double wall_s = 0;
  double events_per_sec = 0;
  std::uint64_t peak_queue_depth = 0;
  std::uint64_t heap_payloads = 0;
  std::uint64_t pool_misses = 0;
  std::string note;  ///< human-oriented summary of the simulated result
};

namespace detail {

inline double now_wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Self-rescheduling event storm. Pure engine stress: delays come from a
/// multiplicative hash (no RNG object in the hot loop) and the five capture
/// classes exercise the callback inline sizes 8/16/32/48 bytes plus one
/// 64-byte overflow into the payload pool.
struct ChurnActor {
  Simulation& sim;
  std::uint64_t remaining;
  std::uint64_t step = 0;
  std::uint64_t checksum = 0;

  void next() {
    if (remaining == 0) return;
    --remaining;
    ++step;
    const auto delay =
        static_cast<SimTime>((step * 2654435761ULL) % 1000 + 1);
    switch (step % 5) {
      case 0:
        sim.after(delay, [this] {
          checksum += 1;
          next();
        });
        break;
      case 1: pad_event<1>(delay); break;
      case 2: pad_event<3>(delay); break;
      case 3: pad_event<5>(delay); break;
      default: pad_event<7>(delay); break;
    }
  }

  template <std::size_t Words>
  void pad_event(SimTime delay) {
    std::array<std::uint64_t, Words> pad;
    for (std::size_t i = 0; i < Words; ++i) pad[i] = step + i;
    sim.after(delay, [this, pad] {
      for (auto w : pad) checksum += w;
      next();
    });
  }
};

/// The process's peak resident set (VmHWM) in MB; 0 where /proc is absent.
inline double vm_hwm_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  std::fclose(f);
  return kb / 1024.0;
}

inline Task<void> bench_chatter(Simulation& sim, Mailbox<int>* in,
                                Mailbox<int>* out, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    const int v = co_await in->pop();
    co_await sim.delay(1);
    out->push(v + 1);
  }
}

}  // namespace detail

/// Event-queue churn micro-sim: 64 concurrent self-rescheduling actors,
/// mixed capture sizes, hash-derived delays. Measures raw schedule/dispatch
/// throughput of the engine.
inline BenchRecord bench_queue_churn(bool quick) {
  const std::uint64_t events = quick ? 400'000 : 4'000'000;
  Simulation sim;
  detail::ChurnActor actor{sim, events};
  for (int i = 0; i < 64; ++i) actor.next();
  reset_callback_stats();
  const double t0 = detail::now_wall_s();
  sim.run();
  const double wall = detail::now_wall_s() - t0;
  const CallbackStats cs = callback_stats();
  BenchRecord r;
  r.name = "queue_churn";
  r.events = sim.events_processed();
  r.wall_s = wall;
  r.events_per_sec = static_cast<double>(r.events) / wall;
  r.peak_queue_depth = sim.peak_queue_depth();
  r.heap_payloads = cs.heap_payloads;
  r.pool_misses = cs.pool_misses;
  char buf[64];
  std::snprintf(buf, sizeof buf, "checksum=%llx",
                static_cast<unsigned long long>(actor.checksum));
  r.note = buf;
  return r;
}

/// Coroutine ping-pong micro-sim: pairs of processes exchanging mailbox
/// messages. Measures the spawn/await/resume path rather than the raw queue.
inline BenchRecord bench_coroutine_pingpong(bool quick) {
  const int pairs = quick ? 200 : 2'000;
  const int rounds = quick ? 25 : 50;
  Simulation sim;
  std::vector<std::unique_ptr<Mailbox<int>>> boxes;
  for (int i = 0; i < 2 * pairs; ++i)
    boxes.push_back(std::make_unique<Mailbox<int>>(sim));
  for (int i = 0; i < pairs; ++i) {
    const auto k = static_cast<std::size_t>(i);
    sim.spawn(detail::bench_chatter(sim, boxes[2 * k].get(),
                                    boxes[2 * k + 1].get(), rounds));
    sim.spawn(detail::bench_chatter(sim, boxes[2 * k + 1].get(),
                                    boxes[2 * k].get(), rounds));
    boxes[2 * k]->push(0);
  }
  reset_callback_stats();
  const double t0 = detail::now_wall_s();
  sim.run();
  const double wall = detail::now_wall_s() - t0;
  const CallbackStats cs = callback_stats();
  BenchRecord r;
  r.name = "coroutine_pingpong";
  r.events = sim.events_processed();
  r.wall_s = wall;
  r.events_per_sec = static_cast<double>(r.events) / wall;
  r.peak_queue_depth = sim.peak_queue_depth();
  r.heap_payloads = cs.heap_payloads;
  r.pool_misses = cs.pool_misses;
  return r;
}

/// Packet-level TCP micro-sim: one bulk transfer through the droptail
/// bottleneck. Exercises the timer re-arm discipline and ack batching.
inline BenchRecord bench_packet_tcp(bool quick) {
  const double bytes = quick ? 8e6 : 64e6;
  tcp::PacketSimConfig cfg;
  BenchRecord r;
  r.name = "packet_tcp";
  SimHooks hooks;
  hooks.on_finish = [&r](Simulation& sim) {
    r.events = sim.events_processed();
    r.peak_queue_depth = sim.peak_queue_depth();
  };
  reset_callback_stats();
  const double t0 = detail::now_wall_s();
  const auto res = tcp::packet_level_transfer(bytes, cfg, hooks);
  const double wall = detail::now_wall_s() - t0;
  const CallbackStats cs = callback_stats();
  r.wall_s = wall;
  r.events_per_sec = static_cast<double>(r.events) / wall;
  r.heap_payloads = cs.heap_payloads;
  r.pool_misses = cs.pool_misses;
  char buf[96];
  std::snprintf(buf, sizeof buf,
                "%.0f MB, %d packets, %d losses, %d retransmits", bytes / 1e6,
                res.packets_sent, res.losses, res.retransmits);
  r.note = buf;
  return r;
}

/// Flow-churn micro-sim: `concurrent` long-lived flows in groups of 100
/// (each flow behind its own 40 MB/s uplink, each group sharing a 1 GB/s
/// WAN), mutated at ~10 us spacing — 50% rate-cap edits, 30%
/// cancel+restart, 20% uplink-capacity edits.
/// Measures solver mutations/s; with the incremental solver a mutation
/// re-solves one group's component (~100 flows) while the global-resolve
/// oracle re-solves all `concurrent` flows, so the incremental/oracle ratio
/// is the headline speedup. The note carries the peak dirty-component size
/// and the fast-path hit count.
inline BenchRecord bench_flow_churn(bool quick, int concurrent,
                                    net::SolverMode mode) {
  const int groups = concurrent / 100;
  Simulation sim;
  net::Network n(sim);
  n.set_solver_mode(mode);
  std::vector<net::FlowId> flows;
  std::vector<net::LinkId> uplinks;
  struct Endpoint {
    net::HostId src, dst;
  };
  std::vector<Endpoint> eps;
  flows.reserve(static_cast<std::size_t>(concurrent));
  for (int g = 0; g < groups; ++g) {
    const net::LinkId wan =
        n.add_link("wan" + std::to_string(g), 1e9, milliseconds(5), 1e6);
    for (int i = 0; i < 100; ++i) {
      const std::string suffix = std::to_string(g) + "_" + std::to_string(i);
      const net::HostId s = n.add_host("s" + suffix);
      const net::HostId d = n.add_host("d" + suffix);
      const net::LinkId up = n.add_link("up" + suffix, 4e7, 0, 1e6);
      n.add_route(s, d, {up, wan});
      flows.push_back(n.start_flow(s, d, 1e15, net::kUnlimitedRate, nullptr));
      uplinks.push_back(up);
      eps.push_back({s, d});
    }
  }
  // The oracle pays a full global re-solve per mutation (that is the
  // baseline being measured); fewer ops keep its wall-clock bounded and
  // the ops/s ratio is unaffected.
  const int ops = (quick ? 1000 : 4000) /
                  (mode == net::SolverMode::kGlobalOracle ? 5 : 1);
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;  // deterministic op stream
  const auto next = [&h] {
    h ^= h << 13;
    h ^= h >> 7;
    h ^= h << 17;
    return h;
  };
  const double t0 = detail::now_wall_s();
  for (int op = 0; op < ops; ++op) {
    sim.run_until(sim.now() + microseconds(10));
    const auto pick = static_cast<std::size_t>(next() % flows.size());
    const std::uint64_t kind = next() % 10;
    if (kind < 5) {
      n.set_rate_cap(flows[pick],
                     5e6 + 1e5 * static_cast<double>(next() % 100));
    } else if (kind < 8) {
      n.cancel_flow(flows[pick]);
      flows[pick] = n.start_flow(eps[pick].src, eps[pick].dst, 1e15,
                                 net::kUnlimitedRate, nullptr);
    } else {
      n.set_link_capacity(uplinks[pick],
                          3e7 + 1e5 * static_cast<double>(next() % 100));
    }
  }
  const double wall = detail::now_wall_s() - t0;
  const auto& stats = n.solver_stats();
  BenchRecord r;
  r.name = "flow_churn_" + std::to_string(concurrent / 1000) + "k" +
           (mode == net::SolverMode::kGlobalOracle ? "_oracle" : "");
  r.events = static_cast<std::uint64_t>(ops);  // solver mutations
  r.wall_s = wall;
  r.events_per_sec = static_cast<double>(r.events) / wall;
  r.peak_queue_depth = sim.peak_queue_depth();
  char buf[96];
  std::snprintf(buf, sizeof buf,
                "peak_component=%zu solves=%llu fast=%llu",
                stats.peak_component_flows,
                static_cast<unsigned long long>(stats.solves),
                static_cast<unsigned long long>(stats.fast_solves));
  r.note = buf;
  return r;
}

/// WAN-contention micro-sim: 1024 window-capped flows from distinct
/// senders to distinct receivers, all crossing one 10 Gb/s WAN link, so
/// every start and finish re-solves one 1024-flow component — the regime of
/// the paper's NAS runs across the Rennes-Nancy link. Caps straddle the
/// fair share, so both cap and link freezes occur. Each finished flow
/// starts a replacement until `restarts` have started, then the rest drain.
/// `events` counts solver re-solves, so `events_per_sec` is solves/s; the
/// note carries the peak component size.
inline BenchRecord bench_wan_contended(bool quick) {
  constexpr int kFlows = 1024;
  const int restarts = quick ? 1000 : 4000;
  Simulation sim;
  net::Network n(sim);
  const net::LinkId wan = n.add_link("wan", 1.25e9, milliseconds(5), 1e6);
  std::vector<net::HostId> src, dst;
  for (int i = 0; i < kFlows; ++i) {
    const std::string suffix = std::to_string(i);
    src.push_back(n.add_host("s" + suffix));
    dst.push_back(n.add_host("d" + suffix));
    const net::LinkId up = n.add_link("up" + suffix, 1.25e8, 0, 1e6);
    const net::LinkId down = n.add_link("down" + suffix, 1.25e8, 0, 1e6);
    n.add_route(src.back(), dst.back(), {up, wan, down}, false);
  }
  std::uint64_t h = 0x2545f4914f6cdd1dULL;  // deterministic flow stream
  int started = 0;
  std::function<void(int)> start = [&](int i) {
    h ^= h << 13;
    h ^= h >> 7;
    h ^= h << 17;
    const double cap = 2e5 + 1e5 * static_cast<double>(h % 40);
    const double bytes = 1e5 + 1e4 * static_cast<double>((h >> 8) % 100);
    ++started;
    const auto k = static_cast<std::size_t>(i);
    n.start_flow(src[k], dst[k], bytes, cap, [&start, &started, restarts, i] {
      if (started < kFlows + restarts) start(i);
    });
  };
  for (int i = 0; i < kFlows; ++i) start(i);
  const double t0 = detail::now_wall_s();
  sim.run();
  const double wall = detail::now_wall_s() - t0;
  const auto& stats = n.solver_stats();
  BenchRecord r;
  r.name = "wan_contended_1024";
  r.events = stats.solves;
  r.wall_s = wall;
  r.events_per_sec = static_cast<double>(r.events) / wall;
  r.peak_queue_depth = sim.peak_queue_depth();
  char buf[96];
  std::snprintf(buf, sizeof buf,
                "peak_component=%zu solves=%llu sim_events=%llu",
                stats.peak_component_flows,
                static_cast<unsigned long long>(stats.solves),
                static_cast<unsigned long long>(sim.events_processed()));
  r.note = buf;
  return r;
}

/// Topology build: constructs `topo::Grid(rennes_nancy(hosts / 2))` and
/// reports its wall time. `events` holds the host count and the note the
/// VmHWM rise across the build, so it must run before anything else in the
/// process raises the high-water mark.
inline BenchRecord bench_topology_build(int hosts) {
  Simulation sim;
  const double hwm0 = detail::vm_hwm_mb();
  const double t0 = detail::now_wall_s();
  const topo::Grid grid(sim, topo::GridSpec::rennes_nancy(hosts / 2));
  const double wall = detail::now_wall_s() - t0;
  BenchRecord r;
  r.name = "topology_build_" + std::to_string(hosts);
  r.events = static_cast<std::uint64_t>(grid.total_nodes());
  r.wall_s = wall;
  r.events_per_sec = static_cast<double>(r.events) / wall;
  char buf[64];
  std::snprintf(buf, sizeof buf, "hosts=%d vmhwm_rise_mb=%.1f",
                grid.total_nodes(), detail::vm_hwm_mb() - hwm0);
  r.note = buf;
  return r;
}

/// The engine micro-benchmarks; best-of-`reps` by events/sec.
inline std::vector<BenchRecord> run_micro_suite(bool quick, int reps) {
  std::vector<BenchRecord> out;
  // First, while the process's VmHWM still reflects only start-up.
  out.push_back(bench_topology_build(4096));
  const auto best_of = [reps](auto&& bench_fn, bool q) {
    BenchRecord best = bench_fn(q);
    for (int i = 1; i < reps; ++i) {
      BenchRecord r = bench_fn(q);
      if (r.events_per_sec > best.events_per_sec) best = r;
    }
    return best;
  };
  out.push_back(best_of(bench_queue_churn, quick));
  out.push_back(best_of(bench_coroutine_pingpong, quick));
  out.push_back(best_of(bench_packet_tcp, quick));
  // Incremental-vs-oracle solver throughput at 1k and 10k concurrent flows
  // (single runs: the interesting number is the pairwise ratio, and the
  // oracle runs are slow enough without repetition).
  for (const int concurrent : {1000, 10000}) {
    out.push_back(
        bench_flow_churn(quick, concurrent, net::SolverMode::kIncremental));
    out.push_back(
        bench_flow_churn(quick, concurrent, net::SolverMode::kGlobalOracle));
  }
  out.push_back(best_of(bench_wan_contended, quick));
  return out;
}

/// Writes the BENCH_micro.json document. Schema: docs/usage.md.
inline bool write_bench_json(const std::string& path, bool quick,
                             const std::vector<BenchRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\n  \"schema\": \"gridsim-bench-micro/1\",\n"
               "  \"quick\": %s,\n",
               quick ? "true" : "false");
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"events\": %llu, \"wall_s\": %.6f, "
                 "\"events_per_sec\": %.0f, \"peak_queue_depth\": %llu, "
                 "\"heap_payloads\": %llu, \"pool_misses\": %llu, "
                 "\"note\": \"%s\"}%s\n",
                 json_escape(r.name).c_str(),
                 static_cast<unsigned long long>(r.events), r.wall_s,
                 r.events_per_sec,
                 static_cast<unsigned long long>(r.peak_queue_depth),
                 static_cast<unsigned long long>(r.heap_payloads),
                 static_cast<unsigned long long>(r.pool_misses),
                 json_escape(r.note).c_str(),
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  return std::fclose(f) == 0;
}

}  // namespace gridsim::bench
