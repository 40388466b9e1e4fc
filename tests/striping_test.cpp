// Tests for MPICH-G2-style parallel WAN streams: throughput effect, MPI
// ordering preservation under striping, and profile wiring.
#include <gtest/gtest.h>

#include <vector>

#include "collectives/registry.hpp"
#include "mpi/mpi.hpp"
#include "profiles/profiles.hpp"
#include "simcore/simulation.hpp"
#include "topology/grid5000.hpp"

namespace gridsim::mpi {
namespace {

using namespace gridsim::literals;

struct G2Fixture {
  Simulation sim;
  topo::Grid grid;
  Job job;
  explicit G2Fixture(profiles::TuningLevel level = profiles::TuningLevel::kDefault,
                     ImplProfile profile = profiles::mpich_g2())
      : grid(sim, topo::GridSpec::rennes_nancy(1)),
        job(grid, block_placement(grid, 2),
            profiles::configure(profile, level).profile,
            profiles::configure(profile, level).kernel) {}
};

Task<void> send_one(Rank& r, int dst, double bytes, int tag) {
  co_await r.send(dst, bytes, tag);
}

Task<void> recv_n(Rank& r, int src, int n, std::vector<RecvInfo>* out,
                  SimTime* done) {
  for (int i = 0; i < n; ++i) out->push_back(co_await r.recv(src, kAnyTag));
  *done = r.sim().now();
}

SimTime one_way_time(const ImplProfile& impl, double bytes) {
  G2Fixture f(profiles::TuningLevel::kDefault, impl);
  std::vector<RecvInfo> got;
  SimTime done = -1;
  f.sim.spawn(send_one(f.job.rank(0), 1, bytes, 0));
  f.sim.spawn(recv_n(f.job.rank(1), 0, 1, &got, &done));
  f.sim.run();
  return done;
}

TEST(Striping, ParallelStreamsBeatSingleConnectionAtDefaults) {
  // 16 MB across the WAN with default (175 kB-capped) kernels: four
  // streams should be ~4x faster than MPICH2's single connection.
  const SimTime g2 = one_way_time(profiles::mpich_g2(), 16e6);
  ImplProfile single = profiles::mpich_g2();
  single.wan_parallel_streams = 1;
  single.eager_threshold = 1e12;  // same protocol, one connection
  const SimTime one = one_way_time(single, 16e6);
  EXPECT_LT(to_seconds(g2) * 2.5, to_seconds(one));
}

TEST(Striping, SmallMessagesAreNotStriped) {
  // Below the stripe threshold the behaviour must match a single stream.
  const SimTime g2 = one_way_time(profiles::mpich_g2(), 64e3);
  ImplProfile single = profiles::mpich_g2();
  single.wan_parallel_streams = 1;
  const SimTime one = one_way_time(single, 64e3);
  EXPECT_EQ(g2, one);
}

TEST(Striping, IntraClusterMessagesAreNotStriped) {
  // Striping only applies on WAN paths (rtt >= 1 ms).
  Simulation sim;
  topo::Grid grid(sim, topo::GridSpec::single_cluster(2));
  const profiles::ExperimentConfig cfg =
      profiles::experiment(profiles::mpich_g2())
          .tuning(profiles::TuningLevel::kDefault);
  Job job(grid, block_placement(grid, 2), cfg.profile, cfg.kernel);
  std::vector<RecvInfo> got;
  SimTime done = -1;
  sim.spawn(send_one(job.rank(0), 1, 16e6, 0));
  sim.spawn(recv_n(job.rank(1), 0, 1, &got, &done));
  sim.run();
  // One stream 0 channel only: stream 1 channel must not exist (the lazy
  // map would have created it on use). Indirect check: delivery time equals
  // single-connection time on the LAN where buffers dwarf the BDP.
  EXPECT_GT(done, 0);
  EXPECT_LT(to_seconds(done), 0.25);  // ~16 MB at ~941 Mbps
}

TEST(Striping, OrderingPreservedAcrossMixedSizes) {
  // A large striped message followed by small eager messages on the same
  // (src, tag): MPI's non-overtaking order must hold even though the small
  // messages physically arrive first.
  G2Fixture f;
  std::vector<RecvInfo> got;
  SimTime done = -1;
  auto sender = [](Rank& r) -> Task<void> {
    Request big = r.isend(1, 8e6, 5);   // striped, slow
    Request s1 = r.isend(1, 100, 5);    // eager, fast
    Request s2 = r.isend(1, 200, 5);
    co_await r.wait(big);
    co_await r.wait(s1);
    co_await r.wait(s2);
  };
  f.sim.spawn(sender(f.job.rank(0)));
  f.sim.spawn(recv_n(f.job.rank(1), 0, 3, &got, &done));
  f.sim.run();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_DOUBLE_EQ(got[0].bytes, 8e6);  // sent first, must match first
  EXPECT_DOUBLE_EQ(got[1].bytes, 100);
  EXPECT_DOUBLE_EQ(got[2].bytes, 200);
}

TEST(Striping, ManyStripedMessagesFifo) {
  G2Fixture f;
  std::vector<RecvInfo> got;
  SimTime done = -1;
  auto sender = [](Rank& r) -> Task<void> {
    for (int i = 1; i <= 5; ++i) co_await r.send(1, 1e6 * i, 9);
  };
  f.sim.spawn(sender(f.job.rank(0)));
  f.sim.spawn(recv_n(f.job.rank(1), 0, 5, &got, &done));
  f.sim.run();
  ASSERT_EQ(got.size(), 5u);
  for (int i = 0; i < 5; ++i)
    EXPECT_DOUBLE_EQ(got[static_cast<size_t>(i)].bytes, 1e6 * (i + 1));
}

TEST(Striping, ProfileWiring) {
  const auto p = profiles::mpich_g2();
  EXPECT_EQ(p.name, "MPICH-G2");
  EXPECT_EQ(p.wan_parallel_streams, 4);
  // Topology-aware collectives: the broadcast policy splits by site.
  const auto* bcast =
      coll::AlgorithmRegistry::instance().find_bcast(p.collectives.bcast);
  ASSERT_NE(bcast, nullptr);
  EXPECT_TRUE(bcast->wan_aware);
  // Not one of the paper's four evaluated implementations.
  for (const auto& q : profiles::all_implementations())
    EXPECT_NE(q.name, "MPICH-G2");
}

}  // namespace
}  // namespace gridsim::mpi
