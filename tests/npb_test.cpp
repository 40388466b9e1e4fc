// Tests for the NPB communication skeletons: termination on cluster and
// grid deployments, traffic characteristics against the paper's Table 2,
// and qualitative grid-sensitivity ordering.
#include <gtest/gtest.h>

#include <ostream>

#include "harness/npb_campaign.hpp"
#include "npb/npb.hpp"
#include "profiles/profiles.hpp"

namespace gridsim::npb {

// Found by ADL, so gtest prints a kernel parameter as its NPB name and the
// discovered ctest names read `Sweep/AllKernelsClassS.RunsOnClusterAndGrid/CG`.
void PrintTo(Kernel k, std::ostream* os) { *os << name(k); }

namespace {

using harness::run_npb;
using profiles::TuningLevel;

profiles::ExperimentConfig tuned_mpich2() {
  return profiles::experiment(profiles::mpich2())
      .tuning(TuningLevel::kTcpTuned);
}

TEST(Npb, NamesAndTables) {
  EXPECT_EQ(all_kernels().size(), 8u);
  EXPECT_EQ(name(Kernel::kEP), "EP");
  EXPECT_EQ(name(Kernel::kFT), "FT");
  EXPECT_GT(total_ops(Kernel::kBT, Class::kB), total_ops(Kernel::kBT, Class::kA));
  EXPECT_EQ(iterations(Kernel::kCG, Class::kB), 75);
  EXPECT_EQ(iterations(Kernel::kLU, Class::kA), 250);
}

class AllKernelsClassS : public ::testing::TestWithParam<Kernel> {};

TEST_P(AllKernelsClassS, RunsOnClusterAndGrid) {
  const Kernel k = GetParam();
  const auto cfg = tuned_mpich2();
  const auto cluster = run_npb(topo::GridSpec::single_cluster(4), 4, k,
                               Class::kS, cfg);
  EXPECT_GT(cluster.makespan, 0) << name(k);
  const auto grid =
      run_npb(topo::GridSpec::rennes_nancy(2), 4, k, Class::kS, cfg);
  EXPECT_GT(grid.makespan, 0) << name(k);
  // The grid never makes a kernel faster at equal rank count.
  EXPECT_GE(grid.makespan, cluster.makespan / 2) << name(k);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllKernelsClassS,
                         ::testing::Values(Kernel::kEP, Kernel::kCG,
                                           Kernel::kMG, Kernel::kLU,
                                           Kernel::kSP, Kernel::kBT,
                                           Kernel::kIS, Kernel::kFT));

TEST(Npb, NonSquareCountRejectedForGridKernels) {
  const auto cfg = tuned_mpich2();
  EXPECT_THROW(run_npb(topo::GridSpec::single_cluster(8), 8, Kernel::kCG,
                       Class::kS, cfg),
               std::invalid_argument);
}

TEST(Npb, LuSendsTheMostMessages) {
  // Table 2: LU ~1.2M messages, far above every other kernel.
  const auto cfg = tuned_mpich2();
  const auto lu = run_npb(topo::GridSpec::single_cluster(4), 4, Kernel::kLU,
                          Class::kS, cfg);
  const auto bt = run_npb(topo::GridSpec::single_cluster(4), 4, Kernel::kBT,
                          Class::kS, cfg);
  EXPECT_GT(lu.traffic.p2p_messages, 3 * bt.traffic.p2p_messages);
}

TEST(Npb, LuMessageSizeMatchesTable2) {
  // Class B on 16 ranks: LU messages between 960 B and 1040 B.
  const auto cfg = tuned_mpich2();
  const auto lu = run_npb(topo::GridSpec::single_cluster(16), 16, Kernel::kLU,
                          Class::kB, cfg);
  ASSERT_FALSE(lu.traffic.p2p_sizes.empty());
  for (const auto& [size, count] : lu.traffic.p2p_sizes) {
    EXPECT_GE(size, 900);
    EXPECT_LE(size, 1100);
  }
}

TEST(Npb, CgUsesSmallAndLargeMessages) {
  // Table 2: CG sends 8 B dot products and ~147 kB vector segments.
  const auto cfg = tuned_mpich2();
  const auto cg = run_npb(topo::GridSpec::single_cluster(16), 16, Kernel::kCG,
                          Class::kB, cfg);
  bool has_8 = false, has_large = false;
  for (const auto& [size, count] : cg.traffic.p2p_sizes) {
    if (size == 8) has_8 = true;
    if (size > 120'000 && size < 180'000) has_large = true;
  }
  EXPECT_TRUE(has_8);
  EXPECT_TRUE(has_large);
}

TEST(Npb, MgHaloSizesSpanTable2Range) {
  // Table 2: MG sends "various sizes from 4 B to 130 kB" (class A, 16).
  const auto cfg = tuned_mpich2();
  const auto mg = run_npb(topo::GridSpec::single_cluster(16), 16, Kernel::kMG,
                          Class::kA, cfg);
  ASSERT_FALSE(mg.traffic.p2p_sizes.empty());
  const auto smallest = mg.traffic.p2p_sizes.begin()->first;
  const auto largest = mg.traffic.p2p_sizes.rbegin()->first;
  EXPECT_LE(smallest, 256);
  EXPECT_GE(largest, 100e3);
  EXPECT_LE(largest, 160e3);
}

TEST(Npb, BtSpSendBigMessages) {
  const auto cfg = tuned_mpich2();
  const auto bt = run_npb(topo::GridSpec::single_cluster(16), 16, Kernel::kBT,
                          Class::kB, cfg);
  const auto largest = bt.traffic.p2p_sizes.rbegin()->first;
  EXPECT_GE(largest, 120e3);  // Table 2: 146..156 kB
  EXPECT_LE(largest, 180e3);
  const auto sp = run_npb(topo::GridSpec::single_cluster(16), 16, Kernel::kSP,
                          Class::kB, cfg);
  const auto sp_large = sp.traffic.p2p_sizes.rbegin()->first;
  EXPECT_GE(sp_large, 90e3);  // Table 2: 100..160 kB
  EXPECT_LE(sp_large, 180e3);
}

TEST(Npb, IsAndFtAreCollectiveOnly) {
  const auto cfg = tuned_mpich2();
  for (Kernel k : {Kernel::kIS, Kernel::kFT}) {
    const auto res = run_npb(topo::GridSpec::single_cluster(4), 4, k,
                             Class::kS, cfg);
    EXPECT_EQ(res.traffic.p2p_messages, 0u) << name(k);
    EXPECT_GT(res.traffic.collective_messages, 0u) << name(k);
  }
}

TEST(Npb, EpIsComputeBound) {
  // EP's communication is a handful of tiny reductions: its grid and
  // cluster runtimes must be nearly identical (paper Fig 12: EP ~ 1.0).
  const auto cfg = tuned_mpich2();
  const auto cluster = run_npb(topo::GridSpec::single_cluster(16), 16,
                               Kernel::kEP, Class::kA, cfg);
  const auto grid = run_npb(topo::GridSpec::rennes_nancy(8), 16, Kernel::kEP,
                            Class::kA, cfg);
  const double ratio = to_seconds(cluster.makespan) /
                       to_seconds(grid.makespan);
  EXPECT_GT(ratio, 0.9);
}

TEST(Npb, CgSuffersOnGridMoreThanBt) {
  // Paper Fig 12: kernels with many small messages (CG) lose much more on
  // the grid than kernels with big messages (BT).
  const auto cfg = tuned_mpich2();
  auto ratio = [&cfg](Kernel k) {
    const auto cluster =
        run_npb(topo::GridSpec::single_cluster(16), 16, k, Class::kA, cfg);
    const auto grid =
        run_npb(topo::GridSpec::rennes_nancy(8), 16, k, Class::kA, cfg);
    return to_seconds(cluster.makespan) / to_seconds(grid.makespan);
  };
  const double cg = ratio(Kernel::kCG);
  const double bt = ratio(Kernel::kBT);
  EXPECT_LT(cg, bt);
}

}  // namespace
}  // namespace gridsim::npb
