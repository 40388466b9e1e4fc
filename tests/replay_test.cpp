// Tests for communication-trace record & replay.
#include <gtest/gtest.h>

#include <sstream>

#include "harness/npb_campaign.hpp"
#include "harness/replay.hpp"
#include "profiles/profiles.hpp"

namespace gridsim::harness {
namespace {

profiles::ExperimentConfig cfg(profiles::TuningLevel level =
                                   profiles::TuningLevel::kTcpTuned) {
  return profiles::experiment(profiles::mpich2()).tuning(level);
}

TEST(Replay, RecordCapturesEveryPayload) {
  const auto spec = topo::GridSpec::single_cluster(4);
  const auto trace =
      record_npb(spec, 4, npb::Kernel::kCG, npb::Class::kS, cfg());
  const auto direct = run_npb(spec, 4, npb::Kernel::kCG, npb::Class::kS,
                              cfg());
  EXPECT_EQ(trace.nranks, 4);
  EXPECT_EQ(trace.messages.size(),
            direct.traffic.p2p_messages + direct.traffic.collective_messages);
  // Timestamps are sorted.
  for (size_t i = 1; i < trace.messages.size(); ++i)
    EXPECT_GE(trace.messages[i].at, trace.messages[i - 1].at);
}

TEST(Replay, SaveLoadRoundTrip) {
  const auto trace = record_npb(topo::GridSpec::single_cluster(4), 4,
                                npb::Kernel::kMG, npb::Class::kS, cfg());
  std::stringstream buffer;
  trace.save(buffer);
  const auto loaded = CommTrace::load(buffer);
  ASSERT_EQ(loaded.messages.size(), trace.messages.size());
  EXPECT_EQ(loaded.nranks, trace.nranks);
  for (size_t i = 0; i < trace.messages.size(); ++i) {
    EXPECT_EQ(loaded.messages[i].at, trace.messages[i].at);
    EXPECT_EQ(loaded.messages[i].src, trace.messages[i].src);
    EXPECT_EQ(loaded.messages[i].dst, trace.messages[i].dst);
    EXPECT_DOUBLE_EQ(loaded.messages[i].bytes, trace.messages[i].bytes);
    EXPECT_EQ(loaded.messages[i].tag, trace.messages[i].tag);
  }
}

TEST(Replay, LoadRejectsGarbage) {
  std::stringstream s1("not-a-trace 9");
  EXPECT_THROW(CommTrace::load(s1), std::invalid_argument);
  std::stringstream s2("gridsim-trace 1 4 100\n1 2 3");  // truncated
  EXPECT_THROW(CommTrace::load(s2), std::invalid_argument);
  // Records that would abort the replayed ranks are rejected at load.
  std::stringstream neg_bytes("gridsim-trace 1 2 1\n0 0 1 -5 0\n");
  EXPECT_THROW(CommTrace::load(neg_bytes), std::invalid_argument);
  std::stringstream neg_tag("gridsim-trace 1 2 1\n0 0 1 100 -3\n");
  EXPECT_THROW(CommTrace::load(neg_tag), std::invalid_argument);
  // A huge header count is not an allocation request.
  std::stringstream huge(
      "gridsim-trace 1 2 18446744073709551615\n0 0 1 100 0\n");
  EXPECT_THROW(CommTrace::load(huge), std::invalid_argument);
  std::stringstream no_ranks("gridsim-trace 1 0 0\n");
  EXPECT_THROW(CommTrace::load(no_ranks), std::invalid_argument);
  std::stringstream bad_rank("gridsim-trace 1 2 1\n0 0 2 100 0\n");
  EXPECT_THROW(CommTrace::load(bad_rank), std::invalid_argument);
  std::stringstream nan_bytes("gridsim-trace 1 2 1\n0 0 1 nan 0\n");
  EXPECT_THROW(CommTrace::load(nan_bytes), std::invalid_argument);
}

TEST(Replay, ReplayOnSameConfigApproximatesOriginal) {
  const auto spec = topo::GridSpec::single_cluster(4);
  const auto trace =
      record_npb(spec, 4, npb::Kernel::kLU, npb::Class::kS, cfg());
  const auto direct =
      run_npb(spec, 4, npb::Kernel::kLU, npb::Class::kS, cfg());
  const auto replayed = replay_trace(trace, spec, cfg());
  // Time-independent replay reproduces the makespan within 25% (dependency
  // structure is approximated by recorded send gaps).
  const double ratio =
      to_seconds(replayed.makespan) / to_seconds(direct.makespan);
  EXPECT_GT(ratio, 0.7);
  EXPECT_LT(ratio, 1.3);
}

TEST(Replay, ReplayOnGridSlowerThanCluster) {
  const auto cluster = topo::GridSpec::single_cluster(4);
  const auto grid = topo::GridSpec::rennes_nancy(2);
  const auto trace =
      record_npb(cluster, 4, npb::Kernel::kCG, npb::Class::kS, cfg());
  const auto on_cluster = replay_trace(trace, cluster, cfg());
  const auto on_grid = replay_trace(trace, grid, cfg());
  EXPECT_GT(on_grid.makespan, on_cluster.makespan);
}

TEST(Replay, FaultPlanAppliesToRecordAndReplay) {
  // A WAN outage longer than the whole run stalls every later cross-site
  // message, both when the trace is recorded and when it is replayed.
  const auto grid = topo::GridSpec::rennes_nancy(2);
  simfault::FlapSpec outage;
  outage.down_at = milliseconds(100);
  outage.down_for = seconds(5);
  const profiles::ExperimentConfig flapped =
      profiles::experiment(profiles::mpich2())
          .tuning(profiles::TuningLevel::kTcpTuned)
          .flap(outage);
  const auto trace =
      record_npb(grid, 4, npb::Kernel::kCG, npb::Class::kS, cfg());
  EXPECT_GT(replay_trace(trace, grid, flapped).makespan,
            replay_trace(trace, grid, cfg()).makespan);
  const auto flapped_trace =
      record_npb(grid, 4, npb::Kernel::kCG, npb::Class::kS, flapped);
  EXPECT_GT(flapped_trace.messages.back().at, trace.messages.back().at);
}

TEST(Replay, EmptyTraceRejected) {
  CommTrace t;
  EXPECT_THROW(replay_trace(t, topo::GridSpec::single_cluster(2), cfg()),
               std::invalid_argument);
}

TEST(Replay, OutOfRangeRankRejected) {
  CommTrace t;
  t.nranks = 2;
  t.messages.push_back(RecordedMessage{0, 0, 5, 100, 0});
  EXPECT_THROW(replay_trace(t, topo::GridSpec::single_cluster(2), cfg()),
               std::invalid_argument);
}

}  // namespace
}  // namespace gridsim::harness
