// Tests for the structured tracing subsystem.
#include <gtest/gtest.h>

#include <sstream>

#include "mpi/mpi.hpp"
#include "profiles/profiles.hpp"
#include "simcore/simulation.hpp"
#include "simcore/trace.hpp"
#include "topology/grid5000.hpp"

namespace gridsim {
namespace {

TEST(Trace, DisabledByDefault) {
  Tracer t;
  for (int k = 0; k < static_cast<int>(TraceKind::kKindCount); ++k)
    EXPECT_FALSE(t.enabled(static_cast<TraceKind>(k)));
  t.record(0, TraceKind::kMessage, "x", 1);
  EXPECT_EQ(t.size(), 0u);
}

TEST(Trace, RecordsWhenEnabled) {
  Tracer t;
  t.enable(TraceKind::kCwnd);
  t.record(100, TraceKind::kCwnd, "a->b", 2896);
  t.record(200, TraceKind::kMessage, "p2p", 64);  // still disabled
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.events()[0].at, 100);
  EXPECT_EQ(t.events()[0].subject, "a->b");
  EXPECT_DOUBLE_EQ(t.events()[0].value, 2896);
}

TEST(Trace, OfKindFilters) {
  Tracer t;
  t.enable(TraceKind::kCwnd);
  t.enable(TraceKind::kLoss);
  t.record(1, TraceKind::kCwnd, "c", 1);
  t.record(2, TraceKind::kLoss, "c", 2);
  t.record(3, TraceKind::kCwnd, "c", 3);
  EXPECT_EQ(t.of_kind(TraceKind::kCwnd).size(), 2u);
  EXPECT_EQ(t.of_kind(TraceKind::kLoss).size(), 1u);
}

TEST(Trace, CsvOutput) {
  Tracer t;
  t.enable(TraceKind::kPhase);
  t.record(seconds(1), TraceKind::kPhase, "merge", 0, "start");
  std::ostringstream out;
  t.write_csv(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("time_s,kind,subject,value,detail"), std::string::npos);
  EXPECT_NE(s.find("1,phase,merge,0,start"), std::string::npos);
}

TEST(Trace, KindNames) {
  EXPECT_EQ(to_string(TraceKind::kMessage), "message");
  EXPECT_EQ(to_string(TraceKind::kCwnd), "cwnd");
  EXPECT_EQ(to_string(TraceKind::kLoss), "loss");
}

TEST(Trace, TcpChannelEmitsCwndSamplesAndLosses) {
  Simulation sim;
  sim.tracer().enable(TraceKind::kCwnd);
  sim.tracer().enable(TraceKind::kLoss);
  net::Network n(sim);
  const auto a = n.add_host("a");
  const auto b = n.add_host("b");
  const auto l = n.add_link("wan", tcp::ethernet_goodput(1e9),
                            microseconds(5800), 1e6);
  n.add_route(a, b, {l});
  const auto k = tcp::KernelTunables::grid_tuned();
  tcp::TcpChannel ch(n, a, b, k, k, {});
  ch.send(256e6, nullptr, nullptr);
  sim.run();
  const auto cwnd = sim.tracer().of_kind(TraceKind::kCwnd);
  const auto losses = sim.tracer().of_kind(TraceKind::kLoss);
  EXPECT_GT(cwnd.size(), 10u);
  EXPECT_EQ(losses.size(), static_cast<size_t>(ch.loss_events()));
  EXPECT_EQ(cwnd.front().subject, "a->b");
  // Samples are time-ordered and start from the initial window.
  EXPECT_NEAR(cwnd.front().value, 2 * tcp::kMss, 1.0);
  for (size_t i = 1; i < cwnd.size(); ++i)
    EXPECT_GE(cwnd[i].at, cwnd[i - 1].at);
}

TEST(Trace, MpiPayloadsTraced) {
  Simulation sim;
  sim.tracer().enable(TraceKind::kMessage);
  topo::Grid grid(sim, topo::GridSpec::rennes_nancy(1));
  const profiles::ExperimentConfig cfg =
      profiles::experiment(profiles::mpich2())
          .tuning(profiles::TuningLevel::kTcpTuned);
  mpi::Job job(grid, mpi::block_placement(grid, 2), cfg.profile, cfg.kernel);
  sim.spawn([](mpi::Rank& r) -> Task<void> { co_await r.send(1, 777, 0); }(
      job.rank(0)));
  sim.spawn([](mpi::Rank& r) -> Task<void> { (void)co_await r.recv(0, 0); }(
      job.rank(1)));
  sim.run();
  const auto msgs = sim.tracer().of_kind(TraceKind::kMessage);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].subject, "p2p");
  EXPECT_DOUBLE_EQ(msgs[0].value, 777);
}

}  // namespace
}  // namespace gridsim
