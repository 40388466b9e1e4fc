// Campaign engine tests: the parallel runner must be indistinguishable from
// the serial one (per-scenario trace digests, registration-order
// aggregation), and one misbehaving scenario must not take the campaign
// down with it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/scenario.hpp"
#include "scenarios/catalog.hpp"
#include "simcore/simulation.hpp"
#include "simcore/sync.hpp"
#include "simcore/trace.hpp"

namespace gridsim::harness {
namespace {

/// A small but genuinely event-driven workload: `depth` chained timers plus
/// a coroutine ping-pong, so each scenario folds a non-trivial trace into
/// its digest. Runs its own Simulation and reports through ctx.hooks, as
/// the scenario contract requires.
ScenarioResult timer_chain(const ScenarioContext& ctx, int depth) {
  Simulation sim;
  ctx.hooks.on_start(sim);
  std::uint64_t ticks = 0;
  std::function<void(int)> arm = [&](int remaining) {
    if (remaining == 0) return;
    sim.after(static_cast<SimTime>(remaining * 3 + 1), [&, remaining] {
      ++ticks;
      sim.tracer().record(sim.now(), TraceKind::kPhase, "tick",
                          static_cast<double>(remaining));
      arm(remaining - 1);
    });
  };
  arm(depth);
  Mailbox<int> a(sim), b(sim);
  sim.spawn([](Simulation& s, Mailbox<int>& in, Mailbox<int>& out,
               int rounds) -> Task<void> {
    for (int i = 0; i < rounds; ++i) {
      const int v = co_await in.pop();
      co_await s.delay(2);
      out.push(v + 1);
    }
  }(sim, a, b, depth));
  sim.spawn([](Mailbox<int>& in, Mailbox<int>& out, int rounds) -> Task<void> {
    for (int i = 0; i < rounds; ++i) out.push(co_await in.pop());
  }(b, a, depth));
  a.push(0);
  sim.run();
  ctx.hooks.on_finish(sim);
  ScenarioResult res;
  res.add("ticks", static_cast<double>(ticks));
  res.add("final_ns", static_cast<double>(sim.now()), "ns");
  res.note = "chain of depth " + std::to_string(depth) + " completed";
  return res;
}

ScenarioRegistry small_registry() {
  ScenarioRegistry reg;
  for (int depth : {5, 9, 13, 17, 21, 25}) {
    ScenarioSpec spec;
    spec.name = "chain/depth" + std::to_string(depth);
    spec.group = "chain";
    spec.description = "timer chain of depth " + std::to_string(depth);
    spec.expected_metrics = {"ticks", "final_ns"};
    spec.run = [depth](const ScenarioContext& ctx) {
      return timer_chain(ctx, depth);
    };
    reg.add(std::move(spec));
  }
  return reg;
}

TEST(GlobMatch, StarAndQuestionMark) {
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_TRUE(glob_match("fig3*", "fig3/MPICH2"));
  EXPECT_FALSE(glob_match("fig3*", "fig13/MPICH2"));
  EXPECT_TRUE(glob_match("table?", "table4"));
  EXPECT_FALSE(glob_match("table?", "table45"));
  EXPECT_TRUE(glob_match("*MPICH*", "fig3/MPICH2"));
  EXPECT_FALSE(glob_match("", "x"));
  EXPECT_TRUE(glob_match("", ""));
}

TEST(ScenarioRegistry, RejectsNameCollisions) {
  ScenarioRegistry reg;
  ScenarioSpec spec;
  spec.name = "g/a";
  spec.group = "g";
  spec.run = [](const ScenarioContext&) { return ScenarioResult{}; };
  reg.add(spec);
  EXPECT_THROW(reg.add(spec), std::invalid_argument);
  ScenarioSpec unnamed;
  unnamed.run = spec.run;
  EXPECT_THROW(reg.add(unnamed), std::invalid_argument);
  ScenarioSpec no_fn;
  no_fn.name = "g/b";
  EXPECT_THROW(reg.add(no_fn), std::invalid_argument);
}

TEST(ScenarioRegistry, RejectsRendererCollisions) {
  ScenarioRegistry reg;
  reg.set_renderer("g", [](const auto&, const auto&) { return ""; });
  EXPECT_THROW(
      reg.set_renderer("g", [](const auto&, const auto&) { return ""; }),
      std::invalid_argument);
}

TEST(ScenarioRegistry, MatchByNameAndGroup) {
  const auto reg = small_registry();
  EXPECT_EQ(reg.match("*").size(), 6u);
  EXPECT_EQ(reg.match("chain").size(), 6u);  // group name matches too
  EXPECT_EQ(reg.match("chain/depth5").size(), 1u);
  EXPECT_TRUE(reg.match("nope*").empty());
  ASSERT_NE(reg.find("chain/depth13"), nullptr);
  EXPECT_EQ(reg.find("chain/depth999"), nullptr);
}

TEST(Campaign, ParallelDigestsMatchSerial) {
  const auto reg = small_registry();
  CampaignOptions options;
  options.filter = "*";
  options.seed = 42;
  options.jobs = 1;
  const auto serial = run_campaign(reg, options);
  ASSERT_EQ(serial.outcomes.size(), 6u);
  for (const auto& o : serial.outcomes) {
    EXPECT_TRUE(o.ok) << o.name << ": " << o.error;
    EXPECT_GT(o.trace_events, 0u) << o.name;
    EXPECT_NE(o.digest, 0u) << o.name;
  }
  for (int jobs : {2, 8}) {
    options.jobs = jobs;
    const auto parallel = run_campaign(reg, options);
    ASSERT_EQ(parallel.outcomes.size(), serial.outcomes.size());
    for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
      // Same registration order, same digest, bit for bit.
      EXPECT_EQ(parallel.outcomes[i].name, serial.outcomes[i].name);
      EXPECT_EQ(parallel.outcomes[i].digest, serial.outcomes[i].digest)
          << serial.outcomes[i].name << " at jobs=" << jobs;
      EXPECT_EQ(parallel.outcomes[i].trace_events,
                serial.outcomes[i].trace_events);
      EXPECT_EQ(parallel.outcomes[i].final_time,
                serial.outcomes[i].final_time);
    }
  }
}

TEST(Campaign, SeedChangesDigests) {
  const auto reg = small_registry();
  CampaignOptions options;
  options.jobs = 1;
  options.seed = 1;
  const auto one = run_campaign(reg, options);
  options.seed = 2;
  const auto two = run_campaign(reg, options);
  ASSERT_EQ(one.outcomes.size(), two.outcomes.size());
  EXPECT_NE(one.outcomes[0].digest, two.outcomes[0].digest);
}

TEST(Campaign, FailureIsolation) {
  auto reg = small_registry();
  ScenarioSpec throwing;
  throwing.name = "bad/throws";
  throwing.group = "bad";
  throwing.run = [](const ScenarioContext&) -> ScenarioResult {
    throw std::runtime_error("deliberate failure");
  };
  reg.add(std::move(throwing));
  ScenarioSpec missing;
  missing.name = "bad/schema";
  missing.group = "bad";
  missing.expected_metrics = {"never_produced"};
  missing.run = [](const ScenarioContext& ctx) {
    return timer_chain(ctx, 3);
  };
  reg.add(std::move(missing));

  CampaignOptions options;
  options.jobs = 4;
  const auto report = run_campaign(reg, options);
  ASSERT_EQ(report.outcomes.size(), 8u);
  EXPECT_EQ(report.failures(), 2u);
  // The six healthy scenarios still completed.
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_TRUE(report.outcomes[i].ok) << report.outcomes[i].name;
  EXPECT_FALSE(report.outcomes[6].ok);
  EXPECT_NE(report.outcomes[6].error.find("deliberate failure"),
            std::string::npos);
  EXPECT_FALSE(report.outcomes[7].ok);
  EXPECT_NE(report.outcomes[7].error.find("never_produced"),
            std::string::npos);
}

TEST(Campaign, TimeoutWatchdogDegradesGracefully) {
  auto reg = small_registry();
  ScenarioSpec spinning;
  spinning.name = "bad/spins";
  spinning.group = "bad";
  spinning.run = [](const ScenarioContext& ctx) -> ScenarioResult {
    // A runaway workload: virtual time advances forever, so only the
    // wall-clock watchdog can stop it.
    Simulation sim;
    ctx.hooks.on_start(sim);
    std::function<void()> spin = [&] { sim.after(10, spin); };
    spin();
    sim.run();
    ctx.hooks.on_finish(sim);
    return ScenarioResult{};
  };
  reg.add(std::move(spinning));

  CampaignOptions options;
  options.jobs = 2;
  options.timeout_s = 0.05;
  const auto report = run_campaign(reg, options);
  ASSERT_EQ(report.outcomes.size(), 7u);
  // The six healthy scenarios finish well inside the budget...
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(report.outcomes[i].ok) << report.outcomes[i].name;
    EXPECT_EQ(report.outcomes[i].status, "ok") << report.outcomes[i].name;
  }
  // ...and the runaway one is reported as a timeout, not a crash.
  const auto& timed_out = report.outcomes[6];
  EXPECT_FALSE(timed_out.ok);
  EXPECT_EQ(timed_out.status, "timeout");
  EXPECT_NE(timed_out.error.find("wall-clock budget"), std::string::npos)
      << timed_out.error;
  EXPECT_EQ(report.failures(), 1u);

  // The JSON report carries the status for shell tooling.
  const std::string path = ::testing::TempDir() + "campaign_timeout.json";
  ASSERT_TRUE(write_campaign_json(path, report));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  EXPECT_NE(doc.find("\"status\": \"timeout\""), std::string::npos);
  EXPECT_NE(doc.find("\"status\": \"ok\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Campaign, StatusFieldIsOkWithoutWatchdog) {
  const auto reg = small_registry();
  CampaignOptions options;
  options.filter = "chain/depth5";
  const auto report = run_campaign(reg, options);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_EQ(report.outcomes[0].status, "ok");
}

TEST(Campaign, FilterSelectsSubset) {
  const auto reg = small_registry();
  CampaignOptions options;
  options.filter = "chain/depth1?";
  const auto report = run_campaign(reg, options);
  ASSERT_EQ(report.outcomes.size(), 2u);  // depths 13 and 17
  EXPECT_EQ(report.filter, "chain/depth1?");
}

TEST(Campaign, JsonReportRoundTrip) {
  const auto reg = small_registry();
  CampaignOptions options;
  options.filter = "chain/depth5";
  const auto report = run_campaign(reg, options);
  const std::string path = ::testing::TempDir() + "campaign_test.json";
  ASSERT_TRUE(write_campaign_json(path, report));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  EXPECT_NE(doc.find("\"gridsim-campaign/1\""), std::string::npos);
  EXPECT_NE(doc.find("\"chain/depth5\""), std::string::npos);
  EXPECT_NE(doc.find("\"digest\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Campaign, RenderGroupFallsBackWithoutRenderer) {
  const auto reg = small_registry();
  CampaignOptions options;
  options.filter = "chain/depth5";
  const auto report = run_campaign(reg, options);
  const std::string text = render_group(reg, "chain", report);
  EXPECT_NE(text.find("chain/depth5"), std::string::npos);
}

TEST(Campaign, RendersTable4FromThePaperCatalog) {
  // The render path of `gridsim campaign --filter 'table4/*' --render`:
  // the paper's title, then one row per implementation in catalog order.
  const auto& reg = scenarios::paper_registry();
  CampaignOptions options;
  options.filter = "table4/*";
  const auto report = run_campaign(reg, options);
  ASSERT_EQ(report.failures(), 0u);
  ASSERT_EQ(report.outcomes.size(), 5u);

  std::istringstream text(render_group(reg, "table4", report));
  std::string line;
  bool titled = false;
  while (std::getline(text, line) && line.rfind("  ---", 0) != 0)
    titled = titled || line.rfind("# Table 4: one-way latency", 0) == 0;
  EXPECT_TRUE(titled);
  std::vector<std::string> rows;
  while (std::getline(text, line) && !line.empty()) rows.push_back(line);
  ASSERT_EQ(rows.size(), report.outcomes.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::string& name = report.outcomes[i].name;
    const std::string impl = name.substr(name.find('/') + 1);
    EXPECT_EQ(rows[i].rfind("  " + impl + " ", 0), 0u) << rows[i];
  }
}

// --- Determinism audit over the paper catalog ------------------------------
//
// Every scenario must be a deterministic function of (name, seed): a second
// run folds the bit-identical trace, event count and end time. These
// catalog selections cover the paper's three workload shapes — the Section
// 3.1 ping-pong (table4), NPB CG class S on 4 ranks over two sites
// (mc/cg-MPICH2) and a master/worker ray2mesh campaign over four sites
// (table6) — and their seed-1 digests are pinned, so silent drift of the
// engine's event schedule fails here instead of quietly changing the
// paper's numbers. An intentional model change re-pins these values (they
// equal `gridsim campaign` output) and says so in its commit.

struct PinnedDigest {
  std::string name;
  std::uint64_t digest;
  std::uint64_t trace_events;
};

struct AuditCell {
  std::string filter;
  std::vector<PinnedDigest> pins;  ///< registration order
};

AuditCell audit_cell(const std::string& shape) {
  if (shape == "pingpong")
    return {"table4/*",
            {{"table4/TCP", 0xbfc44231a21e074dULL, 80},
             {"table4/MPICH2", 0xc08f4b65ab74b4e3ULL, 80},
             {"table4/GridMPI", 0xf05597af39da4deeULL, 80},
             {"table4/MPICH-Madeleine", 0xa537bd94597196e3ULL, 80},
             {"table4/OpenMPI", 0xf723e71ba7d67902ULL, 80}}};
  if (shape == "nas")
    return {"mc/cg-MPICH2", {{"mc/cg-MPICH2", 0xb0f92e3f086219fbULL, 5466}}};
  return {"table6/master-rennes",
          {{"table6/master-rennes", 0xd25f933a7f03d4ceULL, 265066}}};
}

class DeterminismAudit : public ::testing::TestWithParam<const char*> {};

TEST_P(DeterminismAudit, RepeatedRunsProduceIdenticalDigests) {
  const AuditCell cell = audit_cell(GetParam());
  const auto& reg = scenarios::paper_registry();
  CampaignOptions options;
  options.filter = cell.filter;
  const auto first = run_campaign(reg, options);
  const auto second = run_campaign(reg, options);
  ASSERT_EQ(first.outcomes.size(), cell.pins.size());
  ASSERT_EQ(second.outcomes.size(), cell.pins.size());
  for (std::size_t i = 0; i < cell.pins.size(); ++i) {
    const ScenarioOutcome& a = first.outcomes[i];
    const ScenarioOutcome& b = second.outcomes[i];
    EXPECT_TRUE(a.ok) << a.name << ": " << a.error;
    EXPECT_EQ(a.digest, b.digest) << a.name;
    EXPECT_EQ(a.trace_events, b.trace_events) << a.name;
    EXPECT_EQ(a.final_time, b.final_time) << a.name;
    EXPECT_GT(a.final_time, 0) << a.name;
    const PinnedDigest& pin = cell.pins[i];
    EXPECT_EQ(a.name, pin.name);
    EXPECT_EQ(a.digest, pin.digest)
        << a.name << ": actual digest " << std::hex << a.digest;
    EXPECT_EQ(a.trace_events, pin.trace_events) << a.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, DeterminismAudit,
                         ::testing::Values("pingpong", "nas", "ray2mesh"),
                         [](const auto& param_info) {
                           return std::string(param_info.param);
                         });

TEST(DeterminismAudit, SeedSaltsTheDigest) {
  const auto& reg = scenarios::paper_registry();
  CampaignOptions options;
  options.filter = "table4/MPICH2";
  const auto a = run_campaign(reg, options);
  options.seed = 2;
  const auto b = run_campaign(reg, options);
  ASSERT_EQ(a.outcomes.size(), 1u);
  ASSERT_EQ(b.outcomes.size(), 1u);
  EXPECT_NE(a.outcomes[0].digest, b.outcomes[0].digest);
  // The seed salts the fold; the simulated behaviour itself is unchanged.
  EXPECT_EQ(a.outcomes[0].trace_events, b.outcomes[0].trace_events);
  EXPECT_EQ(a.outcomes[0].final_time, b.outcomes[0].final_time);
}

// Pinned digest for a non-default seed. If this fails, the engine's event
// schedule or the seed fold changed: either an intentional model change
// (re-pin the value and say so in the commit) or an ordering bug (fix it).
TEST(DeterminismAudit, PingpongDigestIsPinnedForSeed42) {
  const auto& reg = scenarios::paper_registry();
  CampaignOptions options;
  options.filter = "table4/MPICH2";
  options.seed = 42;
  const auto run = run_campaign(reg, options);
  ASSERT_EQ(run.outcomes.size(), 1u);
  const ScenarioOutcome& o = run.outcomes[0];
  EXPECT_TRUE(o.ok) << o.error;
  EXPECT_EQ(o.digest, 0xbe01ed20fbfa7404ULL)
      << "actual digest: " << std::hex << o.digest;
  EXPECT_EQ(o.trace_events, 80u);
}

// --- Golden-digest determinism for the fault-injection catalog -------------
//
// The robust/* scenarios exercise every injector (loss episodes, jitter,
// flap, cross traffic, packet-level loss). Their digests must be
// byte-identical across job counts and across reruns with the same seed, and
// must move when the seed moves — otherwise "seeded fault schedule" would be
// an empty promise. These run the real paper registry, so they are the
// slowest tests in this binary; the subset is kept to the cheap robust
// scenarios plus a spot-check pair of expensive ones.

TEST(RobustCatalog, DigestsStableAcrossJobsAndReruns) {
  const auto& reg = scenarios::paper_registry();
  CampaignOptions options;
  options.filter = "robust/*";
  options.seed = 42;
  options.jobs = 1;
  const auto serial = run_campaign(reg, options);
  ASSERT_EQ(serial.outcomes.size(), 10u);
  for (const auto& o : serial.outcomes) {
    EXPECT_TRUE(o.ok) << o.name << ": " << o.error;
    EXPECT_GT(o.trace_events, 0u) << o.name;
    EXPECT_NE(o.digest, 0u) << o.name;
  }
  for (int jobs : {2, 8}) {
    options.jobs = jobs;
    const auto parallel = run_campaign(reg, options);
    ASSERT_EQ(parallel.outcomes.size(), serial.outcomes.size());
    for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
      EXPECT_EQ(parallel.outcomes[i].name, serial.outcomes[i].name);
      EXPECT_EQ(parallel.outcomes[i].digest, serial.outcomes[i].digest)
          << serial.outcomes[i].name << " at jobs=" << jobs;
      EXPECT_EQ(parallel.outcomes[i].trace_events,
                serial.outcomes[i].trace_events)
          << serial.outcomes[i].name << " at jobs=" << jobs;
      EXPECT_EQ(parallel.outcomes[i].final_time, serial.outcomes[i].final_time)
          << serial.outcomes[i].name << " at jobs=" << jobs;
    }
  }
  // Rerun at jobs=1: a second process-local run must reproduce every digest.
  options.jobs = 1;
  const auto rerun = run_campaign(reg, options);
  ASSERT_EQ(rerun.outcomes.size(), serial.outcomes.size());
  for (std::size_t i = 0; i < serial.outcomes.size(); ++i)
    EXPECT_EQ(rerun.outcomes[i].digest, serial.outcomes[i].digest)
        << serial.outcomes[i].name;
}

TEST(RobustCatalog, SeedMovesFaultSchedules) {
  const auto& reg = scenarios::paper_registry();
  CampaignOptions options;
  // One fluid-level and one packet-level scenario keep this test fast while
  // covering both injection paths.
  options.filter = "robust/flap-pingpong";
  options.jobs = 1;
  options.seed = 42;
  const auto a = run_campaign(reg, options);
  options.seed = 7;
  const auto b = run_campaign(reg, options);
  ASSERT_EQ(a.outcomes.size(), 1u);
  ASSERT_EQ(b.outcomes.size(), 1u);
  EXPECT_TRUE(a.outcomes[0].ok) << a.outcomes[0].error;
  EXPECT_TRUE(b.outcomes[0].ok) << b.outcomes[0].error;
  EXPECT_NE(a.outcomes[0].digest, b.outcomes[0].digest);

  options.filter = "robust/packet-loss";
  options.seed = 42;
  const auto c = run_campaign(reg, options);
  options.seed = 7;
  const auto d = run_campaign(reg, options);
  ASSERT_EQ(c.outcomes.size(), 1u);
  ASSERT_EQ(d.outcomes.size(), 1u);
  EXPECT_TRUE(c.outcomes[0].ok) << c.outcomes[0].error;
  EXPECT_TRUE(d.outcomes[0].ok) << d.outcomes[0].error;
  EXPECT_NE(c.outcomes[0].digest, d.outcomes[0].digest);
}

}  // namespace
}  // namespace gridsim::harness
