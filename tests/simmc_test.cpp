// End-to-end tests for the DPOR-lite ordering model-checker (simmc/mc.hpp):
// exploration coverage, digest stability and divergence detection, deadlock
// witnesses, minimization, and the witness file round-trip that backs
// `gridsim replay`.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "mpi/mpi.hpp"
#include "profiles/profiles.hpp"
#include "scenarios/catalog.hpp"
#include "simmc/mc.hpp"
#include "topology/grid5000.hpp"

namespace gridsim::simmc {
namespace {

/// The acceptance workload: two concurrent senders into one rank's pair of
/// kAnySource receives. Both matching orders are legal; `metric` selects
/// whether the result is order-invariant ("sum") or deliberately
/// order-dependent ("first_src", to prove divergence is caught).
harness::ScenarioSpec two_sender_spec(const std::string& metric) {
  harness::ScenarioSpec spec;
  spec.name = "test/two-sender-" + metric;
  spec.group = "test";
  spec.description = "2 racing senders into one wildcard receiver";
  spec.ranks = 3;
  spec.run = [metric](const harness::ScenarioContext& ctx) {
    Simulation sim;
    if (ctx.hooks.on_start) ctx.hooks.on_start(sim);
    topo::Grid grid(sim, topo::GridSpec::rennes_nancy(2));
    mpi::Job job(grid, mpi::block_placement(grid, 3), profiles::mpich2(),
                 tcp::KernelTunables::grid_tuned());
    double sum = 0;
    int first_src = -1;
    job.launch([&](mpi::Rank& r) -> Task<void> {
      if (r.rank() == 0) {
        const mpi::RecvInfo a = co_await r.recv(mpi::kAnySource, 1);
        const mpi::RecvInfo b = co_await r.recv(mpi::kAnySource, 1);
        first_src = a.source;
        sum = a.bytes + b.bytes;
      } else {
        co_await r.send(0, 100.0 * r.rank(), 1);
      }
    });
    sim.run();
    if (ctx.hooks.on_finish) ctx.hooks.on_finish(sim);
    harness::ScenarioResult res;
    if (metric == "sum")
      res.add("sum", sum);
    else
      res.add("first_src", first_src);
    return res;
  };
  return spec;
}

TEST(Simmc, ExploresBothOrdersOfATwoSenderRace) {
  const McReport report = explore(two_sender_spec("sum"), {});
  EXPECT_EQ(report.status, "ok") << report.detail;
  // Two distinct interleavings at least: arrival order and the flip. (The
  // second receive's "choice" is forced, so 2 is also the exact count.)
  EXPECT_GE(report.executions, 2);
  EXPECT_EQ(report.race_points, 1);
  EXPECT_EQ(report.max_candidates, 2);
  ASSERT_EQ(report.digests.size(), 1u);
}

TEST(Simmc, DetectsAnOrderDependentResult) {
  const McReport report = explore(two_sender_spec("first_src"), {});
  EXPECT_EQ(report.status, "digest-divergence") << report.detail;
  EXPECT_EQ(report.digests.size(), 2u);
  EXPECT_FALSE(report.ok());
}

TEST(Simmc, ScriptedArbiterForcesAndRecordsTheMatch) {
  const harness::ScenarioSpec spec = two_sender_spec("sum");
  const ExecutionRecord base = run_scripted(spec, {}, 1);
  const ExecutionRecord flipped = run_scripted(spec, {1}, 1);
  ASSERT_FALSE(base.deadlocked);
  ASSERT_FALSE(flipped.deadlocked);
  ASSERT_GE(base.trace.size(), 1u);
  ASSERT_EQ(base.trace[0].candidates.size(), 2u);
  EXPECT_EQ(base.trace[0].chosen, 0u);
  EXPECT_EQ(flipped.trace[0].chosen, 1u);
  // Same candidates, different pick, same invariant digest.
  EXPECT_NE(base.trace[0].candidates[0].src_rank,
            base.trace[0].candidates[1].src_rank);
  EXPECT_EQ(base.digest, flipped.digest);
}

TEST(Simmc, EveryCatalogMcScenarioIsDigestStable) {
  // The tentpole assertion over the registered catalog: any legal message
  // schedule, same answer. The deadlock fixture is asserted separately.
  const auto& reg = scenarios::paper_registry();
  int explored = 0;
  for (const auto& spec : reg.scenarios()) {
    if (spec.group != "mc" || spec.name == "mc/deadlock-fixture") continue;
    const McReport report = explore(spec, {});
    EXPECT_EQ(report.status, "ok") << spec.name << ": " << report.detail;
    EXPECT_LE(report.digests.size(), 1u) << spec.name;
    // No mc/* send causally depends on a wildcard match outcome (simlint
    // R2), so the quiescent candidate sets were provably maximal and "same
    // answer under any schedule" is a verified claim, not an assumption.
    EXPECT_TRUE(report.complete) << spec.name << ": " << report.detail;
    ++explored;
  }
  EXPECT_EQ(explored, 10);
}

TEST(Simmc, PingpongWildStaysWithinSixExecutions) {
  // Acceptance pin for the HB persistent sets: the 3-sender wildcard
  // ping-pong has 3! = 6 legal matching orders, all HB-concurrent, so the
  // reduction must not prune any of them — and must not add any either.
  const auto* spec =
      scenarios::paper_registry().find("mc/pingpong-wild-MPICH2");
  ASSERT_NE(spec, nullptr);
  const McReport report = explore(*spec, {});
  EXPECT_EQ(report.status, "ok") << report.detail;
  EXPECT_LE(report.executions, 6);
  EXPECT_EQ(report.hb_pruned, 0);
  EXPECT_TRUE(report.complete);
  ASSERT_EQ(report.digests.size(), 1u);
}

TEST(Simmc, HbPersistentSetsPruneOnlyOrderedBranches) {
  // The race-free twin: its two candidate sends are HB-ordered through a
  // token, so the HB reduction collapses the exploration to one execution
  // while leaving the digest set untouched. --no-hb restores the
  // exhaustive search.
  const auto* spec =
      scenarios::paper_registry().find("lint/scripted-order");
  ASSERT_NE(spec, nullptr);
  McOptions without_hb;
  without_hb.hb_sets = false;
  const McReport on = explore(*spec, {});
  const McReport off = explore(*spec, without_hb);
  EXPECT_EQ(on.status, "ok") << on.detail;
  EXPECT_EQ(off.status, "ok") << off.detail;
  EXPECT_EQ(on.digests, off.digests);  // identical coverage
  EXPECT_LT(on.executions, off.executions);
  EXPECT_GE(on.hb_pruned, 1);
  EXPECT_EQ(off.hb_pruned, 0);
}

/// A send that only becomes enabled after a wildcard match: rank 1's
/// second message waits for rank 0's ack of the first wildcard match.
/// This is exactly the shape for which quiescence-computed candidate sets
/// can be incomplete, so the checker must say "verified-incomplete".
harness::ScenarioSpec causal_relay_spec() {
  harness::ScenarioSpec spec;
  spec.name = "test/causal-relay";
  spec.group = "test";
  spec.description = "a send enabled only after a wildcard match";
  spec.ranks = 3;
  spec.run = [](const harness::ScenarioContext& ctx) {
    Simulation sim;
    if (ctx.hooks.on_start) ctx.hooks.on_start(sim);
    topo::Grid grid(sim, topo::GridSpec::rennes_nancy(2));
    mpi::Job job(grid, mpi::block_placement(grid, 3), profiles::mpich2(),
                 tcp::KernelTunables::grid_tuned());
    double sum = 0;
    job.launch([&](mpi::Rank& r) -> Task<void> {
      if (r.rank() == 0) {
        const mpi::RecvInfo a = co_await r.recv(mpi::kAnySource, 1);
        co_await r.send(1, 64, 2);  // enables rank 1's second send
        const mpi::RecvInfo b = co_await r.recv(mpi::kAnySource, 1);
        const mpi::RecvInfo c = co_await r.recv(mpi::kAnySource, 1);
        sum = a.bytes + b.bytes + c.bytes;
      } else if (r.rank() == 1) {
        co_await r.send(0, 100, 1);
        (void)co_await r.recv(0, 2);
        co_await r.send(0, 50, 1);
      } else {
        co_await r.send(0, 200, 1);
      }
    });
    sim.run();
    if (ctx.hooks.on_finish) ctx.hooks.on_finish(sim);
    harness::ScenarioResult res;
    res.add("sum", sum);
    return res;
  };
  return spec;
}

TEST(Simmc, CausallyDependentSendsDowngradeToVerifiedIncomplete) {
  const McReport report = explore(causal_relay_spec(), {});
  EXPECT_EQ(report.status, "ok") << report.detail;
  EXPECT_FALSE(report.complete);
  EXPECT_GE(report.causal_sends, 1);
  EXPECT_NE(report.detail.find("verified-incomplete"), std::string::npos)
      << report.detail;
  // The result itself is still interleaving-invariant.
  EXPECT_LE(report.digests.size(), 1u);
}

TEST(Simmc, DeadlockFixtureYieldsTheMinimalWitness) {
  const auto* spec =
      scenarios::paper_registry().find("mc/deadlock-fixture");
  ASSERT_NE(spec, nullptr);
  const McReport report = explore(*spec, {});
  ASSERT_EQ(report.status, "deadlock") << report.detail;
  // Minimized to the single forced choice: the wildcard takes the WAN
  // sender's message instead of the LAN sender's.
  EXPECT_EQ(report.witness.choices, (std::vector<std::size_t>{1}));
  ASSERT_FALSE(report.witness.blocked.empty());
  EXPECT_NE(report.witness.blocked[0].find("recv(src=2, tag=1)"),
            std::string::npos)
      << report.witness.blocked[0];
}

TEST(Simmc, WitnessRoundTripsAndReplaysDeterministically) {
  const auto* spec =
      scenarios::paper_registry().find("mc/deadlock-fixture");
  ASSERT_NE(spec, nullptr);
  const McReport report = explore(*spec, {});
  ASSERT_EQ(report.status, "deadlock");

  const std::string path =
      testing::TempDir() + "simmc_witness_roundtrip.witness";
  ASSERT_TRUE(report.witness.save(path));
  Witness loaded;
  std::string error;
  ASSERT_TRUE(Witness::load(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.scenario, report.witness.scenario);
  EXPECT_EQ(loaded.seed, report.witness.seed);
  EXPECT_EQ(loaded.choices, report.witness.choices);
  EXPECT_EQ(loaded.blocked, report.witness.blocked);

  // `gridsim replay` semantics: every replay of the witness deadlocks with
  // an identical blocked report.
  const ExecutionRecord first =
      run_scripted(*spec, loaded.choices, loaded.seed);
  const ExecutionRecord second =
      run_scripted(*spec, loaded.choices, loaded.seed);
  ASSERT_TRUE(first.deadlocked);
  ASSERT_TRUE(second.deadlocked);
  EXPECT_EQ(first.blocked, second.blocked);
  EXPECT_EQ(first.blocked, loaded.blocked);
  std::remove(path.c_str());
}

TEST(Simmc, WitnessLoadRejectsGarbage) {
  const std::string path = testing::TempDir() + "simmc_witness_garbage";
  {
    std::ofstream out(path);
    out << "not a witness\n";
  }
  Witness w;
  std::string error;
  EXPECT_FALSE(Witness::load(path, &w, &error));
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
  EXPECT_FALSE(Witness::load(path + ".missing", &w, &error));
}

TEST(Simmc, WitnessLoadRejectsUnparsableFields) {
  const std::string path = testing::TempDir() + "simmc_witness_fields";
  const auto load = [&path](const std::string& seed_line,
                            const std::string& choices_line,
                            std::string* error) {
    {
      std::ofstream out(path);
      out << "gridsim-mc-witness/1\nscenario mc/deadlock-fixture\n"
          << seed_line << "\n" << choices_line << "\nend\n";
    }
    Witness w;
    const bool ok = Witness::load(path, &w, error);
    std::remove(path.c_str());
    return ok;
  };
  std::string error;
  EXPECT_TRUE(load("seed 7", "choices 1 0 2", &error)) << error;
  EXPECT_FALSE(load("seed banana", "choices 1", &error));
  EXPECT_NE(error.find("seed"), std::string::npos) << error;
  EXPECT_FALSE(load("seed 7 8", "choices 1", &error));
  EXPECT_FALSE(load("seed -1", "choices 1", &error));
  EXPECT_FALSE(load("seed 7", "choices 1 x 7", &error));
  EXPECT_NE(error.find("choices"), std::string::npos) << error;
  EXPECT_FALSE(load("seed 7", "choices 1 -2", &error));
  EXPECT_FALSE(load("seed 7", "choices 3x", &error));
}

TEST(Simmc, ResultDigestIsOrderInsensitiveAndValueSensitive) {
  harness::ScenarioResult a, b, c;
  a.add("x", 1.0).add("y", 2.0);
  b.add("y", 2.0).add("x", 1.0);  // same metrics, different order
  c.add("x", 1.0).add("y", 2.5);
  EXPECT_EQ(result_digest(a), result_digest(b));
  EXPECT_NE(result_digest(a), result_digest(c));
}

}  // namespace
}  // namespace gridsim::simmc
