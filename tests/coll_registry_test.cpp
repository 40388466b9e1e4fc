// Unit tests for the collective-algorithm registry, the declarative
// selector and the guideline harness: the API surface `gridsim coll`
// and the fluent builder knobs sit on. The registered algorithm set is
// pinned here — adding or renaming an algorithm is an API change and must
// update these expectations (and docs/collectives.md).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "collectives/guidelines.hpp"
#include "collectives/registry.hpp"
#include "collectives/selector.hpp"
#include "profiles/profiles.hpp"
#include "topology/grid5000.hpp"

namespace gridsim::coll {
namespace {

using mpi::CollOp;
using mpi::CollRule;
using mpi::TopoScope;

// --- registry introspection ----------------------------------------------

TEST(Registry, PinsTheAlgorithmSet) {
  const auto& reg = AlgorithmRegistry::instance();
  EXPECT_EQ(reg.bcast().size(), 4u);
  EXPECT_EQ(reg.allreduce().size(), 3u);
  EXPECT_EQ(reg.alltoall().size(), 3u);
  EXPECT_EQ(reg.barrier().size(), 2u);
  EXPECT_EQ(reg.names("bcast"),
            (std::vector<std::string>{"binomial", "scatter-ring",
                                      "hierarchical", "pipeline"}));
  EXPECT_EQ(reg.names("allreduce"),
            (std::vector<std::string>{"recursive-doubling", "rabenseifner",
                                      "hierarchical"}));
  EXPECT_EQ(reg.names("alltoall"),
            (std::vector<std::string>{"pairwise", "ring", "bruck"}));
  EXPECT_EQ(reg.names("barrier"),
            (std::vector<std::string>{"dissemination", "tree"}));
  EXPECT_THROW(reg.names("gather"), std::invalid_argument);
}

TEST(Registry, FindsByNameAndAlias) {
  const auto& reg = AlgorithmRegistry::instance();
  ASSERT_NE(reg.find_bcast("scatter-ring"), nullptr);
  // "vandegeijn" is the historical alias the enum knob used.
  const auto* via_alias = reg.find_bcast("vandegeijn");
  ASSERT_NE(via_alias, nullptr);
  EXPECT_EQ(via_alias->name, "scatter-ring");
  EXPECT_EQ(reg.find_bcast("quantum"), nullptr);
  EXPECT_EQ(reg.find_allreduce("binomial"), nullptr);  // wrong operation
}

TEST(Registry, EntriesCarryMetadataAndRunners) {
  const auto& reg = AlgorithmRegistry::instance();
  for (const auto& a : reg.bcast()) {
    EXPECT_FALSE(a.description.empty()) << a.name;
    EXPECT_NE(a.run, nullptr) << a.name;
  }
  // Site-splitting algorithms are the WAN-aware ones.
  EXPECT_TRUE(reg.find_bcast("hierarchical")->wan_aware);
  EXPECT_FALSE(reg.find_bcast("binomial")->wan_aware);
  EXPECT_TRUE(reg.find_allreduce("hierarchical")->wan_aware);
}

// --- selector decision rules ---------------------------------------------

TEST(Selector, DefaultTablesHonourTheCutoffs) {
  mpi::CollectiveSuite suite;
  auto chosen = [&suite](CollOp op, double bytes) {
    return Selector::pick(suite, op, bytes, 16, 1).algo;
  };
  // Binomial up to 12 kB in front of every bandwidth broadcast.
  for (const char* bcast : {"scatter-ring", "hierarchical", "pipeline"}) {
    suite.bcast = bcast;
    EXPECT_EQ(chosen(CollOp::kBcast, kBcastSmallCutoff), "binomial") << bcast;
    EXPECT_EQ(chosen(CollOp::kBcast, kBcastSmallCutoff + 1), bcast);
  }
  // Recursive-doubling up to 2 kB, but only in front of rabenseifner.
  suite.allreduce = "rabenseifner";
  EXPECT_EQ(chosen(CollOp::kAllreduce, kAllreduceSmallCutoff),
            "recursive-doubling");
  EXPECT_EQ(chosen(CollOp::kAllreduce, kAllreduceSmallCutoff + 1),
            "rabenseifner");
  suite.allreduce = "hierarchical";
  EXPECT_EQ(chosen(CollOp::kAllreduce, 1), "hierarchical");
}

TEST(Selector, DefaultTablesAreTotal) {
  mpi::CollectiveSuite suite;
  for (auto op : {CollOp::kBcast, CollOp::kAllreduce, CollOp::kAlltoall,
                  CollOp::kBarrier}) {
    const auto& rules = Selector::default_rules(suite, op);
    ASSERT_FALSE(rules.empty()) << mpi::to_string(op);
    // The last rule is unbounded, so pick always returns something.
    EXPECT_TRUE(Selector::matches(rules.back(), op, 1e18, 1 << 20, 64));
  }
}

TEST(Selector, FirstMatchingCustomRuleWins) {
  mpi::CollectiveSuite suite;
  suite.selector = {
      CollRule{.op = CollOp::kBcast, .algo = "pipeline", .max_bytes = 1e3},
      CollRule{.op = CollOp::kBcast, .algo = "hierarchical"}};
  EXPECT_EQ(Selector::pick(suite, CollOp::kBcast, 500, 16, 1).algo,
            "pipeline");
  EXPECT_EQ(Selector::pick(suite, CollOp::kBcast, 2e3, 16, 1).algo,
            "hierarchical");
  // Other operations fall through to the defaults untouched.
  EXPECT_EQ(Selector::pick(suite, CollOp::kAllreduce, 500, 16, 1).algo,
            "recursive-doubling");
}

TEST(Selector, RankBandsAndFallback) {
  mpi::CollectiveSuite suite;
  suite.selector = {CollRule{.op = CollOp::kAlltoall,
                             .algo = "bruck",
                             .min_ranks = 32}};
  EXPECT_EQ(Selector::pick(suite, CollOp::kAlltoall, 1e3, 64, 1).algo,
            "bruck");
  // Below the rank band no custom rule matches: default policy (pairwise).
  EXPECT_EQ(Selector::pick(suite, CollOp::kAlltoall, 1e3, 8, 1).algo,
            "pairwise");
}

TEST(Selector, TopologyScopeNeedsSites) {
  mpi::CollectiveSuite suite;
  suite.selector = {CollRule{.op = CollOp::kBcast,
                             .algo = "hierarchical",
                             .topo = TopoScope::kMultiSite},
                    CollRule{.op = CollOp::kBcast,
                             .algo = "scatter-ring",
                             .topo = TopoScope::kSingleSite}};
  EXPECT_TRUE(Selector::needs_sites(suite, CollOp::kBcast));
  EXPECT_FALSE(Selector::needs_sites(suite, CollOp::kAllreduce));
  EXPECT_EQ(Selector::pick(suite, CollOp::kBcast, 1e6, 16, 2).algo,
            "hierarchical");
  EXPECT_EQ(Selector::pick(suite, CollOp::kBcast, 1e6, 16, 1).algo,
            "scatter-ring");
}

TEST(Selector, EveryRegisteredAlgorithmIsAPolicy) {
  const auto& reg = AlgorithmRegistry::instance();
  for (auto op : {CollOp::kBcast, CollOp::kAllreduce, CollOp::kAlltoall,
                  CollOp::kBarrier}) {
    for (const std::string& name : reg.names(mpi::to_string(op))) {
      mpi::CollectiveSuite suite;
      suite.bcast = suite.allreduce = suite.alltoall = suite.barrier = name;
      // Above every cutoff the policy's own algorithm is the one picked.
      EXPECT_EQ(Selector::pick(suite, op, 1e9, 16, 2).algo, name)
          << mpi::to_string(op);
    }
  }
}

TEST(Selector, UnregisteredPolicyNameThrows) {
  mpi::CollectiveSuite suite;
  suite.bcast = "quantum";
  EXPECT_THROW((void)Selector::pick(suite, CollOp::kBcast, 1e3, 16, 1),
               std::invalid_argument);
  // Other operations keep their registered defaults.
  EXPECT_EQ(Selector::pick(suite, CollOp::kAllreduce, 1e3, 16, 1).algo,
            "recursive-doubling");
  // An alias set directly resolves to its canonical policy.
  suite.bcast = "vandegeijn";
  EXPECT_EQ(Selector::pick(suite, CollOp::kBcast, 1e6, 16, 1).algo,
            "scatter-ring");
}

TEST(Selector, EffectiveRulesListsCustomThenDefaults) {
  mpi::CollectiveSuite suite;
  suite.selector = {CollRule{.op = CollOp::kBcast, .algo = "pipeline"}};
  const auto rules = Selector::effective_rules(suite, CollOp::kBcast);
  ASSERT_GE(rules.size(), 2u);
  EXPECT_EQ(rules.front().algo, "pipeline");
  EXPECT_EQ(rules.back().algo,
            Selector::default_rules(suite, CollOp::kBcast).back().algo);
}

// --- fluent builder knobs --------------------------------------------------

TEST(BuilderKnobs, NamesResolveToCanonicalPolicies) {
  const profiles::ExperimentConfig cfg = profiles::experiment(profiles::mpich2())
                                             .bcast_algo("vandegeijn")
                                             .allreduce_algo("rabenseifner")
                                             .alltoall_algo("bruck")
                                             .barrier_algo("tree");
  EXPECT_EQ(cfg.profile.collectives.bcast, "scatter-ring");
  EXPECT_EQ(cfg.profile.collectives.allreduce, "rabenseifner");
  EXPECT_EQ(cfg.profile.collectives.alltoall, "bruck");
  EXPECT_EQ(cfg.profile.collectives.barrier, "tree");
}

TEST(BuilderKnobs, UnknownNameListsTheKnownOnes) {
  try {
    profiles::experiment(profiles::mpich2()).bcast_algo("nope");
    FAIL() << "unknown name did not throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'nope'"), std::string::npos) << what;
    for (const std::string& name :
         AlgorithmRegistry::instance().names("bcast"))
      EXPECT_NE(what.find(name), std::string::npos) << what;
  }
}

TEST(BuilderKnobs, SelectorKnobInstallsRules) {
  const profiles::ExperimentConfig cfg =
      profiles::experiment(profiles::gridmpi())
          .selector({CollRule{.op = CollOp::kBcast, .algo = "pipeline"}});
  ASSERT_EQ(cfg.profile.collectives.selector.size(), 1u);
  EXPECT_EQ(cfg.profile.collectives.selector[0].algo, "pipeline");
}

// --- guideline harness -----------------------------------------------------

TEST(Guidelines, CleanTableHasNoViolationsOnTheCluster) {
  GuidelineOptions opt;
  opt.sizes = {1e3, 64e3};  // quick probe set, spans the bcast cutoff
  const auto report =
      verify_guidelines(topo::GridSpec::single_cluster(16), "cluster",
                        profiles::mpich2(), tcp::KernelTunables::grid_tuned(),
                        opt);
  EXPECT_EQ(report.violations(), 0) << "first violated cell: " << [&] {
    for (const auto& c : report.cells)
      if (c.violated) return c.guideline + " " + c.detail;
    return std::string();
  }();
  // 2 sizes -> 3 composition cells each + 2 monotone cells for the pair.
  EXPECT_EQ(report.cells.size(), 8u);
}

TEST(Guidelines, MisruledSelectorIsCaughtOnTheCyclicGrid) {
  mpi::ImplProfile impl = profiles::mpich2();
  impl.collectives.selector = misruled_selector();
  GuidelineOptions opt;
  opt.sizes = {1e3, 64e3};
  opt.cyclic = true;  // interleave ranks across sites: the adversarial order
  const auto report =
      verify_guidelines(topo::GridSpec::rennes_nancy(8), "grid-cyclic", impl,
                        tcp::KernelTunables::grid_tuned(), opt);
  ASSERT_GT(report.violations(), 0);
  bool monotone_bcast = false;
  for (const auto& c : report.cells)
    if (c.violated && c.guideline == "monotone-bcast") monotone_bcast = true;
  EXPECT_TRUE(monotone_bcast)
      << "misrule must trip the named monotone-bcast guideline";
}

TEST(Guidelines, JsonReportCreatesParentDirectories) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "coll-json-test";
  std::filesystem::remove_all(dir);
  const std::filesystem::path out = dir / "nested" / "report.json";
  GuidelineReport report;
  report.cells.push_back(GuidelineCell{.guideline = "monotone-bcast",
                                       .profile = "MPICH2",
                                       .topology = "grid-cyclic",
                                       .bytes = 1e3,
                                       .lhs_s = 2,
                                       .rhs_s = 1,
                                       .ratio = 2,
                                       .tolerance = 1.25,
                                       .violated = true,
                                       .detail = "\"quoted\""});
  ASSERT_TRUE(write_coll_json(out.string(), report));
  ASSERT_TRUE(std::filesystem::exists(out));
  std::ifstream in(out);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"gridsim-coll/1\""), std::string::npos);
  EXPECT_NE(text.find("\"violations\": 1"), std::string::npos);
  EXPECT_NE(text.find("monotone-bcast"), std::string::npos);
  EXPECT_NE(text.find("\\\"quoted\\\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace gridsim::coll
