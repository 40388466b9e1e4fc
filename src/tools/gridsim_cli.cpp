// gridsim — command-line driver for the simulator.
//
//   gridsim bench     [--quick] [--out DIR] [--reps N]
//   gridsim campaign  [--filter GLOB] [--jobs N] [--out DIR] [--seed N]
//                     [--timeout-s N] [--render] [--list]
//   gridsim mc        [--scenario GLOB] [--max-execs N] [--ranks-cap K]
//                     [--seed N] [--out DIR] [--no-hb] [--list]
//   gridsim coll      [--list] [--verify] [--impl NAME] [--quick]
//                     [--misrule] [--json OUT]
//   gridsim replay    --witness FILE [--reps N]
//
// Every subcommand parses its flags through the typed OptionParser
// (tools/cli.hpp): declared options with defaults, `--key=value`, strict
// numeric validation, unknown-flag errors and generated `--help`.
//
// `bench` runs the engine micro-benchmarks (topology build, event-queue
// churn, coroutine ping-pong, packet-level TCP, flow churn) and writes
// BENCH_micro.json into --out (default: the current directory). --quick
// shrinks every workload for CI smoke runs. End-to-end timing of paper
// workloads is gridbench/'s job.
//
// `campaign` runs the paper's full experiment catalog (or a --filter glob
// subset) on a worker-thread pool, trace-digesting every scenario, and
// writes one consolidated CAMPAIGN.json report (schema "gridsim-campaign/1",
// documented in docs/usage.md). Per-scenario digests are independent of
// --jobs: `--jobs 8` must equal `--jobs 1` byte for byte, which CI checks.
// --timeout-s arms a per-scenario wall-clock watchdog: a scenario that
// exceeds it is reported with "status": "timeout" and the campaign exits
// non-zero without aborting the remaining scenarios. Every scenario is also
// checked by the happens-before race analyzer (simlint,
// docs/race-detection.md); its verdict and first findings are in each
// CAMPAIGN.json row, and a verdict of races, leaks or truncated fails the
// scenario with "status": "lint".
//
// `mc` is the DPOR-lite ordering model-checker (simmc/mc.hpp,
// docs/model-checking.md): it re-executes each matched scenario under every
// legal wildcard matching order (up to --max-execs) and asserts no
// interleaving deadlocks or changes the scenario's result digest. A found
// deadlock is minimized and written as a witness file that `replay`
// reproduces deterministically. Writes MC.json (schema "gridsim-mc/1").
// --no-hb disables the happens-before persistent-set reduction (simlint).
//
// `coll` exposes the collective-algorithm layer (docs/collectives.md):
// --list prints the registered algorithms and each implementation's
// selector decision table; --verify runs the Hunold-style performance
// guideline sweep (composition + size monotonicity) over profile x size x
// topology and exits non-zero on any violation. --misrule swaps in the
// deliberately inverted bcast rule table, the negative fixture CI uses to
// prove the harness can catch a bad selector.
//
// Implementations: TCP, MPICH2, GridMPI, MPICH-Madeleine, OpenMPI,
// MPICH-G2.
#include <algorithm>
#include <cinttypes>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "collectives/guidelines.hpp"
#include "collectives/registry.hpp"
#include "collectives/selector.hpp"
#include "harness/campaign.hpp"
#include "profiles/profiles.hpp"
#include "scenarios/catalog.hpp"
#include "simmc/mc.hpp"
#include "tools/bench.hpp"
#include "tools/cli.hpp"

namespace {

using namespace gridsim;
using cli::OptionParser;

/// Exit status shared by every subcommand after OptionParser::parse.
bool parse_or_exit(const OptionParser& parser, int argc, char** argv,
                   int* status) {
  switch (parser.parse(argc, argv)) {
    case OptionParser::Result::kOk:
      return true;
    case OptionParser::Result::kHelp:
      *status = 0;
      return false;
    case OptionParser::Result::kError:
      break;
  }
  *status = 2;
  return false;
}

mpi::ImplProfile impl_by_name(const std::string& name) {
  if (name == "TCP") return profiles::raw_tcp();
  if (name == "MPICH-G2") return profiles::mpich_g2();
  for (const auto& p : profiles::all_implementations())
    if (p.name == name) return p;
  std::fprintf(stderr,
               "unknown implementation '%s' (TCP, MPICH2, GridMPI, "
               "MPICH-Madeleine, OpenMPI, MPICH-G2)\n",
               name.c_str());
  std::exit(2);
}

int cmd_bench(int argc, char** argv) {
  bool quick = false;
  std::string out_dir = ".";
  int reps = 3;
  OptionParser parser(
      "bench",
      "Engine micro-benchmarks, written as BENCH_micro.json.");
  parser.flag("quick", &quick, "shrink workloads for CI smoke runs")
      .string_opt("out", &out_dir, "output directory")
      .int_opt("reps", &reps, "repetitions (best by events/sec)");
  int status = 0;
  if (!parse_or_exit(parser, argc, argv, &status)) return status;
  reps = std::max(1, reps);

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);  // best effort; fopen
                                                     // reports real failures

  const auto micro = bench::run_micro_suite(quick, reps);
  std::printf("# micro-sim (best of reps, by events/sec)\n");
  for (const auto& r : micro) {
    std::printf(
        "%-20s %12llu events  %8.3f s  %12.0f ev/s  peak depth %llu  "
        "heap payloads %llu  pool misses %llu  %s\n",
        r.name.c_str(), static_cast<unsigned long long>(r.events), r.wall_s,
        r.events_per_sec, static_cast<unsigned long long>(r.peak_queue_depth),
        static_cast<unsigned long long>(r.heap_payloads),
        static_cast<unsigned long long>(r.pool_misses), r.note.c_str());
  }
  const std::string micro_path = out_dir + "/BENCH_micro.json";
  if (!bench::write_bench_json(micro_path, quick, micro)) {
    std::fprintf(stderr, "error: cannot write %s\n", micro_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", micro_path.c_str());
  return 0;
}

int cmd_campaign(int argc, char** argv) {
  std::string filter = "*", out_dir = ".";
  int jobs = 0;
  std::uint64_t seed = 1;
  double timeout_s = 0;
  bool render = false, list = false;
  OptionParser parser(
      "campaign",
      "Run the paper's experiment catalog concurrently; write CAMPAIGN.json.\n"
      "Per-scenario trace digests are independent of --jobs.");
  parser.string_opt("filter", &filter,
                    "glob over scenario names and groups ('table4*', 'fig?')")
      .int_opt("jobs", &jobs, "worker threads; 0 = hardware concurrency")
      .string_opt("out", &out_dir, "output directory for CAMPAIGN.json")
      .u64_opt("seed", &seed, "seed folded into every scenario digest")
      .real_opt("timeout-s", &timeout_s,
                "per-scenario wall-clock watchdog in seconds; 0 = none")
      .flag("render", &render, "print each group's figure/table after the run")
      .flag("list", &list, "list matching scenarios and exit");
  int status = 0;
  if (!parse_or_exit(parser, argc, argv, &status)) return status;

  const auto& registry = scenarios::paper_registry();
  const auto selected = registry.match(filter);
  if (selected.empty()) {
    std::fprintf(stderr, "no scenario matches '%s'\n", filter.c_str());
    return 2;
  }
  if (list) {
    for (std::size_t idx : selected) {
      const auto& spec = registry.scenarios()[idx];
      std::printf("%-40s %s\n", spec.name.c_str(), spec.description.c_str());
    }
    std::printf("%zu scenarios\n", selected.size());
    return 0;
  }

  harness::CampaignOptions options;
  options.filter = filter;
  options.jobs = jobs;
  options.seed = seed;
  options.timeout_s = timeout_s;
  const std::size_t total = selected.size();
  std::size_t done = 0;
  // The campaign runner serializes progress callbacks, so the counter and
  // stdout need no further locking.
  const auto progress = [&done, total](const harness::ScenarioOutcome& o) {
    ++done;
    if (o.ok) {
      std::printf("[%3zu/%zu] %-40s ok    digest=%016" PRIx64 " %.2fs\n",
                  done, total, o.name.c_str(), o.digest, o.wall_s);
    } else {
      std::printf("[%3zu/%zu] %-40s %s  %s\n", done, total, o.name.c_str(),
                  o.status == "timeout" ? "TIMEOUT" : "FAIL", o.error.c_str());
    }
    std::fflush(stdout);
  };
  const auto report = harness::run_campaign(registry, options, progress);

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const std::string json_path = out_dir + "/CAMPAIGN.json";
  if (!harness::write_campaign_json(json_path, report)) {
    std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
    return 1;
  }

  if (render) {
    std::vector<std::string> seen;
    for (const auto& outcome : report.outcomes) {
      if (std::find(seen.begin(), seen.end(), outcome.group) != seen.end())
        continue;
      seen.push_back(outcome.group);
      std::fputs(
          harness::render_group(registry, outcome.group, report).c_str(),
          stdout);
    }
  }

  std::printf("campaign: %zu scenarios, %zu failed, jobs=%d, %.2fs; wrote %s\n",
              report.outcomes.size(), report.failures(), report.jobs,
              report.wall_s, json_path.c_str());
  return report.failures() == 0 ? 0 : 1;
}

int cmd_mc(int argc, char** argv) {
  std::string filter = "mc/*", out_dir = ".";
  int max_execs = 64, ranks_cap = 8, minimize_budget = 32;
  std::uint64_t seed = 1;
  bool list = false, no_hb = false;
  OptionParser parser(
      "mc",
      "DPOR-lite ordering model-checker: explore every legal wildcard\n"
      "matching order of each matched scenario; assert no interleaving\n"
      "deadlocks or changes the result digest. Writes MC.json and, for a\n"
      "found deadlock, a minimized witness file for `gridsim replay`.");
  parser.string_opt("scenario", &filter,
                    "glob over scenario names and groups (default 'mc/*')")
      .int_opt("max-execs", &max_execs, "execution budget per scenario")
      .int_opt("ranks-cap", &ranks_cap,
               "skip scenarios with more (or undeclared) ranks")
      .int_opt("minimize-budget", &minimize_budget,
               "extra executions allowed for witness minimization")
      .u64_opt("seed", &seed, "scenario seed used for every execution")
      .string_opt("out", &out_dir,
                  "output directory for MC.json and witness files")
      .flag("no-hb", &no_hb,
            "disable the happens-before persistent-set reduction")
      .flag("list", &list, "list matching scenarios and exit");
  int status = 0;
  if (!parse_or_exit(parser, argc, argv, &status)) return status;

  const auto& registry = scenarios::paper_registry();
  const auto selected = registry.match(filter);
  if (selected.empty()) {
    std::fprintf(stderr, "no scenario matches '%s'\n", filter.c_str());
    return 2;
  }
  if (list) {
    for (std::size_t idx : selected) {
      const auto& spec = registry.scenarios()[idx];
      std::printf("%-40s ranks=%d  %s\n", spec.name.c_str(), spec.ranks,
                  spec.description.c_str());
    }
    std::printf("%zu scenarios\n", selected.size());
    return 0;
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);

  simmc::McOptions mc_options;
  mc_options.max_execs = max_execs;
  mc_options.seed = seed;
  mc_options.minimize_budget = minimize_budget;
  mc_options.hb_sets = !no_hb;

  std::vector<simmc::McReport> reports;
  std::size_t done = 0;
  for (std::size_t idx : selected) {
    const auto& spec = registry.scenarios()[idx];
    ++done;
    if (spec.ranks <= 0 || spec.ranks > ranks_cap) {
      simmc::McReport rep;
      rep.scenario = spec.name;
      rep.status = "skipped";
      rep.detail = spec.ranks <= 0
                       ? "scenario declares no rank count"
                       : std::to_string(spec.ranks) + " ranks > cap " +
                             std::to_string(ranks_cap);
      std::printf("[%3zu/%zu] %-40s skipped (%s)\n", done, selected.size(),
                  spec.name.c_str(), rep.detail.c_str());
      reports.push_back(std::move(rep));
      continue;
    }
    simmc::McReport rep = simmc::explore(spec, mc_options);
    if (rep.status == "deadlock") {
      std::string fname = spec.name;
      std::replace(fname.begin(), fname.end(), '/', '-');
      const std::string wpath = out_dir + "/" + fname + ".witness";
      if (rep.witness.save(wpath)) {
        rep.witness_path = wpath;
      } else {
        std::fprintf(stderr, "error: cannot write witness %s\n",
                     wpath.c_str());
      }
    }
    std::printf("[%3zu/%zu] %-40s %-17s execs=%-4d races=%-2d pruned=%-3d "
                "hb_pruned=%-3d %s\n",
                done, selected.size(), spec.name.c_str(), rep.status.c_str(),
                rep.executions, rep.race_points, rep.pruned, rep.hb_pruned,
                rep.detail.c_str());
    std::fflush(stdout);
    reports.push_back(std::move(rep));
  }

  const std::string json_path = out_dir + "/MC.json";
  if (!simmc::write_mc_json(json_path, filter, mc_options, ranks_cap,
                            reports)) {
    std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::size_t failures = 0;
  for (const auto& rep : reports)
    if (!rep.ok()) ++failures;
  std::printf("mc: %zu scenarios, %zu failed; wrote %s\n", reports.size(),
              failures, json_path.c_str());
  return failures == 0 ? 0 : 1;
}

/// One row of the `coll --list` decision table.
void print_rules(const mpi::CollectiveSuite& suite, mpi::CollOp op) {
  for (const auto& r : coll::Selector::effective_rules(suite, op)) {
    std::string bytes_band = "any size";
    const bool has_min = r.min_bytes > 0;
    const bool has_max = r.max_bytes < 1e18;
    if (has_min || has_max) {
      bytes_band =
          (has_min ? std::to_string(static_cast<long long>(r.min_bytes))
                   : std::string("0")) +
          ".." +
          (has_max ? std::to_string(static_cast<long long>(r.max_bytes))
                   : std::string("inf")) +
          " B";
    }
    std::string extras;
    if (r.min_ranks > 0 || r.max_ranks < INT_MAX)
      extras += "  ranks " + std::to_string(r.min_ranks) + ".." +
                (r.max_ranks < INT_MAX ? std::to_string(r.max_ranks) : "inf");
    if (r.topo != mpi::TopoScope::kAny)
      extras += std::string("  [") + mpi::to_string(r.topo) + "]";
    std::printf("    %-9s -> %-18s %s%s\n", mpi::to_string(r.op).c_str(),
                r.algo.c_str(), bytes_band.c_str(), extras.c_str());
  }
}

int cmd_coll(int argc, char** argv) {
  std::string impl_name = "all", out_path;
  bool list = false, verify = false, quick = false, misrule = false;
  OptionParser parser(
      "coll",
      "Collective-algorithm registry and selector guideline verifier.\n"
      "--list prints the registered algorithms and each implementation's\n"
      "decision table; --verify sweeps profile x size x topology and flags\n"
      "self-contradictory selections (composition and size-monotonicity\n"
      "guidelines, docs/collectives.md). Exits non-zero on any violation.");
  parser.flag("list", &list, "print the registry and decision tables")
      .flag("verify", &verify, "run the guideline sweep")
      .string_opt("impl", &impl_name, "implementation name, or 'all'")
      .flag("quick", &quick, "two probe sizes instead of three (CI smoke)")
      .flag("misrule", &misrule,
            "swap in the deliberately inverted bcast rule table (the\n"
            "negative fixture: --verify must then FAIL on the grid)")
      .string_opt("json", &out_path,
                  "write a consolidated gridsim-coll/1 report to this path");
  int status = 0;
  if (!parse_or_exit(parser, argc, argv, &status)) return status;
  if (!verify) list = true;  // default action

  std::vector<mpi::ImplProfile> impls;
  if (impl_name == "all") {
    impls = profiles::all_implementations();
  } else {
    impls.push_back(impl_by_name(impl_name));
  }
  if (misrule)
    for (auto& impl : impls)
      impl.collectives.selector = coll::misruled_selector();

  if (list) {
    const auto& reg = coll::AlgorithmRegistry::instance();
    std::printf("# registered algorithms\n");
    const auto print_entry = [](const char* op, const auto& a) {
      std::string name = a.name;
      for (const auto& alias : a.aliases) name += " (alias: " + alias + ")";
      std::printf("  %-9s %-32s %s%s\n", op, name.c_str(),
                  a.wan_aware ? "[wan-aware] " : "", a.description.c_str());
    };
    for (const auto& a : reg.bcast()) print_entry("bcast", a);
    for (const auto& a : reg.allreduce()) print_entry("allreduce", a);
    for (const auto& a : reg.alltoall()) print_entry("alltoall", a);
    for (const auto& a : reg.barrier()) print_entry("barrier", a);
    for (const auto& impl : impls) {
      std::printf("\n# decision table: %s%s (first match wins)\n",
                  impl.name.c_str(), misrule ? " [misruled]" : "");
      for (auto op : {mpi::CollOp::kBcast, mpi::CollOp::kAllreduce,
                      mpi::CollOp::kAlltoall, mpi::CollOp::kBarrier})
        print_rules(impl.collectives, op);
    }
  }

  if (!verify) return 0;

  coll::GuidelineReport all;
  // Deployments: one cluster, the 8+8 grid with block placement, and the
  // same grid with ranks interleaved across sites — the adversarial order
  // where rank-ordered algorithms cross the WAN on ~every step.
  const std::vector<std::tuple<std::string, topo::GridSpec, bool>>
      deployments = {
          {"cluster", topo::GridSpec::single_cluster(16), false},
          {"grid", topo::GridSpec::rennes_nancy(8), false},
          {"grid-cyclic", topo::GridSpec::rennes_nancy(8), true}};
  for (const auto& impl : impls) {
    const profiles::ExperimentConfig cfg =
        profiles::experiment(impl).tuning(profiles::TuningLevel::kTcpTuned);
    for (const auto& [label, spec, cyclic] : deployments) {
      coll::GuidelineOptions opt;
      if (quick) opt.sizes = {1e3, 64e3};
      opt.cyclic = cyclic;
      const coll::GuidelineReport rep = coll::verify_guidelines(
          spec, label, cfg.profile, cfg.kernel, opt);
      std::printf("coll verify %-16s %-8s %2zu cells, %d violation(s)\n",
                  impl.name.c_str(), label.c_str(), rep.cells.size(),
                  rep.violations());
      for (const auto& c : rep.cells)
        if (c.violated)
          std::printf("    VIOLATION %-32s %8.0f B  ratio %.2f > %.2f  (%s)\n",
                      c.guideline.c_str(), c.bytes, c.ratio, c.tolerance,
                      c.detail.c_str());
      all.cells.insert(all.cells.end(), rep.cells.begin(), rep.cells.end());
    }
  }

  if (!out_path.empty()) {
    if (!coll::write_coll_json(out_path, all)) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("coll: wrote %s\n", out_path.c_str());
  }
  std::printf("coll: %zu cells, %d violation(s)\n", all.cells.size(),
              all.violations());
  return all.violations() == 0 ? 0 : 1;
}

int cmd_replay(int argc, char** argv) {
  std::string witness_path;
  int reps = 2;
  OptionParser parser(
      "replay",
      "Re-execute a model-checker deadlock witness. Exits 0 only if every\n"
      "replay deadlocks with an identical blocked report.");
  parser.string_opt("witness", &witness_path,
                    "witness file written by `gridsim mc`")
      .int_opt("reps", &reps, "number of replays to compare");
  int status = 0;
  if (!parse_or_exit(parser, argc, argv, &status)) return status;
  if (witness_path.empty()) {
    std::fprintf(stderr, "replay: --witness FILE is required\n");
    return 2;
  }
  reps = std::max(1, reps);

  simmc::Witness witness;
  std::string error;
  if (!simmc::Witness::load(witness_path, &witness, &error)) {
    std::fprintf(stderr, "replay: %s\n", error.c_str());
    return 2;
  }
  const auto* spec = scenarios::paper_registry().find(witness.scenario);
  if (spec == nullptr) {
    std::fprintf(stderr, "replay: unknown scenario '%s'\n",
                 witness.scenario.c_str());
    return 2;
  }

  std::printf("replay: %s, seed=%" PRIu64 ", %zu forced choice(s)\n",
              witness.scenario.c_str(), witness.seed,
              witness.choices.size());
  std::vector<std::string> first_blocked;
  for (int rep = 0; rep < reps; ++rep) {
    const simmc::ExecutionRecord rec =
        simmc::run_scripted(*spec, witness.choices, witness.seed);
    if (rec.failed) {
      std::fprintf(stderr, "replay %d: execution failed: %s\n", rep + 1,
                   rec.error.c_str());
      return 1;
    }
    if (!rec.deadlocked) {
      std::fprintf(stderr,
                   "replay %d: completed WITHOUT deadlocking — the witness "
                   "does not reproduce\n",
                   rep + 1);
      return 1;
    }
    if (rep == 0) {
      first_blocked = rec.blocked;
      for (const auto& line : rec.blocked)
        std::printf("  %s\n", line.c_str());
    } else if (rec.blocked != first_blocked) {
      std::fprintf(stderr,
                   "replay %d: deadlocked with a DIFFERENT blocked report — "
                   "replay is not deterministic\n",
                   rep + 1);
      return 1;
    }
  }
  std::printf("replay: deadlock reproduced identically %d/%d times\n", reps,
              reps);
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: gridsim <command> [--options]\n"
      "commands:\n"
      "  bench      engine micro-benchmarks -> BENCH_micro.json\n"
      "  campaign   parallel experiment campaign -> CAMPAIGN.json\n"
      "  mc         ordering model-checker over wildcard matches -> MC.json\n"
      "  coll       collective-algorithm registry + guideline verifier\n"
      "  replay     re-execute a model-checker deadlock witness\n"
      "run 'gridsim <command> --help' for the command's options\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const int opt_argc = argc - 2;
  char** opt_argv = argv + 2;
  try {
    if (command == "bench") return cmd_bench(opt_argc, opt_argv);
    if (command == "campaign") return cmd_campaign(opt_argc, opt_argv);
    if (command == "mc") return cmd_mc(opt_argc, opt_argv);
    if (command == "coll") return cmd_coll(opt_argc, opt_argv);
    if (command == "replay") return cmd_replay(opt_argc, opt_argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
