// gridsim — command-line driver for the simulator.
//
//   gridsim bench     [--quick] [--out DIR] [--reps N]
//   gridsim campaign  [--filter GLOB] [--jobs N] [--out DIR] [--seed N]
//                     [--timeout-s N] [--render] [--list]
//   gridsim mc        [--scenario GLOB] [--max-execs N] [--ranks-cap K]
//                     [--seed N] [--out DIR] [--no-hb] [--list]
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
// The collective-algorithm layer's guideline sweep and decision tables are
// the `coll/*` campaign group: `campaign --filter 'coll/*' --render`.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "harness/campaign.hpp"
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
    if (command == "replay") return cmd_replay(opt_argc, opt_argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
