// gridbench: runs one pass of a benchmark workload in this process and
// prints what it measured as one JSON object on stdout.
//
//   gridbench pass  --workload NAME --seed N [--digests 0|1] [--lint 0|1]
//   gridbench setup --workload NAME --seed N
//   gridbench trace --workload NAME --seed N --spans FILE
//
// `pass` is the timed, untraced run: host wall and CPU seconds, set-up time,
// the process's VmHWM, and every output the pins check (per-scenario
// campaign digests and lint counters, or the scale_mg makespan and traffic
// totals). `--digests 0` / `--lint 0` switch the campaign options off, which
// run.py uses to split digest folding and lint recording out of the wall.
//
// `setup` (catalog workloads only) takes a `pass` up to the first
// scenario's start, prints set-up time and skips the cells. Catalog set-up
// is sub-millisecond, so run.py takes several of these per run.
//
// `trace` is the separate traced run. It wraps every call into a layer with
// a span (workload -> scenario -> simulation, plus topology.build,
// mpi.job_build, simcore.run and simlint.analyze), counts what each layer
// did at its public boundary, writes the spans to FILE and prints the
// per-layer metrics. It must be passive: its digests and results are the
// ones `pass` produces, which run.py checks.
//
// Every process runs exactly one workload, so VmHWM is the workload's own.
// The workloads are described in README.md next to this file.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/determinism.hpp"
#include "mpi/comm_log.hpp"
#include "mpi/mpi.hpp"
#include "npb/npb.hpp"
#include "profiles/profiles.hpp"
#include "scenarios/catalog.hpp"
#include "simcore/callback.hpp"
#include "simcore/simulation.hpp"
#include "simlint/lint.hpp"
#include "topology/grid5000.hpp"

namespace {

using namespace gridsim;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Process measurements

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// VmHWM (peak resident set) of this process in MB, from /proc.
double vm_hwm_mb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

// ---------------------------------------------------------------------------
// Workloads

constexpr int kCatalogJobs = 1;

/// Catalog groups of the paper_small workload (103 cells).
const std::vector<std::string> kPaperSmallGroups = {
    "fig3",   "fig5",          "fig6",
    "fig7",   "fig9",          "table4",
    "table5", "table6",        "table7",
    "ablation_buffers",        "ablation_collectives",
    "ablation_pacing",         "ablation_tcp_algo",
    "ext_mpich_g2",            "coll",
    "mc",     "robust",        "lint"};

bool is_catalog(const std::string& workload) {
  return workload == "nas_grid" || workload == "paper_small";
}

/// Registry indices of the workload's catalog cells, in registration order.
std::vector<std::size_t> select_cells(const harness::ScenarioRegistry& reg,
                                      const std::string& workload) {
  std::vector<std::size_t> picked;
  if (workload == "nas_grid") {
    picked = reg.match("fig10");
  } else {
    for (const std::string& group : kPaperSmallGroups) {
      const std::vector<std::size_t> m = reg.match(group);
      if (m.empty()) throw std::runtime_error("no catalog group " + group);
      picked.insert(picked.end(), m.begin(), m.end());
    }
    std::sort(picked.begin(), picked.end());
    picked.erase(std::unique(picked.begin(), picked.end()), picked.end());
  }
  return picked;
}

// scale_mg: NPB MG class S, 256 ranks on each site of a 1024+1024-host
// Rennes--Nancy grid, MPICH2 with TCP-tuned buffers. No lint, no digest.
constexpr int kScaleNodesPerSite = 1024;
constexpr int kScaleRanksPerSite = 256;

Task<void> timed_kernel(mpi::Rank* r, SimTime* finish) {
  co_await npb::run_kernel(*r, npb::Kernel::kMG, npb::Class::kS);
  *finish = r->sim().now();
}

std::vector<net::HostId> scale_placement(const topo::Grid& grid) {
  std::vector<net::HostId> placement;
  for (int site = 0; site < grid.site_count(); ++site) {
    for (int i = 0; i < kScaleRanksPerSite; ++i) {
      placement.push_back(grid.node(site, i));
    }
  }
  return placement;
}

// ---------------------------------------------------------------------------
// Spans (traced run only)

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::string name;
  double start_s = 0;  ///< host seconds since the workload started
  double end_s = 0;
};

/// Thread-safe in-memory span store. Ids are taken when a span opens, so a
/// child can name its parent before the parent closes; records are kept
/// until the run ends and written out then.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  double now() const { return seconds_between(origin_, Clock::now()); }
  std::uint64_t open() { return next_id_.fetch_add(1); }
  void close(std::uint64_t id, std::uint64_t parent, std::string name,
             double start_s) {
    const double end_s = now();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{id, parent, std::move(name), start_s, end_s});
  }
  /// Runs `fn` inside a span and returns its result.
  template <typename Fn>
  auto scoped(std::uint64_t parent, const char* name, Fn&& fn) {
    const std::uint64_t id = open();
    const double t = now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      close(id, parent, name, t);
    } else {
      auto out = fn();
      close(id, parent, name, t);
      return out;
    }
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{1};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Self time per span name: each span's duration minus the union of its
/// children's intervals (children of one parent may overlap when the
/// campaign runs scenarios on two threads).
std::map<std::string, double> self_seconds(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans) children[s.parent].emplace_back(s.start_s, s.end_s);
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    double covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<double, double>> iv = it->second;
      std::sort(iv.begin(), iv.end());
      double lo = iv.front().first, hi = iv.front().second;
      for (const auto& [a, b] : iv) {
        if (a > hi) {
          covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      covered += hi - lo;
    }
    self[s.name] += (s.end_s - s.start_s) - covered;
  }
  return self;
}

/// Summed duration per span name.
std::map<std::string, double> total_seconds(const std::vector<Span>& spans) {
  std::map<std::string, double> total;
  for (const Span& s : spans) total[s.name] += s.end_s - s.start_s;
  return total;
}

void write_spans(const std::string& path, const std::string& workload,
                 const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"id\": %" PRIu64 ", \"parent\": %" PRIu64
                 ", \"name\": \"%s\", \"workload\": \"%s\", "
                 "\"start_s\": %.9f, \"end_s\": %.9f}\n",
                 s.id, s.parent, s.name.c_str(), workload.c_str(), s.start_s,
                 s.end_s);
  }
  std::fclose(f);
}

/// Layer counters observed at the public boundaries during the traced run.
struct LayerCounts {
  std::uint64_t events = 0;
  std::uint64_t peak_queue_depth = 0;
  std::uint64_t callback_heap_payloads = 0;
  std::uint64_t simulations = 0;
  std::uint64_t trace_events = 0;
  std::array<std::uint64_t, static_cast<std::size_t>(TraceKind::kKindCount)>
      kinds{};

  void add(const LayerCounts& o) {
    events += o.events;
    peak_queue_depth = std::max(peak_queue_depth, o.peak_queue_depth);
    callback_heap_payloads += o.callback_heap_payloads;
    simulations += o.simulations;
    trace_events += o.trace_events;
    for (std::size_t k = 0; k < kinds.size(); ++k) kinds[k] += o.kinds[k];
  }
  std::uint64_t kind(TraceKind k) const {
    return kinds[static_cast<std::size_t>(k)];
  }
};

/// State of one traced scenario (or of the scale_mg run). The hooks point
/// into it, so it must outlive every simulation it observes.
struct TracedRun {
  SpanLog* spans = nullptr;
  std::uint64_t span = 0;  ///< parent of the simulation spans
  bool digest = false;     ///< fold the campaign digest (catalog cells)
  std::uint64_t digest_value = 0;
  LayerCounts counts;
  // Per-simulation scratch (simulations of one scenario run sequentially).
  std::uint64_t sim_span = 0;
  double sim_start_s = 0;
  std::uint64_t heap_payloads_at_start = 0;
};

/// The campaign's per-scenario digest basis (seed, then the name).
std::uint64_t digest_basis(std::uint64_t seed, const std::string& name) {
  std::uint64_t h = 0xCBF29CE484222325ULL ^ seed;
  for (const char c : name) harness::fold_digest(h, static_cast<unsigned char>(c));
  return h;
}

/// Hooks of the traced run. They enable every trace category with storage
/// off — exactly what the campaign's digest hooks do — and fold each event
/// into the same digest while counting events per kind, so the traced run
/// reproduces the untraced digests by construction of the fold, not by
/// sharing the campaign's state.
SimHooks traced_hooks(TracedRun* run) {
  SimHooks hooks;
  hooks.on_start = [run](Simulation& sim) {
    run->sim_span = run->spans->open();
    run->sim_start_s = run->spans->now();
    run->heap_payloads_at_start = callback_stats().heap_payloads;
    Tracer& tracer = sim.tracer();
    for (std::uint8_t k = 0;
         k < static_cast<std::uint8_t>(TraceKind::kKindCount); ++k) {
      tracer.enable(static_cast<TraceKind>(k));
    }
    tracer.set_storage(false);
    tracer.set_observer([run](const TraceEvent& e) {
      if (run->digest) harness::fold_trace_event(run->digest_value, e);
      ++run->counts.trace_events;
      ++run->counts.kinds[static_cast<std::size_t>(e.kind)];
    });
  };
  hooks.on_finish = [run](Simulation& sim) {
    if (run->digest) {
      harness::fold_digest(run->digest_value, sim.events_processed());
      harness::fold_digest(run->digest_value,
                           static_cast<std::uint64_t>(sim.now()));
    }
    LayerCounts& c = run->counts;
    c.events += sim.events_processed();
    c.peak_queue_depth = std::max<std::uint64_t>(c.peak_queue_depth,
                                                 sim.peak_queue_depth());
    c.callback_heap_payloads +=
        callback_stats().heap_payloads - run->heap_payloads_at_start;
    ++c.simulations;
    run->spans->close(run->sim_span, run->span, "simulation", run->sim_start_s);
  };
  return hooks;
}

// ---------------------------------------------------------------------------
// Output

/// Minimal JSON object writer: keys in insertion order, numbers printed
/// with full precision.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  Json& count(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      if (static_cast<unsigned char>(c) < 0x20) {
        quoted += ' ';
        continue;
      }
      quoted += c;
    }
    return raw(key, quoted + "\"");
  }
  Json& raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + v;
    return *this;
  }
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? ", " : "") + items[i];
  }
  return out + "]";
}

/// One checked output of a catalog cell.
std::string cell_json(const std::string& name, const std::string& status,
                      const std::string& error, std::uint64_t digest,
                      std::uint64_t hb_edges, int races) {
  return Json()
      .str("name", name)
      .str("status", status)
      .str("error", error)
      .str("digest", hex64(digest))
      .count("hb_edges", hb_edges)
      .raw("races", std::to_string(races))
      .dump();
}

struct ScaleResult {
  SimTime makespan = 0;
  mpi::TrafficStats traffic;
};

std::string scale_json(const ScaleResult& r) {
  const mpi::TrafficStats& t = r.traffic;
  return Json()
      .str("name", "scale_mg")
      .str("status", "ok")
      .str("error", "")
      .raw("makespan_ns", std::to_string(r.makespan))
      .count("p2p_messages", t.p2p_messages)
      .num("p2p_bytes", t.p2p_bytes)
      .count("collective_messages", t.collective_messages)
      .num("collective_bytes", t.collective_bytes)
      .count("control_messages", t.control_messages)
      .dump();
}

// ---------------------------------------------------------------------------
// Untraced pass

struct Options {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  bool digests = true;
  bool lint = true;
  std::string spans_path;
};

int run_pass(const Options& opt) {
  const Clock::time_point t0 = Clock::now();
  const double cpu0 = cpu_seconds();
  double setup_s = 0;
  std::vector<std::string> results;

  if (is_catalog(opt.workload)) {
    const harness::ScenarioRegistry& catalog = scenarios::paper_registry();
    // The cells run unchanged; the wrapper only stamps the first start.
    const bool setup_only = opt.mode == "setup";
    std::atomic<bool> started{false};
    std::atomic<std::int64_t> first_start_ns{0};
    harness::ScenarioRegistry cells;
    for (const std::size_t i : select_cells(catalog, opt.workload)) {
      harness::ScenarioSpec spec = catalog.scenarios()[i];
      spec.run = [inner = spec.run, &started, &first_start_ns, setup_only,
                  t0](const harness::ScenarioContext& ctx) {
        if (!started.exchange(true)) {
          first_start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               Clock::now() - t0)
                               .count();
        }
        return setup_only ? harness::ScenarioResult{} : inner(ctx);
      };
      cells.add(std::move(spec));
    }
    harness::CampaignOptions options;
    options.jobs = kCatalogJobs;
    options.seed = opt.seed;
    options.digests = opt.digests;
    options.lint = opt.lint;
    const harness::CampaignReport report = harness::run_campaign(cells, options);
    setup_s = static_cast<double>(first_start_ns.load()) * 1e-9;
    if (setup_only) {
      std::printf("%s\n", Json().num("setup_s", setup_s).dump().c_str());
      return 0;
    }
    for (const harness::ScenarioOutcome& o : report.outcomes) {
      results.push_back(
          cell_json(o.name, o.status, o.error, o.digest, o.hb_edges, o.races));
    }
  } else {
    const profiles::ExperimentConfig cfg =
        profiles::experiment(profiles::mpich2())
            .tuning(profiles::TuningLevel::kTcpTuned);
    Simulation sim;
    topo::Grid grid(sim, topo::GridSpec::rennes_nancy(kScaleNodesPerSite));
    mpi::Job job(grid, scale_placement(grid), cfg.profile, cfg.kernel);
    std::vector<SimTime> finish(static_cast<std::size_t>(job.size()), 0);
    for (int r = 0; r < job.size(); ++r) {
      sim.spawn(timed_kernel(&job.rank(r), &finish[static_cast<std::size_t>(r)]));
    }
    setup_s = seconds_between(t0, Clock::now());
    sim.run();
    if (sim.live_processes() != 0) throw std::runtime_error("scale_mg deadlocked");
    ScaleResult r;
    r.makespan = *std::max_element(finish.begin(), finish.end());
    r.traffic = job.traffic();
    results.push_back(scale_json(r));
  }

  const double wall_s = seconds_between(t0, Clock::now());
  const double cpu_s = cpu_seconds() - cpu0;
  std::printf("%s\n", Json()
                          .str("workload", opt.workload)
                          .count("seed", opt.seed)
                          .num("wall_s", wall_s)
                          .num("cpu_s", cpu_s)
                          .num("setup_s", setup_s)
                          .num("peak_rss_mb", vm_hwm_mb())
                          .raw("results", json_list(results))
                          .dump()
                          .c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Traced pass

/// Counts the traced run reports; its times come from the spans.
struct LayerReport {
  LayerCounts counts;
  std::uint64_t scenarios = 0;
  std::uint64_t hb_edges = 0;
  std::uint64_t races = 0;
  std::uint64_t comm_events = 0;
  std::uint64_t wildcard_recvs = 0;
  // scale_mg only
  std::uint64_t hosts = 0;
  double topology_rss_mb = 0;
  mpi::TrafficStats traffic;
  net::maxmin::SolverStats solver;
};

/// One traced catalog cell: its outputs plus what its layers did.
struct TracedCell {
  TracedRun run;
  simlint::LintSummary lint;
  std::uint64_t comm_events = 0;
  std::uint64_t wildcard_recvs = 0;
};

void trace_catalog(const Options& opt, SpanLog& spans, std::uint64_t root,
                   LayerReport& rep, std::vector<std::string>& results) {
  const harness::ScenarioRegistry& catalog = *spans.scoped(
      root, "harness.registry", [] { return &scenarios::paper_registry(); });
  const std::vector<std::size_t> picked = select_cells(catalog, opt.workload);
  std::vector<TracedCell> cells(picked.size());
  harness::ScenarioRegistry wrapped;
  for (std::size_t slot = 0; slot < picked.size(); ++slot) {
    harness::ScenarioSpec spec = catalog.scenarios()[picked[slot]];
    TracedCell* cell = &cells[slot];
    cell->run.spans = &spans;
    cell->run.digest = true;
    cell->run.digest_value = digest_basis(opt.seed, spec.name);
    spec.run = [inner = spec.run, cell, &spans,
                root](const harness::ScenarioContext& ctx) {
      harness::ScenarioContext traced = ctx;
      traced.hooks = traced_hooks(&cell->run);
      // The comm log is recorded here instead of by the campaign (which
      // runs with lint off), so its analysis can get its own span.
      mpi::CommLog log;
      harness::ScenarioResult result;
      {
        const mpi::ScopedCommLog scope(&log);
        cell->run.span = spans.open();
        const double t = spans.now();
        result = inner(traced);
        spans.close(cell->run.span, root, "scenario", t);
      }
      cell->lint = spans.scoped(root, "simlint.analyze", [&] {
        return simlint::analyze(log, /*max_findings=*/0);
      });
      for (const mpi::JobCommTrace& job : log.jobs()) {
        cell->comm_events += job.events.size();
        for (const mpi::CommEvent& e : job.events) {
          if (e.kind == mpi::CommEventKind::kRecvPost &&
              (e.want_src == mpi::kAnySource || e.want_tag == mpi::kAnyTag)) {
            ++cell->wildcard_recvs;
          }
        }
      }
      return result;
    };
    wrapped.add(std::move(spec));
  }

  harness::CampaignOptions options;
  options.jobs = kCatalogJobs;
  options.seed = opt.seed;
  options.digests = false;  // the traced hooks fold the digest themselves
  options.lint = false;     // recorded and analyzed by the wrapper above
  const harness::CampaignReport report = harness::run_campaign(wrapped, options);

  for (std::size_t slot = 0; slot < cells.size(); ++slot) {
    const harness::ScenarioOutcome& o = report.outcomes[slot];
    const TracedCell& c = cells[slot];
    rep.counts.add(c.run.counts);
    ++rep.scenarios;
    rep.hb_edges += c.lint.hb_edges;
    rep.races += static_cast<std::uint64_t>(c.lint.races);
    rep.comm_events += c.comm_events;
    rep.wildcard_recvs += c.wildcard_recvs;
    results.push_back(cell_json(o.name, o.status, o.error,
                                o.ok ? c.run.digest_value : 0,
                                o.ok ? c.lint.hb_edges : 0,
                                o.ok ? c.lint.races : 0));
  }
}

void trace_scale(SpanLog& spans, std::uint64_t root, LayerReport& rep,
                 std::vector<std::string>& results) {
  const profiles::ExperimentConfig cfg =
      profiles::experiment(profiles::mpich2())
          .tuning(profiles::TuningLevel::kTcpTuned);
  TracedRun run;
  run.spans = &spans;
  run.span = root;
  const SimHooks hooks = traced_hooks(&run);

  Simulation sim;
  hooks.on_start(sim);
  const std::uint64_t sim_span = run.sim_span;
  const double rss0 = vm_hwm_mb();
  const auto grid = spans.scoped(sim_span, "topology.build", [&] {
    return std::make_unique<topo::Grid>(
        sim, topo::GridSpec::rennes_nancy(kScaleNodesPerSite));
  });
  rep.topology_rss_mb = vm_hwm_mb() - rss0;
  rep.hosts = static_cast<std::uint64_t>(grid->network().host_count());

  const auto job = spans.scoped(sim_span, "mpi.job_build", [&] {
    return std::make_unique<mpi::Job>(*grid, scale_placement(*grid),
                                      cfg.profile, cfg.kernel);
  });

  std::vector<SimTime> finish(static_cast<std::size_t>(job->size()), 0);
  for (int r = 0; r < job->size(); ++r) {
    sim.spawn(timed_kernel(&job->rank(r), &finish[static_cast<std::size_t>(r)]));
  }
  spans.scoped(sim_span, "simcore.run", [&] { sim.run(); });
  if (sim.live_processes() != 0) throw std::runtime_error("scale_mg deadlocked");
  hooks.on_finish(sim);

  ScaleResult r;
  r.makespan = *std::max_element(finish.begin(), finish.end());
  r.traffic = job->traffic();
  results.push_back(scale_json(r));
  rep.counts.add(run.counts);
  rep.traffic = r.traffic;
  rep.solver = grid->network().solver_stats();
}

int run_trace(const Options& opt) {
  const Clock::time_point t0 = Clock::now();
  SpanLog spans(t0);
  LayerReport rep;
  std::vector<std::string> results;

  const std::uint64_t root = spans.open();
  if (is_catalog(opt.workload)) {
    trace_catalog(opt, spans, root, rep, results);
  } else {
    trace_scale(spans, root, rep, results);
  }
  spans.close(root, 0, "workload", 0.0);
  const double wall_s = seconds_between(t0, Clock::now());
  write_spans(opt.spans_path, opt.workload, spans.spans());

  // Layer times are read off the spans; a name with no span reads 0.
  std::map<std::string, double> total = total_seconds(spans.spans());
  std::map<std::string, double> self = self_seconds(spans.spans());
  Json self_json;
  for (const auto& [name, s] : self) self_json.num(name, s);
  const double sim_s = total["simulation"];
  const LayerCounts& c = rep.counts;
  Json layers;
  layers.count("simcore.events", c.events)
      .num("simcore.sim_span_s", sim_s)
      .num("simcore.events_per_s",
           sim_s > 0 ? static_cast<double>(c.events) / sim_s : 0)
      .count("simcore.peak_queue_depth", c.peak_queue_depth)
      .count("simcore.callback_heap_payloads", c.callback_heap_payloads)
      .num("topology.build_s", total["topology.build"])
      .count("topology.hosts", rep.hosts)
      .num("topology.rss_mb", rep.topology_rss_mb)
      .count("simnet.solves", rep.solver.solves)
      .count("simnet.fast_solves", rep.solver.fast_solves)
      .num("simnet.fast_ratio",
           rep.solver.solves > 0 ? static_cast<double>(rep.solver.fast_solves) /
                                       static_cast<double>(rep.solver.solves)
                                 : 0)
      .count("simnet.peak_component_flows", rep.solver.peak_component_flows)
      .count("simnet.flow_events", c.kind(TraceKind::kFlow))
      .count("simtcp.cwnd_samples", c.kind(TraceKind::kCwnd))
      .count("simtcp.loss_events", c.kind(TraceKind::kLoss))
      .count("simfault.fault_events", c.kind(TraceKind::kFault))
      .num("mpi.job_build_s", total["mpi.job_build"])
      .count("mpi.p2p_messages", rep.traffic.p2p_messages)
      .num("mpi.p2p_bytes", rep.traffic.p2p_bytes)
      .count("mpi.collective_messages", rep.traffic.collective_messages)
      .count("mpi.control_messages", rep.traffic.control_messages)
      .count("mpi.comm_events", rep.comm_events)
      .count("mpi.wildcard_recvs", rep.wildcard_recvs)
      .count("harness.scenarios", rep.scenarios)
      .count("harness.simulations", c.simulations)
      .count("harness.trace_events", c.trace_events)
      .num("harness.scenario_self_s", self["scenario"])
      .num("simlint.analyze_s", total["simlint.analyze"])
      .count("simlint.hb_edges", rep.hb_edges)
      .count("simlint.races", rep.races);


  std::printf("%s\n", Json()
                          .str("workload", opt.workload)
                          .count("seed", opt.seed)
                          .num("wall_s", wall_s)
                          .num("peak_rss_mb", vm_hwm_mb())
                          .raw("layers", layers.dump())
                          .raw("self_s", self_json.dump())
                          .raw("results", json_list(results))
                          .dump()
                          .c_str());
  return 0;
}

// ---------------------------------------------------------------------------

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "gridbench: %s\n"
               "usage: gridbench pass  --workload W --seed N [--digests 0|1] "
               "[--lint 0|1]\n"
               "       gridbench setup --workload W --seed N\n"
               "       gridbench trace --workload W --seed N --spans FILE\n"
               "workloads: nas_grid paper_small scale_mg\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  Options opt;
  opt.mode = argv[1];
  if (opt.mode != "pass" && opt.mode != "setup" && opt.mode != "trace") {
    usage("unknown mode " + opt.mode);
  }
  const auto flag = [](const std::string& v) {
    if (v != "0" && v != "1") usage("expected 0 or 1, got " + v);
    return v == "1";
  };
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      char* end = nullptr;
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("bad seed " + value);
    } else if (key == "--digests") {
      opt.digests = flag(value);
    } else if (key == "--lint") {
      opt.lint = flag(value);
    } else if (key == "--spans") {
      opt.spans_path = value;
    } else {
      usage("unknown option " + key);
    }
  }
  if (!is_catalog(opt.workload) && opt.workload != "scale_mg") {
    usage("unknown workload '" + opt.workload + "'");
  }
  if (opt.mode == "trace" && opt.spans_path.empty()) usage("trace needs --spans");
  if (opt.mode == "setup" && !is_catalog(opt.workload)) {
    usage("setup takes a catalog workload");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    return opt.mode == "trace" ? run_trace(opt) : run_pass(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gridbench: %s\n", e.what());
    return 1;
  }
}
