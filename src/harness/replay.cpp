#include "harness/replay.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "mpi/run_job.hpp"
#include "simcore/simulation.hpp"

namespace gridsim::harness {

void CommTrace::save(std::ostream& out) const {
  out << "gridsim-trace 1 " << nranks << ' ' << messages.size() << '\n';
  for (const auto& m : messages)
    out << m.at << ' ' << m.src << ' ' << m.dst << ' ' << m.bytes << ' '
        << m.tag << '\n';
}

CommTrace CommTrace::load(std::istream& in) {
  std::string magic;
  int version = 0;
  std::size_t count = 0;
  CommTrace t;
  in >> magic >> version >> t.nranks >> count;
  if (magic != "gridsim-trace" || version != 1 || !in)
    throw std::invalid_argument("not a gridsim-trace v1 stream");
  if (t.nranks <= 0)
    throw std::invalid_argument("gridsim-trace needs at least one rank");
  // The header count is untrusted: the vector grows only as records parse.
  for (std::size_t i = 0; i < count; ++i) {
    RecordedMessage m;
    in >> m.at >> m.src >> m.dst >> m.bytes >> m.tag;
    if (!in) throw std::invalid_argument("truncated gridsim-trace stream");
    if (m.src < 0 || m.src >= t.nranks || m.dst < 0 || m.dst >= t.nranks)
      throw std::invalid_argument("gridsim-trace record " +
                                  std::to_string(i) + ": rank out of range");
    if (!std::isfinite(m.bytes) || m.bytes < 0)
      throw std::invalid_argument("gridsim-trace record " +
                                  std::to_string(i) + ": bad byte count");
    if (m.tag < 0)
      throw std::invalid_argument("gridsim-trace record " +
                                  std::to_string(i) + ": negative tag");
    t.messages.push_back(m);
  }
  return t;
}

CommTrace record_npb(const topo::GridSpec& spec, int nranks, npb::Kernel k,
                     npb::Class c, const profiles::ExperimentConfig& cfg) {
  npb::validate_ranks(k, nranks);
  CommTrace trace;
  trace.nranks = nranks;
  mpi::run_job(
      spec,
      [nranks](auto& grid) { return mpi::block_placement(grid, nranks); },
      cfg.profile, cfg.kernel, cfg.faults,
      [&trace, k, c](mpi::Rank& r) {
        // Rank 0 starts first, before any rank has sent a payload.
        if (r.rank() == 0)
          r.job().set_message_recorder([&trace](SimTime at, int src, int dst,
                                                double bytes, int tag) {
            trace.messages.push_back(RecordedMessage{at, src, dst, bytes, tag});
          });
        return npb::run_kernel(r, k, c);
      });
  std::stable_sort(trace.messages.begin(), trace.messages.end(),
                   [](const RecordedMessage& a, const RecordedMessage& b) {
                     return a.at < b.at;
                   });
  return trace;
}

namespace {

struct ReplayPlan {
  // Per rank: the messages it sends, in timestamp order.
  std::vector<std::vector<RecordedMessage>> sends;
  // Per rank: (src, tag) of every message it receives, in send order.
  std::vector<std::vector<RecordedMessage>> recvs;
};

ReplayPlan build_plan(const CommTrace& trace) {
  ReplayPlan plan;
  plan.sends.resize(static_cast<size_t>(trace.nranks));
  plan.recvs.resize(static_cast<size_t>(trace.nranks));
  for (const auto& m : trace.messages) {
    if (m.src < 0 || m.src >= trace.nranks || m.dst < 0 ||
        m.dst >= trace.nranks)
      throw std::invalid_argument("trace rank out of range");
    plan.sends[static_cast<size_t>(m.src)].push_back(m);
    plan.recvs[static_cast<size_t>(m.dst)].push_back(m);
  }
  return plan;
}

Task<void> replay_sender(mpi::Rank* r,
                         const std::vector<RecordedMessage>* sends) {
  SimTime prev = 0;
  for (const auto& m : *sends) {
    // Preserve the recorded compute gap before this send.
    if (m.at > prev) co_await r->sim().delay(m.at - prev);
    prev = std::max(prev, m.at);
    co_await r->send(m.dst, m.bytes, m.tag);
  }
}

Task<void> replay_receiver(mpi::Rank* r,
                           const std::vector<RecordedMessage>* recvs,
                           SimTime* finish) {
  for (const auto& m : *recvs) (void)co_await r->recv(m.src, m.tag);
  *finish = r->sim().now();
}

}  // namespace

ReplayResult replay_trace(const CommTrace& trace, const topo::GridSpec& spec,
                          const profiles::ExperimentConfig& cfg) {
  if (trace.nranks <= 0) throw std::invalid_argument("empty trace");
  const ReplayPlan plan = build_plan(trace);
  // Not mpi::run_job: every rank runs two processes, a sender and a
  // receiver, and only the receiver's finish counts.
  Simulation sim;
  topo::Grid grid(sim, spec);
  const auto faults = topo::install_faults(grid, cfg.faults);
  mpi::Job job(grid, mpi::block_placement(grid, trace.nranks), cfg.profile,
               cfg.kernel);
  std::vector<SimTime> finish(static_cast<size_t>(trace.nranks), 0);
  for (int r = 0; r < trace.nranks; ++r) {
    sim.spawn(replay_sender(&job.rank(r), &plan.sends[static_cast<size_t>(r)]));
    sim.spawn(replay_receiver(&job.rank(r),
                              &plan.recvs[static_cast<size_t>(r)],
                              &finish[static_cast<size_t>(r)]));
  }
  sim.run();
  ReplayResult result;
  result.makespan = *std::max_element(finish.begin(), finish.end());
  return result;
}

}  // namespace gridsim::harness
