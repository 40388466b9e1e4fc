#include "simtcp/packet_sim.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace gridsim::tcp {

namespace {

/// The whole connection state machine; lives for one transfer.
class PacketTcp {
 public:
  PacketTcp(Simulation& sim, double bytes, const PacketSimConfig& cfg)
      : sim_(sim),
        cfg_(cfg),
        total_packets_(static_cast<int>(std::ceil(bytes / cfg.mss))),
        received_(static_cast<size_t>(total_packets_), 0),
        forced_drop_(static_cast<size_t>(total_packets_), 0),
        cwnd_(cfg.initial_window_packets),
        window_limit_(std::max(1.0, cfg.window_limit_bytes / cfg.mss)),
        loss_(cfg.loss) {
    for (int seq : cfg.forced_drops) {
      if (seq >= 0 && seq < total_packets_)
        forced_drop_[static_cast<size_t>(seq)] = 1;
    }
  }

  PacketSimResult run() {
    if (total_packets_ == 0) return result_;
    try_send();
    arm_rto();
    sim_.run();
    result_.completion = done_at_;
    return result_;
  }

 private:
  double service_time_s() const { return cfg_.mss / cfg_.capacity; }

  int inflight() const { return next_seq_ - highest_acked_; }

  void try_send() {
    while (next_seq_ < total_packets_ &&
           inflight() < static_cast<int>(std::min(cwnd_, window_limit_))) {
      transmit(next_seq_++, /*retransmission=*/false);
    }
  }

  /// Attempts to enqueue `seq` at the bottleneck. Returns false when the
  /// packet was dropped (droptail overflow, or a forced first-transmission
  /// loss) — the caller decides whether a timer must be re-armed for it.
  bool transmit(int seq, bool retransmission) {
    ++result_.packets_sent;
    if (!retransmission && seq < total_packets_ &&
        forced_drop_[static_cast<size_t>(seq)] != 0) {
      forced_drop_[static_cast<size_t>(seq)] = 0;
      ++result_.losses;
      return false;
    }
    // Random channel loss: one decision per attempt (first transmissions
    // AND retransmits), so burst losses can eat a retransmit too and only
    // the RTO rescue path guarantees eventual delivery.
    if (loss_.drop()) {
      ++result_.losses;
      ++result_.injected_losses;
      sim_.tracer().record(sim_.now(), TraceKind::kFault, "packet",
                           static_cast<double>(seq), "injected-loss");
      return false;
    }
    if (queue_len_ >= cfg_.queue_packets) {
      ++result_.losses;  // droptail
      return false;
    }
    ++queue_len_;
    // Bottleneck serves packets back to back.
    const SimTime service = from_seconds(service_time_s());
    server_free_ = std::max(server_free_, sim_.now()) + service;
    const SimTime departure = server_free_;
    sim_.at(departure, [this, seq] {
      --queue_len_;
      sim_.after(cfg_.one_way, [this, seq] { on_receive(seq); });
    });
    return true;
  }

  void on_receive(int seq) {
    if (seq < total_packets_) received_[static_cast<size_t>(seq)] = 1;
    while (cum_ack_ < total_packets_ &&
           received_[static_cast<size_t>(cum_ack_)] != 0) {
      ++cum_ack_;
    }
    // Duplicate-ack batching: past the third dup for the same cumulative
    // value the sender learns nothing new (fast retransmit has fired and
    // this model has no per-dup window inflation), so stop scheduling the
    // ack events at all.
    if (cum_ack_ == last_ack_emitted_) {
      if (++dups_emitted_ > 3) return;
    } else {
      last_ack_emitted_ = cum_ack_;
      dups_emitted_ = 0;
    }
    const int ack = cum_ack_;
    sim_.after(cfg_.one_way, [this, ack] { on_ack(ack); });
  }

  void on_ack(int ack) {
    if (done_at_ >= 0) return;
    if (ack > highest_acked_) {
      highest_acked_ = ack;
      dup_acks_ = 0;
      if (in_recovery_) {
        if (highest_acked_ >= recovery_end_) {
          in_recovery_ = false;
        } else {
          // NewReno partial ack: the next hole is known lost; retransmit
          // immediately instead of waiting for an RTO. A drop of this
          // retransmit needs no special handling — arm_rto() below pushes
          // a fresh deadline that rescues it.
          ++result_.retransmits;
          if (!transmit(highest_acked_, /*retransmission=*/true))
            ++result_.retransmit_drops;
        }
      }
      // Window growth per newly acked packet.
      if (cwnd_ < ssthresh_) {
        cwnd_ += 1;  // slow start: +1 per ack
      } else {
        cwnd_ += 1.0 / cwnd_;  // Reno congestion avoidance
      }
      result_.max_cwnd_packets = std::max(result_.max_cwnd_packets, cwnd_);
      if (highest_acked_ >= total_packets_) {
        done_at_ = sim_.now();
        return;
      }
      try_send();
      arm_rto();
      return;
    }
    // Duplicate cumulative ack: a later packet arrived out of order.
    ++dup_acks_;
    if (dup_acks_ == 3 && !in_recovery_) {
      // Fast retransmit + recovery (Reno).
      ssthresh_ = std::max(cwnd_ / 2, 2.0);
      cwnd_ = ssthresh_;
      in_recovery_ = true;
      recovery_end_ = next_seq_;
      ++result_.retransmits;
      const bool queued = transmit(highest_acked_, /*retransmission=*/true);
      if (!queued) ++result_.retransmit_drops;
      // Fast retransmit is forward progress: push the RTO deadline so the
      // timer armed before recovery cannot expire mid-recovery, collapse
      // cwnd and send a second copy. When the retransmit itself was
      // dropped at a full queue, the fresh deadline doubles as its rescue
      // — one RTO from now rather than from some stale pre-recovery ack.
      arm_rto();
    }
  }

  /// Declares forward progress: the connection is owed a quiet period of
  /// one full RTO before the timeout path may act. Keeps at most one timer
  /// event outstanding — re-arming moves the deadline, it does not stack
  /// another closure in the event queue.
  void arm_rto() {
    rto_deadline_ = sim_.now() + cfg_.rto;
    if (!rto_timer_pending_) schedule_rto_timer(rto_deadline_);
  }

  void schedule_rto_timer(SimTime at) {
    rto_timer_pending_ = true;
    sim_.at(at, [this] { on_rto_timer(); });
  }

  void on_rto_timer() {
    rto_timer_pending_ = false;
    if (done_at_ >= 0) return;
    if (sim_.now() < rto_deadline_) {
      // Progress since this timer was scheduled pushed the deadline; chase
      // it with the single timer instead of acting on stale state.
      schedule_rto_timer(rto_deadline_);
      return;
    }
    // No progress for a full RTO: retransmit the missing packet and
    // collapse to slow start.
    ++result_.rto_timeouts;
    ssthresh_ = std::max(cwnd_ / 2, 2.0);
    cwnd_ = cfg_.initial_window_packets;
    in_recovery_ = false;
    ++result_.retransmits;
    if (!transmit(highest_acked_, /*retransmission=*/true))
      ++result_.retransmit_drops;
    arm_rto();
  }

  Simulation& sim_;
  PacketSimConfig cfg_;
  int total_packets_;
  std::vector<std::uint8_t> received_;
  std::vector<std::uint8_t> forced_drop_;  // pending injected losses, by seq

  // Sender state.
  int next_seq_ = 0;
  int highest_acked_ = 0;
  int cum_ack_ = 0;
  double cwnd_;
  double ssthresh_ = 1e18;
  double window_limit_;
  int dup_acks_ = 0;
  bool in_recovery_ = false;
  int recovery_end_ = 0;

  // Receiver ack-batching state.
  int last_ack_emitted_ = 0;
  int dups_emitted_ = 0;

  // Timer state: one outstanding timer event, chasing rto_deadline_.
  SimTime rto_deadline_ = 0;
  bool rto_timer_pending_ = false;

  // Bottleneck state.
  int queue_len_ = 0;
  SimTime server_free_ = 0;

  simfault::LossProcess loss_;  // random channel drops, one draw per attempt

  SimTime done_at_ = -1;
  PacketSimResult result_;
};

}  // namespace

PacketSimResult packet_level_transfer(double bytes, const PacketSimConfig& cfg,
                                      const SimHooks& hooks) {
  // One raw TCP connection and no MPI job, so no mpi::run_job: the hooks
  // are invoked here, like the harness runners do.
  Simulation sim;
  if (hooks.on_start) hooks.on_start(sim);
  PacketTcp conn(sim, bytes, cfg);
  PacketSimResult result = conn.run();
  if (hooks.on_finish) hooks.on_finish(sim);
  return result;
}

}  // namespace gridsim::tcp
