// Deterministic pending-event set.
//
// Events at equal timestamps fire in insertion order (FIFO), which makes the
// whole simulation reproducible regardless of heap implementation details.
// Formally every event pops in ascending (time, seq) order, where seq is the
// order of the schedule() calls.
//
// The store has two parts:
//
//  - A hand-rolled 4-ary min-heap over small (time, seq, slot) keys; the
//    callback payloads live in a side slot array recycled through a free
//    list, so sift operations shuffle 24-byte trivially-copyable keys and
//    never touch the payloads. 4-ary beats binary here: half the levels per
//    sift and the four children of a node share a cache line pair.
//  - A FIFO "lane" of slot indices for events scheduled at exactly floor()
//    — the time of the event being run, i.e. Simulation::post() and
//    at(now()). Same-time re-posts are the bulk of the traffic on
//    WAN-contended runs (a flow whose bytes are done re-posts its
//    completion on every re-solve), and the lane takes them in O(1) with
//    no sift at all. Lane payloads live in the same slot array as heap
//    payloads, so the queue's memory is what a single heap would use.
//
// Why the lane keeps the (time, seq) order: every lane entry has time ==
// floor(), and floor() only grows. A heap entry with time == floor() was
// scheduled while floor() was still earlier (otherwise it would be in the
// lane), so it precedes every lane entry in seq. Hence run_next() pops heap
// entries at floor() first, then the lane front to back, and only then a
// heap entry with a later time — by which point the lane is empty, so
// raising floor() never strands a lane entry. The pop order, and therefore
// the event count, the final time and the determinism digest, are exactly
// those of a single heap; size() and peak_size() count both parts.
//
// The lane is a vector plus a read cursor. It is cleared whenever it runs
// empty and compacted (the consumed prefix dropped) once that prefix is half
// of it, so a same-time cascade in which every event posts another keeps
// only the live entries, not an index for every event since the cascade
// began.
//
// Payloads are a small-buffer-optimized `Callback` (simcore/callback.hpp):
// captures of up to 48 trivially-copyable bytes are stored inline, so the
// common path performs no heap allocation at all; larger captures come from
// a pooled free list. `callback_stats()` counts the spills.
//
// There is deliberately no cancel(): components that need to invalidate a
// scheduled event (e.g. a fluid-flow completion that a rate change made
// stale) guard their callback with a generation counter instead. This keeps
// the queue allocation-free per event and the common path fast.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "simcore/callback.hpp"
#include "simcore/check.hpp"
#include "simcore/time.hpp"

namespace gridsim {

class EventQueue {
 public:
  /// Schedules `fn` at absolute time `t`.
  void schedule(SimTime t, Callback fn) {
    GRIDSIM_CHECK(static_cast<bool>(fn), "EventQueue::schedule: null callback");
    GRIDSIM_CHECK(t >= floor_,
                  "EventQueue::schedule: time travels backwards (t=%lld ns, "
                  "last executed event at %lld ns)",
                  static_cast<long long>(t), static_cast<long long>(floor_));
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(std::move(fn));
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slots_[slot] = std::move(fn);
    }
    if (t == floor_) {
      lane_.push_back(slot);
    } else {
      heap_.push_back(Key{t, next_seq_++, slot});
      sift_up(heap_.size() - 1);
    }
    if (size() > peak_size_) peak_size_ = size();
  }

  bool empty() const noexcept { return heap_.empty() && lane_empty(); }
  std::size_t size() const noexcept {
    return heap_.size() + (lane_.size() - lane_head_);
  }

  /// High-water mark of size() over the queue's lifetime.
  std::size_t peak_size() const noexcept { return peak_size_; }

  /// Timestamp of the next event; kSimTimeNever when empty.
  SimTime next_time() const noexcept {
    if (!lane_empty()) return floor_;  // no heap entry is earlier
    return heap_.empty() ? kSimTimeNever : heap_.front().time;
  }

  /// Pops and runs the next event; returns its timestamp.
  /// Precondition: !empty().
  SimTime run_next() {
    GRIDSIM_CHECK(!empty(), "EventQueue::run_next on an empty queue");
    // Detach the payload and retire the slot and key before invoking: the
    // callback may schedule new events and must never observe its own
    // half-removed entry.
    std::uint32_t slot;
    if (!lane_empty() && (heap_.empty() || heap_.front().time != floor_)) {
      slot = lane_[lane_head_++];
      retire_lane_prefix();
    } else {
      slot = heap_.front().slot;
      floor_ = heap_.front().time;
      pop_root();
    }
    const SimTime t = floor_;
    Callback fn = std::move(slots_[slot]);
    free_slots_.push_back(slot);
    fn();
    return t;
  }

  /// Timestamp of the most recently executed event. No later schedule()
  /// may target an earlier time — the engine's time-monotonicity floor.
  SimTime floor() const noexcept { return floor_; }

 private:
  struct Key {
    SimTime time;
    std::uint64_t seq;   // FIFO tiebreaker for equal timestamps
    std::uint32_t slot;  // index of the payload in slots_
  };

  static bool before(const Key& a, const Key& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  bool lane_empty() const noexcept { return lane_head_ == lane_.size(); }
  /// Clears the lane once it is consumed, or drops its consumed prefix once
  /// that is at least half of it (amortized O(1) per pop). Shorter prefixes
  /// wait for the next clear.
  void retire_lane_prefix() {
    constexpr std::size_t kCompactMin = 256;
    if (lane_empty()) {
      lane_.clear();
      lane_head_ = 0;
    } else if (lane_head_ >= kCompactMin && 2 * lane_head_ >= lane_.size()) {
      lane_.erase(lane_.begin(),
                  lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_));
      lane_head_ = 0;
    }
  }

  void sift_up(std::size_t idx);
  /// Removes the root key and restores the heap property.
  void pop_root();

  std::vector<Key> heap_;  // 4-ary min-heap; children of i: 4i+1 .. 4i+4
  std::vector<Callback> slots_;           // payloads, addressed by Key::slot
  std::vector<std::uint32_t> free_slots_;  // recycled slot indices
  std::vector<std::uint32_t> lane_;  // slots of events at floor_, FIFO
  std::size_t lane_head_ = 0;        // first unconsumed lane entry
  std::uint64_t next_seq_ = 0;
  std::size_t peak_size_ = 0;
  SimTime floor_ = 0;
};

}  // namespace gridsim
