// Unit tests for the discrete-event engine, coroutine tasks and sync
// primitives.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "simcore/rng.hpp"
#include "simcore/simulation.hpp"
#include "simcore/sync.hpp"
#include "simcore/task.hpp"
#include "simcore/time.hpp"

namespace gridsim {
namespace {

using namespace gridsim::literals;

TEST(Time, Conversions) {
  EXPECT_EQ(microseconds(3), 3000);
  EXPECT_EQ(milliseconds(2), 2'000'000);
  EXPECT_EQ(seconds(1), 1'000'000'000);
  EXPECT_EQ(from_seconds(1.0), seconds(1));
  EXPECT_EQ(from_seconds(0.0), 0);
  // Rounds up: a fluid transfer never finishes early.
  EXPECT_EQ(from_seconds(1e-9 * 1.5), 2);
  EXPECT_DOUBLE_EQ(to_seconds(1'500'000'000), 1.5);
}

TEST(Time, Literals) {
  EXPECT_EQ(5_us, microseconds(5));
  EXPECT_EQ(11_ms, milliseconds(11));
  EXPECT_EQ(2_s, seconds(2));
}

TEST(Time, Format) {
  EXPECT_EQ(format_time(5), "5 ns");
  EXPECT_EQ(format_time(kSimTimeNever), "never");
  EXPECT_NE(format_time(milliseconds(100)).find("ms"), std::string::npos);
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimestampsAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) q.schedule(42, [&order, i] { order.push_back(i); });
  while (!q.empty()) q.run_next();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, NextTime) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), kSimTimeNever);
  q.schedule(7, [] {});
  EXPECT_EQ(q.next_time(), 7);
}

// A seeded random schedule against a reference ordered set keyed by
// (time, insertion index). It mixes post(), at(now()), future at(),
// callbacks that schedule from inside, same-time cascades long enough to
// make the queue's same-time lane compact, and run_until() jumps that move
// now() past the last executed event. Every pop must be the reference's
// minimum, and the event count, depth and high-water mark must match.
class LaneHarness {
 public:
  explicit LaneHarness(std::uint64_t seed) : rng_(seed) {}

  void run() {
    for (int phase = 0; phase < 40; ++phase) {
      const int batch = static_cast<int>(rng_.uniform_int(0, 12));
      for (int i = 0; i < batch; ++i) schedule_random();
      if (phase % 7 == 3) cascade(300);  // > the lane's compaction minimum
      const SimTime horizon =
          sim_.now() + static_cast<SimTime>(rng_.uniform_int(0, 40));
      sim_.run_until(horizon);
      EXPECT_EQ(sim_.now(), horizon);
      EXPECT_EQ(sim_.queue_depth(), ref_.size());
      // After the jump now() is past the last executed event: these land
      // at now() but go through the ordinary (time, seq) path.
      if (rng_.uniform_int(0, 1) == 1) schedule_at(sim_.now());
    }
    sim_.run();
    EXPECT_TRUE(ref_.empty());
    EXPECT_EQ(mismatches_, 0u);
    EXPECT_EQ(sim_.events_processed(), popped_);
    EXPECT_EQ(popped_, next_id_);
    EXPECT_EQ(sim_.queue_depth(), 0u);
    EXPECT_EQ(sim_.peak_queue_depth(), ref_peak_);
  }

  std::uint64_t popped() const { return popped_; }

 private:
  void schedule_at(SimTime t) {
    const std::uint64_t id = next_id_++;
    ref_.emplace(t, id);
    ref_peak_ = std::max(ref_peak_, ref_.size());
    const auto fire = [this, id, t] { on_fire(id, t); };
    if (t == sim_.now() && rng_.uniform_int(0, 1) == 0) {
      sim_.post(fire);
    } else {
      sim_.at(t, fire);
    }
  }

  void schedule_random() {
    const auto kind = rng_.uniform_int(0, 3);
    const SimTime dt = kind < 2 ? 0 : static_cast<SimTime>(
                                          rng_.uniform_int(1, 25));
    schedule_at(sim_.now() + dt);
  }

  /// `n` same-time events, each of which posts one more.
  void cascade(int n) {
    for (int i = 0; i < n; ++i) {
      const std::uint64_t id = next_id_++;
      const SimTime t = sim_.now();
      ref_.emplace(t, id);
      ref_peak_ = std::max(ref_peak_, ref_.size());
      sim_.post([this, id, t] {
        on_fire(id, t);
        schedule_at(sim_.now());
      });
    }
  }

  void on_fire(std::uint64_t id, SimTime t) {
    const std::pair<SimTime, std::uint64_t> key{t, id};
    if (ref_.empty() || *ref_.begin() != key || sim_.now() != t) ++mismatches_;
    ref_.erase(key);
    ++popped_;
    if (budget_ == 0) return;
    const auto children = rng_.uniform_int(0, 2);
    for (std::int64_t c = 0; c < children && budget_ > 0; ++c, --budget_)
      schedule_random();
  }

  Simulation sim_;
  Rng rng_;
  std::set<std::pair<SimTime, std::uint64_t>> ref_;
  std::size_t ref_peak_ = 0;
  std::uint64_t next_id_ = 0;
  std::uint64_t popped_ = 0;
  std::uint64_t mismatches_ = 0;
  int budget_ = 4000;
};

TEST(EventQueue, SameTimeLaneKeepsTimeSeqOrder) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    LaneHarness h(seed);
    h.run();
    EXPECT_GT(h.popped(), 2000u);
  }
}

TEST(Simulation, NowAdvancesWithEvents) {
  Simulation sim;
  SimTime seen = -1;
  sim.at(100, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulation, SchedulingInPastThrows) {
  Simulation sim;
  sim.at(100, [] {});
  sim.run();
  EXPECT_THROW(sim.at(50, [] {}), std::logic_error);
}

TEST(Simulation, RunUntilStopsAtBoundary) {
  Simulation sim;
  int fired = 0;
  sim.at(10, [&] { ++fired; });
  sim.at(20, [&] { ++fired; });
  sim.at(30, [&] { ++fired; });
  EXPECT_TRUE(sim.run_until(20));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_FALSE(sim.run_until(100));
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulation, EventsCanScheduleEvents) {
  Simulation sim;
  std::vector<SimTime> times;
  sim.at(10, [&] {
    times.push_back(sim.now());
    sim.after(15, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 25}));
}

Task<void> record_delays(Simulation& sim, std::vector<SimTime>& out) {
  out.push_back(sim.now());
  co_await sim.delay(100);
  out.push_back(sim.now());
  co_await sim.delay(50);
  out.push_back(sim.now());
}

TEST(Coroutine, DelayAdvancesVirtualTime) {
  Simulation sim;
  std::vector<SimTime> times;
  sim.spawn(record_delays(sim, times));
  EXPECT_EQ(sim.live_processes(), 1);
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{0, 100, 150}));
  EXPECT_EQ(sim.live_processes(), 0);
}

Task<int> add_later(Simulation& sim, int a, int b) {
  co_await sim.delay(10);
  co_return a + b;
}

Task<void> nested_caller(Simulation& sim, int& out) {
  const int x = co_await add_later(sim, 2, 3);
  const int y = co_await add_later(sim, x, 10);
  out = y;
}

TEST(Coroutine, NestedTasksReturnValues) {
  Simulation sim;
  int out = 0;
  sim.spawn(nested_caller(sim, out));
  sim.run();
  EXPECT_EQ(out, 15);
  EXPECT_EQ(sim.now(), 20);
}

Task<int> throws_after_delay(Simulation& sim) {
  co_await sim.delay(5);
  throw std::runtime_error("boom");
}

Task<void> catches(Simulation& sim, bool& caught) {
  try {
    (void)co_await throws_after_delay(sim);
  } catch (const std::runtime_error& e) {
    caught = std::string(e.what()) == "boom";
  }
}

TEST(Coroutine, ExceptionsPropagateToAwaiter) {
  Simulation sim;
  bool caught = false;
  sim.spawn(catches(sim, caught));
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Coroutine, ManyProcessesInterleaveDeterministically) {
  Simulation sim;
  std::vector<int> order;
  auto worker = [](Simulation& s, std::vector<int>& ord, int id,
                   SimTime step) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await s.delay(step);
      ord.push_back(id);
    }
  };
  sim.spawn(worker(sim, order, 0, 10));
  sim.spawn(worker(sim, order, 1, 10));
  sim.run();
  // Same timestamps resolve in spawn order every iteration.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 1, 0, 1}));
}

Task<void> wait_trigger(Trigger& t, Simulation& sim, std::vector<SimTime>& out) {
  co_await t.wait();
  out.push_back(sim.now());
}

TEST(Sync, TriggerReleasesAllWaiters) {
  Simulation sim;
  Trigger t(sim);
  std::vector<SimTime> woke;
  sim.spawn(wait_trigger(t, sim, woke));
  sim.spawn(wait_trigger(t, sim, woke));
  sim.at(500, [&] { t.fire(); });
  sim.run();
  EXPECT_EQ(woke, (std::vector<SimTime>{500, 500}));
  EXPECT_TRUE(t.fired());
}

TEST(Sync, TriggerAlreadyFiredCompletesImmediately) {
  Simulation sim;
  Trigger t(sim);
  t.fire();
  std::vector<SimTime> woke;
  sim.at(100, [&] { sim.spawn(wait_trigger(t, sim, woke)); });
  sim.run();
  EXPECT_EQ(woke, (std::vector<SimTime>{100}));
}

TEST(Sync, OneShotDeliversValueSetBeforeWait) {
  Simulation sim;
  OneShot<int> slot(sim);
  slot.set(41);
  int got = 0;
  auto reader = [](OneShot<int>& s, int& g) -> Task<void> {
    g = co_await s.wait();
  };
  sim.spawn(reader(slot, got));
  sim.run();
  EXPECT_EQ(got, 41);
}

TEST(Sync, OneShotDeliversValueSetAfterWait) {
  Simulation sim;
  OneShot<std::string> slot(sim);
  std::string got;
  auto reader = [](OneShot<std::string>& s, std::string& g) -> Task<void> {
    g = co_await s.wait();
  };
  sim.spawn(reader(slot, got));
  sim.at(300, [&] { slot.set("hello"); });
  sim.run();
  EXPECT_EQ(got, "hello");
  EXPECT_EQ(sim.now(), 300);
}

TEST(Sync, MailboxBuffersWhenNoWaiter) {
  Simulation sim;
  Mailbox<int> box(sim);
  box.push(1);
  box.push(2);
  std::vector<int> got;
  auto reader = [](Mailbox<int>& b, std::vector<int>& g) -> Task<void> {
    g.push_back(co_await b.pop());
    g.push_back(co_await b.pop());
  };
  sim.spawn(reader(box, got));
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(Sync, MailboxServesWaitersFifo) {
  Simulation sim;
  Mailbox<int> box(sim);
  std::vector<std::pair<int, int>> got;  // (reader id, value)
  auto reader = [](Mailbox<int>& b, std::vector<std::pair<int, int>>& g,
                   int id) -> Task<void> {
    const int v = co_await b.pop();
    g.emplace_back(id, v);
  };
  sim.spawn(reader(box, got, 0));
  sim.spawn(reader(box, got, 1));
  sim.at(10, [&] {
    box.push(100);
    box.push(200);
  });
  sim.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], std::make_pair(0, 100));
  EXPECT_EQ(got[1], std::make_pair(1, 200));
}

TEST(Sync, MailboxPushedItemIsReservedForWokenWaiter) {
  Simulation sim;
  Mailbox<int> box(sim);
  std::vector<std::pair<int, int>> got;
  auto reader = [](Mailbox<int>& b, std::vector<std::pair<int, int>>& g,
                   int id) -> Task<void> {
    const int v = co_await b.pop();
    g.emplace_back(id, v);
  };
  sim.spawn(reader(box, got, 0));  // blocks first
  sim.at(10, [&] {
    box.push(7);
    // Reader 1 starts at the same timestamp, after the push: it must not
    // steal the item already assigned to reader 0.
    sim.spawn(reader(box, got, 1));
    box.push(8);
  });
  sim.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], std::make_pair(0, 7));
  EXPECT_EQ(got[1], std::make_pair(1, 8));
}

TEST(Sync, SemaphoreLimitsConcurrency) {
  Simulation sim;
  Semaphore sem(sim, 2);
  int active = 0;
  int peak = 0;
  auto worker = [](Simulation& s, Semaphore& sm, int& act,
                   int& pk) -> Task<void> {
    co_await sm.acquire();
    ++act;
    pk = std::max(pk, act);
    co_await s.delay(100);
    --act;
    sm.release();
  };
  for (int i = 0; i < 6; ++i) sim.spawn(worker(sim, sem, active, peak));
  sim.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(active, 0);
  EXPECT_EQ(sim.now(), 300);  // three waves of two
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SplitStreamsDiffer) {
  Rng a(1);
  Rng s1 = a.split(1);
  Rng s2 = a.split(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (s1.next() == s2.next()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformIntInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng r(7);
  bool seen[11] = {};
  for (int i = 0; i < 1000; ++i) seen[r.uniform_int(0, 10)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng r(99);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = r.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ShufflePreservesElements) {
  Rng r(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

}  // namespace
}  // namespace gridsim
