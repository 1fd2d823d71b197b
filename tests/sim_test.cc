#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mu/wake_index.h"
#include "sim/simulator.h"
#include "util/random.h"

#include "counting_new.h"

namespace mobicache {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), 0.0);
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(SimulatorTest, DispatchesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(3.0, [&] { order.push_back(3); });
  sim.ScheduleAt(1.0, [&] { order.push_back(1); });
  sim.ScheduleAt(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(sim.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 3.0);
}

TEST(SimulatorTest, EqualTimesFireFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(5.0, [&, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  double fired_at = -1.0;
  sim.ScheduleAt(2.0, [&] {
    sim.ScheduleAfter(3.0, [&] { fired_at = sim.Now(); });
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(SimulatorTest, CancelPreventsDispatch) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.ScheduleAt(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));  // second cancel is a no-op
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelAfterFireReturnsFalse) {
  Simulator sim;
  EventId id = sim.ScheduleAt(1.0, [] {});
  sim.Run();
  EXPECT_FALSE(sim.Cancel(id));
}

TEST(SimulatorTest, CancelledPlaceholdersAreSkippedAcrossLiveEvents) {
  Simulator sim;
  std::vector<int> order;
  EventId a = sim.ScheduleAt(1.0, [&] { order.push_back(1); });
  sim.ScheduleAt(2.0, [&] { order.push_back(2); });
  EventId c = sim.ScheduleAt(3.0, [&] { order.push_back(3); });
  sim.ScheduleAt(4.0, [&] { order.push_back(4); });
  EXPECT_TRUE(sim.Cancel(a));
  EXPECT_TRUE(sim.Cancel(c));
  EXPECT_EQ(sim.Run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{2, 4}));
}

TEST(SimulatorTest, CancelFromInsideAnEarlierEvent) {
  Simulator sim;
  bool fired = false;
  EventId later = sim.ScheduleAt(5.0, [&] { fired = true; });
  sim.ScheduleAt(1.0, [&] { EXPECT_TRUE(sim.Cancel(later)); });
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, ManyEventsKeepDeterministicOrderAndRecycleSlots) {
  // Pushes enough events through the loop that callback slots are recycled
  // many times over, and checks the dispatch order stays
  // (time, FIFO)-deterministic throughout.
  Simulator sim;
  uint64_t dispatched = 0;
  double last_time = -1.0;
  const int kBatches = 40;
  const int kPerBatch = 50000;
  for (int b = 0; b < kBatches; ++b) {
    const double base = static_cast<double>(b + 1);
    for (int i = 0; i < kPerBatch; ++i) {
      sim.ScheduleAt(base, [&sim, &dispatched, &last_time] {
        EXPECT_GE(sim.Now(), last_time);
        last_time = sim.Now();
        ++dispatched;
      });
    }
    sim.Run();
  }
  EXPECT_EQ(dispatched, static_cast<uint64_t>(kBatches) * kPerBatch);
  EXPECT_EQ(sim.DispatchedEvents(), dispatched);
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  std::vector<double> times;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    sim.ScheduleAt(t, [&, t] { times.push_back(t); });
  }
  EXPECT_EQ(sim.RunUntil(2.5), 2u);
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(sim.Now(), 2.5);
  EXPECT_EQ(sim.RunUntil(10.0), 2u);
  EXPECT_DOUBLE_EQ(sim.Now(), 10.0);
}

TEST(SimulatorTest, EventAtBoundaryIsIncluded) {
  Simulator sim;
  bool fired = false;
  sim.ScheduleAt(2.0, [&] { fired = true; });
  sim.RunUntil(2.0);
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, StopHaltsRun) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleAt(static_cast<double>(i + 1), [&] {
      if (++count == 2) sim.Stop();
    });
  }
  sim.Run();
  EXPECT_EQ(count, 2);
  // A later Run resumes the remaining events.
  sim.Run();
  EXPECT_EQ(count, 5);
}

TEST(SimulatorTest, StopInsideRunUntilKeepsTheClockMonotone) {
  // Five events at t = 1..5; the second stops the run. RunUntil(10) must
  // leave the clock at the stopped event, not at 10: events 3..5 are still
  // queued, and a later Run() would otherwise move the clock 10 -> 3.
  Simulator sim;
  std::vector<double> fired;
  for (int i = 1; i <= 5; ++i) {
    sim.ScheduleAt(static_cast<double>(i), [&sim, &fired, i] {
      fired.push_back(sim.Now());
      if (i == 2) sim.Stop();
    });
  }
  EXPECT_EQ(sim.RunUntil(10.0), 2u);
  EXPECT_EQ(sim.Now(), 2.0);
  EXPECT_EQ(sim.Run(), 3u);
  EXPECT_EQ(sim.Now(), 5.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0}));
}

TEST(SimulatorTest, StopInsideRunUntilBeforeKeepsTheClockMonotone) {
  Simulator sim;
  for (int i = 1; i <= 3; ++i) {
    sim.ScheduleAt(static_cast<double>(i), [&sim, i] {
      if (i == 1) sim.Stop();
    });
  }
  EXPECT_EQ(sim.RunUntilBefore(3.0), 1u);
  EXPECT_EQ(sim.Now(), 1.0);  // the event at 2 still belongs to this window
  EXPECT_EQ(sim.RunUntilBefore(3.0), 1u);
  EXPECT_EQ(sim.Now(), 3.0);  // only the event at exactly 3 remains
  EXPECT_EQ(sim.PendingEvents(), 1u);
}

TEST(SimulatorTest, StopOnTheLastEventBeforeEndStillAdvancesTheClock) {
  // Nothing the call should have run is left, so the clock moves to `end`
  // exactly as without Stop(); a cancelled event does not hold it back.
  Simulator sim;
  sim.ScheduleAt(1.0, [&sim] { sim.Stop(); });
  const EventId dead = sim.ScheduleAt(2.0, [] {});
  sim.ScheduleAt(7.0, [] {});
  ASSERT_TRUE(sim.Cancel(dead));
  EXPECT_EQ(sim.RunUntil(5.0), 1u);
  EXPECT_EQ(sim.Now(), 5.0);
  EXPECT_EQ(sim.PendingEvents(), 1u);  // the tombstone was dropped
}

TEST(SimulatorTest, SealedBucketsKeepFifoOrderAcrossTimes) {
  // Far more distinct pending times than the open-bucket table has
  // entries, each time pushed to in several interleaved rounds: table
  // collisions seal buckets, and the later rounds at a time land in fresh
  // buckets behind them. Dispatch must still be by (time, push order).
  Simulator sim;
  constexpr int kTimes = 5000;
  constexpr int kRounds = 4;
  std::vector<std::pair<int, int>> order;
  for (int r = 0; r < kRounds; ++r) {
    for (int t = 0; t < kTimes; ++t) {
      const int time = (t * 7919) % kTimes;  // scatter the push order
      sim.ScheduleAt(static_cast<double>(time), [&order, time, r] {
        order.emplace_back(time, r);
      });
    }
  }
  EXPECT_EQ(sim.PendingEvents(), size_t{kTimes} * kRounds);
  EXPECT_EQ(sim.Run(), uint64_t{kTimes} * kRounds);
  ASSERT_EQ(order.size(), size_t{kTimes} * kRounds);
  for (size_t i = 0; i < order.size(); ++i) {
    ASSERT_EQ(order[i], std::make_pair(static_cast<int>(i / kRounds),
                                       static_cast<int>(i % kRounds)))
        << "at dispatch " << i;
  }
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(SimulatorTest, StepDispatchesOne) {
  Simulator sim;
  int count = 0;
  sim.ScheduleAt(1.0, [&] { ++count; });
  sim.ScheduleAt(2.0, [&] { ++count; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, EventsScheduledDuringDispatchRun) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(1.0, [&] {
    order.push_back(1);
    sim.ScheduleAt(1.0, [&] { order.push_back(2); });  // same time, later seq
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimulatorTest, DispatchedEventsCounts) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.ScheduleAt(1.0, [] {});
  sim.Run();
  EXPECT_EQ(sim.DispatchedEvents(), 7u);
}

TEST(PeriodicProcessTest, FiresAtFixedPeriod) {
  Simulator sim;
  std::vector<double> fire_times;
  std::vector<uint64_t> ticks;
  PeriodicProcess proc(&sim, 0.0, 10.0, [&](uint64_t tick) {
    fire_times.push_back(sim.Now());
    ticks.push_back(tick);
  });
  ASSERT_TRUE(proc.Start().ok());
  sim.RunUntil(35.0);
  proc.Stop();
  EXPECT_EQ(fire_times, (std::vector<double>{0.0, 10.0, 20.0, 30.0}));
  EXPECT_EQ(ticks, (std::vector<uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(proc.ticks_fired(), 4u);
}

TEST(PeriodicProcessTest, RejectsBadPeriodAndDoubleStart) {
  Simulator sim;
  PeriodicProcess bad(&sim, 0.0, 0.0, [](uint64_t) {});
  EXPECT_FALSE(bad.Start().ok());
  PeriodicProcess good(&sim, 0.0, 1.0, [](uint64_t) {});
  EXPECT_TRUE(good.Start().ok());
  EXPECT_EQ(good.Start().code(), StatusCode::kFailedPrecondition);
}

TEST(PeriodicProcessTest, StopFromCallback) {
  Simulator sim;
  int fired = 0;
  PeriodicProcess proc(&sim, 0.0, 1.0, [&](uint64_t) {
    if (++fired == 3) sim.Stop();
  });
  ASSERT_TRUE(proc.Start().ok());
  sim.Run();
  proc.Stop();
  EXPECT_EQ(fired, 3);
}

// Regression: Stop() from inside on_tick_ runs after Fire() has already
// rescheduled the next tick. The freshly scheduled event must be cancelled
// so ticks_fired() freezes and nothing fires against the stopped process.
TEST(PeriodicProcessTest, StopFromInsideCallbackCancelsRescheduledTick) {
  Simulator sim;
  std::vector<uint64_t> ticks;
  PeriodicProcess proc(&sim, 0.0, 1.0, [&](uint64_t tick) {
    ticks.push_back(tick);
    if (tick == 2) proc.Stop();
  });
  ASSERT_TRUE(proc.Start().ok());
  sim.Run();  // must terminate: the rescheduled tick is cancelled
  EXPECT_EQ(ticks, (std::vector<uint64_t>{0, 1, 2}));
  EXPECT_EQ(proc.ticks_fired(), 3u);
  EXPECT_FALSE(proc.active());
  // Nothing of the process lingers in the queue; more simulation time
  // cannot revive it or grow the counter.
  sim.RunUntil(sim.Now() + 100.0);
  EXPECT_EQ(proc.ticks_fired(), 3u);
}

TEST(PeriodicProcessTest, StopInsideCallbackThenOutsideIsIdempotent) {
  Simulator sim;
  int fired = 0;
  PeriodicProcess proc(&sim, 0.0, 1.0, [&](uint64_t) {
    ++fired;
    proc.Stop();
    proc.Stop();  // second Stop inside the callback is a no-op
  });
  ASSERT_TRUE(proc.Start().ok());
  sim.Run();
  proc.Stop();  // and so is one after the run
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(proc.ticks_fired(), 1u);
}

TEST(PeriodicProcessTest, DestructionCancelsPendingTick) {
  Simulator sim;
  int fired = 0;
  {
    PeriodicProcess proc(&sim, 0.0, 1.0, [&](uint64_t) { ++fired; });
    ASSERT_TRUE(proc.Start().ok());
    sim.RunUntil(2.5);
  }
  sim.RunUntil(10.0);
  EXPECT_EQ(fired, 3);  // ticks at 0, 1, 2 only
}

// ---------------------------------------------------------------------------
// Allocation-free hot path: scheduling and dispatching events must not touch
// the heap once the queue structures are reserved (EventFn stores captures
// inline; slots and heap entries come from pre-sized vectors).

TEST(EventFnTest, StoresMaximalCaptureInline) {
  // A capture at exactly the 48-byte budget: the largest real caller is the
  // server delivery closure (pointer + shared_ptr + two doubles = 40).
  struct Payload {
    void* a;
    std::shared_ptr<int> b;
    double c;
    double d;
    void* e;
  };
  static_assert(sizeof(Payload) == EventFn::kInlineBytes);
  int fired = 0;
  Payload payload{&fired, nullptr, 1.0, 2.0, nullptr};
  EventFn fn = [payload] { ++*static_cast<int*>(payload.a); };
  EXPECT_TRUE(static_cast<bool>(fn));
  EventFn moved = std::move(fn);
  EXPECT_FALSE(static_cast<bool>(fn));
  moved();
  EXPECT_EQ(fired, 1);
  moved = nullptr;
  EXPECT_TRUE(moved == nullptr);
}

TEST(EventFnTest, DestroysCaptureOnResetAndMove) {
  std::shared_ptr<int> token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  {
    EventFn held = [token] { (void)*token; };
    token.reset();
    EXPECT_FALSE(watch.expired());  // closure keeps it alive
    EventFn stolen = std::move(held);
    EXPECT_FALSE(watch.expired());  // relocated, not dropped
  }
  EXPECT_TRUE(watch.expired());  // destroyed exactly once at scope exit
}

// ---------------------------------------------------------------------------
// Differential test: seeded random operation sequences run against the
// Simulator and against a reference model (a std::map ordered by (time,
// seq), cancelled entries dropped lazily off its front), and every
// observable must agree: the dispatch sequence, each call's return value,
// Now() after every call, and PendingEvents() (tombstones included).

/// What a fired event does. Fixed per (seed, event number), so both sides
/// act alike as long as they dispatch alike.
struct Action {
  enum Kind { kNothing, kChildNow, kChildAhead, kCancel, kStop };
  Kind kind = kNothing;
  double ahead = 0.0;   // kChildAhead: delay
  uint64_t target = 0;  // kCancel: event number; 0 is the default EventId
};

/// Delay on a coarse grid of unit intervals (many ties), up to 64 intervals
/// ahead; one draw in eight lands off the grid.
double DrawDelay(Rng& rng) {
  const double intervals = static_cast<double>(rng.NextUint64(65));
  return rng.NextUint64(8) == 0 ? intervals + 0.375 : intervals;
}

Action ActionFor(uint64_t seed, uint64_t event) {
  Rng rng((seed << 32) ^ event);
  const uint64_t d = rng.NextUint64(100);
  Action a;
  if (d < 55) return a;
  if (d < 70) {
    a.kind = Action::kChildNow;
  } else if (d < 84) {
    a.kind = Action::kChildAhead;
    a.ahead = DrawDelay(rng);
  } else if (d < 96) {
    a.kind = Action::kCancel;
    a.target = rng.NextUint64(event + 1);  // itself, earlier, or default
  } else {
    a.kind = Action::kStop;
  }
  return a;
}

/// Log record of a cancel made inside a callback (dispatches log their
/// event number, which never has the top bit set).
constexpr uint64_t kCancelRecord = uint64_t{1} << 63;

template <typename Side>
void Act(Side& side, uint64_t event) {
  side.log.push_back(event);
  const Action a = ActionFor(side.seed, event);
  switch (a.kind) {
    case Action::kNothing:
      break;
    case Action::kChildNow:
      side.Schedule(side.Now());
      break;
    case Action::kChildAhead:
      side.Schedule(side.Now() + a.ahead);
      break;
    case Action::kCancel:
      side.log.push_back(kCancelRecord | (side.Cancel(a.target) ? 1 : 0));
      break;
    case Action::kStop:
      side.Stop();
      break;
  }
}

class RealSide {
 public:
  explicit RealSide(uint64_t s) : seed(s) {}
  void Schedule(SimTime when) {
    const uint64_t event = ids_.size() + 1;
    ids_.push_back(sim_.ScheduleAt(when, [this, event] { Act(*this, event); }));
  }
  bool Cancel(uint64_t event) {
    return sim_.Cancel(event == 0 ? EventId{} : ids_[event - 1]);
  }
  uint64_t scheduled() const { return ids_.size(); }
  void Stop() { sim_.Stop(); }
  SimTime Now() const { return sim_.Now(); }
  size_t PendingEvents() const { return sim_.PendingEvents(); }
  uint64_t Run() { return sim_.Run(); }
  uint64_t RunUntil(SimTime end) { return sim_.RunUntil(end); }
  uint64_t RunUntilBefore(SimTime end) { return sim_.RunUntilBefore(end); }
  bool Step() { return sim_.Step(); }
  SimTime NextEventTime() { return sim_.NextEventTime(); }

  const uint64_t seed;
  std::vector<uint64_t> log;

 private:
  Simulator sim_;
  std::vector<EventId> ids_;
};

class ModelSide {
 public:
  explicit ModelSide(uint64_t s) : seed(s) {}
  void Schedule(SimTime when) {
    const Key key{when, ++seq_};
    keys_.push_back(key);
    queue_.emplace(key, Entry{keys_.size(), false});
  }
  bool Cancel(uint64_t event) {
    if (event == 0) return false;
    const auto it = queue_.find(keys_[event - 1]);
    if (it == queue_.end() || it->second.cancelled) return false;
    it->second.cancelled = true;
    return true;
  }
  void Stop() { stopped_ = true; }
  SimTime Now() const { return now_; }
  size_t PendingEvents() const { return queue_.size(); }
  uint64_t Run() {
    stopped_ = false;
    uint64_t n = 0;
    while (!stopped_ && SkipCancelledFront()) {
      DispatchFront();
      ++n;
    }
    return n;
  }
  uint64_t RunUntil(SimTime end) { return RunTo(end, /*inclusive=*/true); }
  uint64_t RunUntilBefore(SimTime end) {
    return RunTo(end, /*inclusive=*/false);
  }
  bool Step() {
    stopped_ = false;
    if (!SkipCancelledFront()) return false;
    DispatchFront();
    return true;
  }
  SimTime NextEventTime() {
    if (!SkipCancelledFront()) return std::numeric_limits<SimTime>::infinity();
    return queue_.begin()->first.first;
  }

  const uint64_t seed;
  std::vector<uint64_t> log;

 private:
  using Key = std::pair<SimTime, uint64_t>;  // (time, seq)
  struct Entry {
    uint64_t event;
    bool cancelled;
  };

  bool SkipCancelledFront() {
    while (!queue_.empty() && queue_.begin()->second.cancelled) {
      queue_.erase(queue_.begin());
    }
    return !queue_.empty();
  }
  void DispatchFront() {
    const auto it = queue_.begin();
    now_ = it->first.first;
    const uint64_t event = it->second.event;
    queue_.erase(it);
    Act(*this, event);
  }
  bool Due(SimTime t, SimTime end, bool inclusive) const {
    return inclusive ? t <= end : t < end;
  }
  uint64_t RunTo(SimTime end, bool inclusive) {
    stopped_ = false;
    uint64_t n = 0;
    while (!stopped_ && SkipCancelledFront()) {
      if (!Due(queue_.begin()->first.first, end, inclusive)) break;
      DispatchFront();
      ++n;
    }
    // The documented contract: the clock moves to `end` unless a Stop()
    // left a live event the call should have dispatched.
    if (now_ < end && !(stopped_ && Due(NextEventTime(), end, inclusive))) {
      now_ = end;
    }
    return n;
  }

  std::map<Key, Entry> queue_;
  std::vector<Key> keys_;  // by event number - 1
  SimTime now_ = 0.0;
  uint64_t seq_ = 0;
  bool stopped_ = false;
};

/// Applies top-level operation `op` (with its drawn argument) to `side`;
/// returns the call's result as a double for comparison (counts are small).
template <typename Side>
double ApplyOp(Side& side, uint64_t op, double arg, uint64_t target) {
  switch (op) {
    case 0:
      side.Schedule(side.Now() + arg);
      return 0.0;
    case 1:
      // A burst at one time: enough ids to span several bucket chunks.
      for (int i = 0; i < 25; ++i) side.Schedule(side.Now() + arg);
      return 0.0;
    case 2:
      return side.Cancel(target) ? 1.0 : 0.0;
    case 3:
      return side.Step() ? 1.0 : 0.0;
    case 4:
      return static_cast<double>(side.Run());
    case 5:
      return static_cast<double>(side.RunUntil(side.Now() + arg / 8.0));
    case 6:
      return static_cast<double>(side.RunUntilBefore(side.Now() + arg / 8.0));
    default:
      return side.NextEventTime();
  }
}

TEST(SimulatorDifferentialTest, MatchesReferenceModelOnRandomSequences) {
  constexpr uint64_t kSeeds = 200;
  constexpr int kOps = 500;
  // Top-level op mix (out of 100): schedule, burst, cancel, step, run,
  // run-until, run-until-before, next-event-time.
  constexpr uint64_t kMix[] = {30, 34, 44, 54, 57, 75, 90, 100};
  uint64_t dispatched = 0;
  uint64_t stopped_early = 0;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RealSide real(seed);
    ModelSide model(seed);
    Rng rng(~seed);
    for (int i = 0; i < 32; ++i) {
      const double when = static_cast<double>(rng.NextUint64(4));
      real.Schedule(when);
      model.Schedule(when);
    }
    for (int step = 0; step < kOps; ++step) {
      const uint64_t d = rng.NextUint64(100);
      uint64_t op = 0;
      while (d >= kMix[op]) ++op;
      const double arg = DrawDelay(rng);
      const uint64_t target = rng.NextUint64(real.scheduled() + 1);
      const SimTime before = real.Now();
      const double got = ApplyOp(real, op, arg, target);
      const double want = ApplyOp(model, op, arg, target);
      ASSERT_EQ(got, want) << "op " << op << " at step " << step;
      ASSERT_EQ(real.log, model.log) << "op " << op << " at step " << step;
      ASSERT_EQ(real.Now(), model.Now()) << "op " << op << " at step " << step;
      ASSERT_GE(real.Now(), before) << "clock moved backwards at step " << step;
      ASSERT_EQ(real.PendingEvents(), model.PendingEvents())
          << "op " << op << " at step " << step;
      for (uint64_t rec : real.log) {
        if ((rec & kCancelRecord) == 0) ++dispatched;
      }
      if ((op == 5 || op == 6) && real.NextEventTime() <= real.Now()) {
        ++stopped_early;
      }
      real.log.clear();
      model.log.clear();
    }
  }
  // The sequences really exercised dispatch and Stop()-shortened windows.
  EXPECT_GT(dispatched, 10000u);
  EXPECT_GT(stopped_early, 0u);
}

TEST(SimulatorTest, HotPathDoesNotAllocate) {
  Simulator sim;
  sim.Reserve(64);
  int sink = 0;
  double payload[4] = {1.0, 2.0, 3.0, 4.0};

  const size_t before = g_new_calls.load();
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 32; ++i) {
      sim.ScheduleAfter(static_cast<double>(i) + 0.5, [&sink, payload] {
        sink += static_cast<int>(payload[0]);
      });
    }
    // Cancellation and dispatch both recycle slots without freeing.
    EventId id = sim.ScheduleAfter(0.25, [&sink] { ++sink; });
    ASSERT_TRUE(sim.Cancel(id));
    sim.Run();
  }
  const size_t after = g_new_calls.load();
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(sink, 8 * 32);
}

TEST(SimulatorTest, TickWaveSteadyStateAllocatesNothing) {
  // The engines' queue shape: every unit holds one pending tick on an
  // interval boundary. Tickers reschedule at T + L; nappers at T + kL for k
  // up to the wake index's lookahead. Once warm, waves of same-time
  // dispatches recycle slots and bucket chunks without allocating.
  constexpr int kUnits = 4096;
  constexpr double kL = 2.5;  // boundaries k * kL are exact doubles
  constexpr uint64_t kMaxAhead = WakeIndex::kMaxLookaheadIntervals;
  Simulator sim;
  sim.Reserve(kUnits + 1024);
  Rng rng(17);
  struct Unit {
    Simulator* sim;
    Rng* rng;
    void Arm(uint64_t interval) {
      sim->ScheduleAt(static_cast<double>(interval) * kL, [this, interval] {
        const uint64_t ahead =
            rng->NextUint64(16) == 0 ? 1 + rng->NextUint64(kMaxAhead) : 1;
        Arm(interval + ahead);
      });
    }
  };
  std::vector<Unit> units(kUnits, Unit{&sim, &rng});
  for (Unit& u : units) u.Arm(1 + rng.NextUint64(kMaxAhead));
  uint64_t interval = 0;
  for (; interval < 2 * kMaxAhead; ++interval) {
    sim.RunUntil(static_cast<double>(interval) * kL);
  }

  const size_t before = g_new_calls.load();
  const uint64_t dispatched_before = sim.DispatchedEvents();
  for (const uint64_t end = interval + 2 * kMaxAhead; interval < end;
       ++interval) {
    sim.RunUntil(static_cast<double>(interval) * kL);
  }
  const size_t after = g_new_calls.load();
  EXPECT_EQ(after - before, 0u);
  EXPECT_GT(sim.DispatchedEvents() - dispatched_before, 100000u);
  EXPECT_EQ(sim.PendingEvents(), size_t{kUnits});
}

}  // namespace
}  // namespace mobicache
