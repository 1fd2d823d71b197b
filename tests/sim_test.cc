#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulator.h"

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

}  // namespace
}  // namespace mobicache
