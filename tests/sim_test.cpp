// Unit tests for the discrete-event simulator and virtual CPU.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"

namespace turq::sim {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, SimultaneousEventsAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(100, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule(10, [&] { ran = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, CancelAfterExecutionIsNoop) {
  Simulator sim;
  const EventId id = sim.schedule(10, [] {});
  sim.run();
  sim.cancel(id);  // must not crash or corrupt
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 5) sim.schedule(10, chain);
  };
  sim.schedule(10, chain);
  sim.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now(), 50);
}

TEST(Simulator, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10, [&] { ++fired; });
  sim.schedule(100, [&] { ++fired; });

  sim.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50);  // clock advances to the deadline when drained

  sim.run_until(100);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilDoesNotRunPastDeadline) {
  Simulator sim;
  bool late_ran = false;
  sim.schedule(100, [&] { late_ran = true; });
  sim.run_until(99);
  EXPECT_FALSE(late_ran);
}

TEST(Simulator, StopHaltsTheLoop) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule(20, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, ScheduleAtAbsoluteTime) {
  Simulator sim;
  SimTime observed = -1;
  sim.schedule_at(12345, [&] { observed = sim.now(); });
  sim.run();
  EXPECT_EQ(observed, 12345);
}

TEST(Simulator, CancelRescheduleReuseIsDeterministic) {
  // Two simulators driven through the same cancel/reschedule mix must
  // produce the same execution order and the same clock — slot reuse and
  // tombstones are invisible to the schedule semantics.
  const auto drive = [](Simulator& sim) {
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 64; ++i) {
      ids.push_back(sim.schedule(10 + 5 * i, [&order, i] { order.push_back(i); }));
    }
    for (int i = 0; i < 64; i += 3) sim.cancel(ids[i]);  // every third dies
    for (int i = 0; i < 32; ++i) {
      // Reschedules land on freed slots; same virtual times as a cancelled
      // batch so ordering falls back to insertion sequence.
      sim.schedule(10 + 15 * i, [&order, i] { order.push_back(1000 + i); });
    }
    sim.run();
    order.push_back(static_cast<int>(sim.now()));
    return order;
  };
  Simulator a;
  Simulator b;
  EXPECT_EQ(drive(a), drive(b));
}

TEST(Simulator, FifoPreservedAcrossSlotReuse) {
  // Simultaneous events stay FIFO in schedule order even when their slots
  // were recycled from cancelled events in a different order.
  Simulator sim;
  std::vector<EventId> victims;
  for (int i = 0; i < 8; ++i) victims.push_back(sim.schedule(500, [] {}));
  for (int i = 7; i >= 0; --i) sim.cancel(victims[i]);  // free in reverse

  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    sim.schedule(100, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Simulator, StaleEventIdIsRejectedAfterSlotReuse) {
  Simulator sim;
  bool survivor_ran = false;
  const EventId old_id = sim.schedule(10, [] {});
  sim.cancel(old_id);
  // The freed slot is recycled for the next event with a bumped generation.
  const EventId new_id = sim.schedule(20, [&] { survivor_ran = true; });
  ASSERT_NE(old_id, new_id);

  sim.cancel(old_id);  // stale generation: must NOT kill the new event
  sim.run();
  EXPECT_TRUE(survivor_ran);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(Simulator, ExecutedEventIdDoesNotCancelSlotSuccessor) {
  Simulator sim;
  const EventId first = sim.schedule(10, [] {});
  sim.run_until(10);  // executes and frees the slot
  bool ran = false;
  sim.schedule(20, [&] { ran = true; });
  sim.cancel(first);  // handle of the already-run event, slot now reused
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, CancelHeavyLoadKeepsQueueBounded) {
  // Tombstone compaction: dead entries may never exceed live ones, so the
  // heap holds at most 2 * pending + 1 entries no matter how many events
  // are cancelled (the old implementation leaked tombstones until pop).
  Simulator sim;
  std::vector<EventId> batch;
  for (int round = 0; round < 200; ++round) {
    batch.clear();
    for (int i = 0; i < 50; ++i) {
      batch.push_back(sim.schedule(1000000 + round, [] {}));
    }
    for (int i = 0; i < 49; ++i) sim.cancel(batch[i]);  // keep one per round
    EXPECT_LE(sim.queue_entries(), 2 * sim.pending() + 1)
        << "round " << round;
  }
  EXPECT_EQ(sim.pending(), 200u);
  sim.run();
  EXPECT_EQ(sim.events_executed(), 200u);
  EXPECT_EQ(sim.queue_entries(), 0u);
  EXPECT_EQ(sim.queue_tombstones(), 0u);
}

TEST(Simulator, ArenaReusesSlotsInsteadOfGrowing) {
  // A schedule→execute ping-pong touches one live event at a time; the
  // arena must keep serving it from the same few slots.
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 10000) sim.schedule(10, chain);
  };
  sim.schedule(10, chain);
  sim.run();
  EXPECT_EQ(fired, 10000);
  EXPECT_LE(sim.arena_slots(), 4u);
}

TEST(Simulator, LaneAndHeapMatchAReferenceOrderedByTimeThenSequence) {
  // Events due at the current instant go to the FIFO lane, the rest to the
  // heap. Drive both with a random mix — many zero delays, cancels of lane
  // and heap events, same-instant events scheduled from callbacks,
  // run_until deadlines and stop() — against a reference that pops the
  // least (time, schedule order) of the live events.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    Simulator sim;
    std::vector<EventId> ids;  // by schedule order
    std::set<std::pair<SimTime, std::size_t>> live;
    std::vector<std::size_t> order;
    bool stop_requested = false;

    std::function<void(std::size_t, SimTime)> fire;
    const auto schedule = [&](SimDuration delay) {
      const std::size_t index = ids.size();
      const SimTime at = sim.now() + delay;
      live.emplace(at, index);
      ids.push_back(sim.schedule(delay, [&fire, index, at] { fire(index, at); }));
    };
    const auto random_delay = [&]() -> SimDuration {
      return rng.uniform(3) == 0 ? 0 : static_cast<SimDuration>(rng.uniform(4));
    };
    const auto cancel_random = [&] {
      if (ids.empty()) return;
      const std::size_t victim = rng.uniform(ids.size());
      sim.cancel(ids[victim]);  // may already have run or been cancelled
      std::erase_if(live, [victim](const auto& e) { return e.second == victim; });
      EXPECT_LE(sim.queue_entries(), 2 * sim.pending() + 1);
    };
    fire = [&](std::size_t index, SimTime at) {
      ASSERT_FALSE(live.empty());
      EXPECT_EQ(*live.begin(), std::pair(at, index)) << "seed " << seed;
      EXPECT_EQ(sim.now(), at);
      live.erase(live.begin());
      order.push_back(index);
      const std::uint64_t spawn = rng.uniform(3);
      for (std::uint64_t i = 0; i < spawn && ids.size() < 4000; ++i) {
        schedule(random_delay());
      }
      if (rng.uniform(4) == 0) cancel_random();
      if (rng.uniform(40) == 0) {
        sim.stop();
        stop_requested = true;
      }
    };

    for (int round = 0; round < 200; ++round) {
      for (std::uint64_t i = rng.uniform(6); i > 0; --i) {
        schedule(random_delay());
      }
      for (std::uint64_t i = rng.uniform(3); i > 0; --i) cancel_random();
      const SimTime before = sim.now();
      const SimTime deadline = before + static_cast<SimTime>(rng.uniform(3));
      stop_requested = false;
      sim.run_until(deadline);
      EXPECT_EQ(sim.pending(), live.size());
      if (stop_requested) {
        EXPECT_LE(sim.now(), deadline);
      } else {
        // Drained up to the deadline, and the clock advanced to it.
        EXPECT_EQ(sim.now(), deadline);
        EXPECT_TRUE(live.empty() || live.begin()->first > deadline);
      }
    }
    while (!sim.idle()) sim.run();
    EXPECT_TRUE(live.empty());
    EXPECT_EQ(sim.events_executed(), order.size());
    EXPECT_EQ(sim.queue_entries(), 0u);
    EXPECT_EQ(sim.queue_tombstones(), 0u);
  }
}

TEST(Simulator, SameInstantEventsGoFirstAfterHeapEventsDueNow) {
  // A heap event due now was scheduled before time reached now, so it
  // runs before a same-instant event scheduled at now, which runs before
  // the next heap event due now scheduled later — pure FIFO by sequence.
  Simulator sim;
  std::vector<int> order;
  sim.schedule(10, [&] {
    order.push_back(1);
    sim.schedule(0, [&] { order.push_back(3); });
    sim.schedule(0, [&] { order.push_back(4); });
  });
  sim.schedule(10, [&] { order.push_back(2); });
  sim.schedule(11, [&] { order.push_back(5); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(VirtualCpu, SerializesWork) {
  Simulator sim;
  VirtualCpu cpu(sim);
  std::vector<SimTime> completions;
  cpu.execute(100, [&] { completions.push_back(sim.now()); });
  cpu.execute(50, [&] { completions.push_back(sim.now()); });
  sim.run();
  // Second job starts only after the first finishes.
  EXPECT_EQ(completions, (std::vector<SimTime>{100, 150}));
  EXPECT_EQ(cpu.total_busy(), 150);
}

TEST(VirtualCpu, ChargeDelaysLaterWork) {
  Simulator sim;
  VirtualCpu cpu(sim);
  cpu.charge(200);
  SimTime done = -1;
  cpu.execute(10, [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, 210);
}

TEST(VirtualCpu, IdleCpuStartsImmediately) {
  Simulator sim;
  VirtualCpu cpu(sim);
  sim.schedule(500, [&] {
    cpu.execute(10, [&] { EXPECT_EQ(sim.now(), 510); });
  });
  sim.run();
  EXPECT_EQ(cpu.free_at(), 510);
}

TEST(VirtualCpu, ZeroCostExecutePreservesOrder) {
  Simulator sim;
  VirtualCpu cpu(sim);
  std::vector<int> order;
  cpu.execute(0, [&] { order.push_back(1); });
  cpu.execute(0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace turq::sim
