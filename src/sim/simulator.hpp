// Deterministic discrete-event simulator.
//
// Single-threaded virtual-time event loop: events execute in (time, insertion
// sequence) order, so runs are exactly reproducible. All protocol stacks,
// the radio medium, and the virtual CPUs schedule through this class.
//
// Storage is a pooled event-slot arena: each pending event lives in a
// recycled Slot (callback + generation tag), addressed by a free-list.
// EventId packs (generation << 32) | slot, so cancel() is an O(1) array
// probe — a stale id simply fails the generation check — instead of a hash
// map erase. The ready queue has two parts: a binary heap of (time, seq)
// keys over slot ids for future events, and a FIFO lane for events
// scheduled at the current instant (loopbacks, deliveries, zero-delay
// work), which skip the heap's sifts. Both parts are sorted by (time, seq)
// — lane entries are appended with time = now(), which never decreases, and
// a growing seq — so popping the smaller of the two fronts is exactly the
// single-heap order. Cancelled entries in either part become tombstones
// that are skipped on pop and compacted away whenever they outnumber the
// live entries, which bounds the queue at 2x the pending-event count. In
// steady state (slots, heap and lane capacity warmed up, captures within
// InlineFunction's inline buffer) schedule/cancel/execute perform zero heap
// allocations.
#pragma once

#include <cstdint>
#include <vector>

#include "common/inline_function.hpp"
#include "common/types.hpp"

namespace turq::sim {

/// Handle for cancelling a scheduled event: (generation << 32) | slot.
/// Generations start at 1, so no valid handle equals kInvalidEvent.
using EventId = std::uint64_t;

constexpr EventId kInvalidEvent = 0;

class Simulator {
 public:
  /// Event callback. Move-only; captures up to InlineFunction::kInlineSize
  /// bytes are stored without heap allocation.
  using Callback = InlineFunction;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` to run `delay` from now. Returns a cancellable handle.
  EventId schedule(SimDuration delay, Callback fn);

  /// Schedules `fn` at absolute time `at` (must be >= now()).
  EventId schedule_at(SimTime at, Callback fn);

  /// Cancels a pending event; no-op if it already ran or was cancelled
  /// (the generation tag in the id rejects stale handles).
  void cancel(EventId id);

  /// Runs events until the queue is empty or `deadline` is passed.
  /// Returns the number of events executed.
  std::size_t run_until(SimTime deadline);

  /// Runs until the queue drains (bounded by `max_events` as a safety stop).
  std::size_t run(std::size_t max_events = 100'000'000);

  /// Requests the run loop to stop after the current event.
  void stop() { stopped_ = true; }

  [[nodiscard]] bool idle() const { return pending_ == 0; }

  /// Live (not cancelled, not yet executed) events.
  [[nodiscard]] std::size_t pending() const { return pending_; }
  [[nodiscard]] std::size_t events_executed() const { return executed_; }

  /// Number of queue entries (heap and lane) currently held, live +
  /// tombstones. Compaction keeps this <= 2 * pending events + 1
  /// (observable in tests).
  [[nodiscard]] std::size_t queue_entries() const {
    return heap_.size() + (lane_.size() - lane_head_);
  }
  /// Cancelled entries still awaiting skip-on-pop or compaction.
  [[nodiscard]] std::size_t queue_tombstones() const { return dead_; }
  /// Slots in the arena (high-water mark of concurrently pending events).
  [[nodiscard]] std::size_t arena_slots() const { return slots_.size(); }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffff'ffffu;

  struct Slot {
    Callback fn;
    std::uint32_t gen = 1;        // bumped on every release; never 0
    std::uint32_t next_free = kNoSlot;
    bool live = false;
  };

  struct QueueEntry {
    SimTime at;
    std::uint64_t seq;  // insertion order: FIFO among simultaneous events
    EventId id;
  };

  /// Min-heap comparator (std::push_heap builds a max-heap, so "greater").
  struct EntryAfter {
    bool operator()(const QueueEntry& a, const QueueEntry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  static constexpr EventId make_id(std::uint32_t gen, std::uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }
  static constexpr std::uint32_t id_slot(EventId id) {
    return static_cast<std::uint32_t>(id);
  }
  static constexpr std::uint32_t id_gen(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

  [[nodiscard]] std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  /// True when `id` names the live event its generation was minted for.
  [[nodiscard]] bool is_live(EventId id) const;
  /// Drops every tombstone from the heap and the lane, and restores the
  /// heap property. Safe because pop order is a strict total order on
  /// (at, seq).
  void compact();

  /// Pops tombstones off the fronts of the heap and the lane, then names
  /// the part holding the next live event in (at, seq) order. Returns null
  /// when no event is pending.
  [[nodiscard]] const QueueEntry* peek_next(bool& from_lane);

  /// Executes the next event if it is due at or before `deadline`; returns
  /// false when none is.
  bool execute_next(SimTime deadline);

  SimTime now_ = 0;
  std::uint64_t seq_ = 0;  // pre-incremented: first event gets seq 1
  std::size_t pending_ = 0;
  std::size_t executed_ = 0;
  std::size_t dead_ = 0;  // tombstones currently in heap_ and the lane
  bool stopped_ = false;
  std::uint32_t free_head_ = kNoSlot;
  std::vector<Slot> slots_;
  std::vector<QueueEntry> heap_;
  /// Events due at the instant they were scheduled at, in insertion
  /// order; the entries before lane_head_ have been popped, and
  /// schedule_at() drops them (keeping the capacity) once they make up
  /// half the lane.
  std::vector<QueueEntry> lane_;
  std::size_t lane_head_ = 0;
};

}  // namespace turq::sim
