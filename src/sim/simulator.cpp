#include "sim/simulator.hpp"

#include <algorithm>
#include <limits>

#include "common/assert.hpp"
#include "trace/trace.hpp"

namespace turq::sim {

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].next_free = kNoSlot;
    return slot;
  }
  TURQ_ASSERT_MSG(slots_.size() < kNoSlot, "event arena exhausted");
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();
  s.live = false;
  if (++s.gen == 0) s.gen = 1;  // ids must never equal kInvalidEvent
  s.next_free = free_head_;
  free_head_ = slot;
}

bool Simulator::is_live(EventId id) const {
  const std::uint32_t slot = id_slot(id);
  return slot < slots_.size() && slots_[slot].live &&
         slots_[slot].gen == id_gen(id);
}

EventId Simulator::schedule(SimDuration delay, Callback fn) {
  TURQ_ASSERT_MSG(delay >= 0, "cannot schedule into the past");
  return schedule_at(now_ + delay, std::move(fn));
}

EventId Simulator::schedule_at(SimTime at, Callback fn) {
  TURQ_ASSERT_MSG(at >= now_, "cannot schedule into the past");
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.live = true;
  const EventId id = make_id(s.gen, slot);
  const QueueEntry entry{.at = at, .seq = ++seq_, .id = id};
  if (at == now_) {
    // Drop the popped prefix once it is half the lane: the entries moved
    // never outnumber those popped since the last drop, so pushes stay
    // amortized O(1) and the capacity about twice the most same-instant
    // events ever pending at once.
    if (2 * lane_head_ >= lane_.size()) {
      lane_.erase(lane_.begin(),
                  lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_));
      lane_head_ = 0;
    }
    lane_.push_back(entry);
  } else {
    heap_.push_back(entry);
    std::push_heap(heap_.begin(), heap_.end(), EntryAfter{});
  }
  ++pending_;
  return id;
}

void Simulator::cancel(EventId id) {
  if (!is_live(id)) return;  // already ran, cancelled, or stale generation
  release_slot(id_slot(id));
  --pending_;
  ++dead_;
  // The queue entry stays behind as a tombstone (skipped on pop by the
  // generation check). Compact once tombstones outnumber live entries so
  // cancel-heavy workloads (e.g. per-tick timer rearming) cannot grow the
  // queue beyond 2x the pending count.
  if (dead_ > pending_ && dead_ > 1) compact();
}

void Simulator::compact() {
  const auto dead = [this](const QueueEntry& e) { return !is_live(e.id); };
  std::erase_if(heap_, dead);
  std::make_heap(heap_.begin(), heap_.end(), EntryAfter{});
  lane_.erase(lane_.begin(),
              lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_));
  lane_head_ = 0;
  std::erase_if(lane_, dead);  // keeps the lane's order
  dead_ = 0;
}

const Simulator::QueueEntry* Simulator::peek_next(bool& from_lane) {
  while (!heap_.empty() && !is_live(heap_.front().id)) {
    std::pop_heap(heap_.begin(), heap_.end(), EntryAfter{});
    heap_.pop_back();
    --dead_;
  }
  while (lane_head_ < lane_.size() && !is_live(lane_[lane_head_].id)) {
    ++lane_head_;
    --dead_;
  }
  if (lane_head_ == lane_.size()) {
    from_lane = false;
    return heap_.empty() ? nullptr : &heap_.front();
  }
  // A heap entry due now was scheduled before time reached now, so its seq
  // is below every lane entry's and it goes first.
  from_lane = heap_.empty() || EntryAfter{}(heap_.front(), lane_[lane_head_]);
  return from_lane ? &lane_[lane_head_] : &heap_.front();
}

bool Simulator::execute_next(SimTime deadline) {
  bool from_lane = false;
  const QueueEntry* next = peek_next(from_lane);
  if (next == nullptr || next->at > deadline) return false;
  const QueueEntry entry = *next;
  if (from_lane) {
    ++lane_head_;
  } else {
    std::pop_heap(heap_.begin(), heap_.end(), EntryAfter{});
    heap_.pop_back();
  }
  // Move the callback out and recycle the slot before invoking: the
  // callback may itself schedule events into the slot just released.
  Callback fn = std::move(slots_[id_slot(entry.id)].fn);
  release_slot(id_slot(entry.id));
  --pending_;
  now_ = entry.at;
  ++executed_;
#if TURQ_TRACE_ENABLED
  // Per-dispatch events are voluminous; they are only recorded when the
  // installed tracer asked for them. The insertion sequence is the
  // stable per-event identifier (arena slot ids are recycled).
  if (trace::Tracer* t = trace::current(); t && t->options().sim_events) {
    t->emit(trace::TraceEvent{.at = now_,
                              .category = trace::Category::kSim,
                              .kind = trace::Kind::kSimEvent,
                              .value = static_cast<std::int64_t>(entry.seq)});
  }
#endif
  fn();
  return true;
}

std::size_t Simulator::run_until(SimTime deadline) {
  std::size_t count = 0;
  stopped_ = false;
  while (!stopped_ && execute_next(deadline)) ++count;
  // Virtual time advances to the deadline whenever we drained everything
  // scheduled up to it — callers polling in wall slices rely on this.
  if (!stopped_ && now_ < deadline) now_ = deadline;
  return count;
}

std::size_t Simulator::run(std::size_t max_events) {
  std::size_t count = 0;
  stopped_ = false;
  while (!stopped_ && count < max_events &&
         execute_next(std::numeric_limits<SimTime>::max())) {
    ++count;
  }
  TURQ_ASSERT_MSG(count < max_events, "simulator hit the event safety stop");
  return count;
}

}  // namespace turq::sim
