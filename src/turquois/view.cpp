#include "turquois/view.hpp"

#include <algorithm>

#include "turquois/config.hpp"

namespace turq::turquois {

namespace {
template <typename Books>
auto lower_bound_phase(Books& books, Phase phase) {
  return std::lower_bound(
      books.begin(), books.end(), phase,
      [](const auto& book, Phase p) { return book.phase < p; });
}
}  // namespace

const View::PhaseBook* View::find(Phase phase) const {
  const auto it = lower_bound_phase(books_, phase);
  return it != books_.end() && it->phase == phase ? &*it : nullptr;
}

void View::clear() {
  books_.clear();
  total_ = 0;
}

bool View::insert(const Message& m) {
  TURQ_ASSERT_MSG(m.sender < SenderSet::kCapacity,
                  "view senders must be below SenderSet::kCapacity");
  auto it = lower_bound_phase(books_, m.phase);
  if (it == books_.end() || it->phase != m.phase) {
    it = books_.emplace(it);
    it->phase = m.phase;
    it->slots.resize(slot_width_);
  } else if (it->senders.contains(m.sender)) {
    return false;
  }
  PhaseBook& book = *it;
  if (m.sender >= book.slots.size()) {
    book.slots.resize(m.sender + 1);
    slot_width_ = std::max(slot_width_, book.slots.size());
  }
  book.slots[m.sender] = m;
  book.senders.insert(m.sender);
  ++book.value_count[static_cast<std::size_t>(m.value)];
  ++total_;
  return true;
}

bool View::has(ProcessId sender, Phase phase) const {
  const PhaseBook* book = find(phase);
  return book != nullptr && book->senders.contains(sender);
}

SenderSet View::senders_at(Phase phase) const {
  const PhaseBook* book = find(phase);
  return book == nullptr ? SenderSet{} : book->senders;
}

std::size_t View::count_phase(Phase phase) const {
  const PhaseBook* book = find(phase);
  if (book == nullptr) return 0;
  // Every message counts under exactly one value, so the per-value counts
  // sum to senders.count() without a popcount.
  return book->value_count[0] + book->value_count[1] + book->value_count[2];
}

std::size_t View::count_phase_value(Phase phase, Value v) const {
  const PhaseBook* book = find(phase);
  return book == nullptr ? 0
                         : book->value_count[static_cast<std::size_t>(v)];
}

std::size_t View::count_phase_at_least(Phase phase) const {
  SenderSet seen;
  for (auto it = lower_bound_phase(books_, phase); it != books_.end(); ++it) {
    seen |= it->senders;
  }
  return seen.count();
}

Value View::majority_value(Phase phase) const {
  const std::size_t zeros = count_phase_value(phase, Value::kZero);
  const std::size_t ones = count_phase_value(phase, Value::kOne);
  return zeros > ones ? Value::kZero : Value::kOne;
}

const Message* View::highest_phase_message() const {
  if (books_.empty()) return nullptr;
  const PhaseBook& top = books_.back();
  return &top.slots[top.senders.next(0)];
}

void View::append_at(std::vector<const Message*>& out, Phase phase,
                     std::optional<Value> value, std::size_t limit) const {
  const PhaseBook* book = find(phase);
  if (book == nullptr) return;
  std::size_t added = 0;
  for (ProcessId s = book->senders.next(0);
       s < SenderSet::kCapacity && added < limit;
       s = book->senders.next(s + 1)) {
    const Message& m = book->slots[s];
    if (value.has_value() && m.value != *value) continue;
    out.push_back(&m);
    ++added;
  }
}

bool has_decide_quorum(const View& view, const Config& cfg, Value v) {
  const Message* highest = view.highest_phase_message();
  if (highest == nullptr) return false;
  for (Phase phase = 3; phase <= highest->phase; phase += 3) {
    if (cfg.exceeds_quorum(view.count_phase_value(phase, v))) return true;
  }
  return false;
}

}  // namespace turq::turquois
