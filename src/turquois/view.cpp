#include "turquois/view.hpp"

#include "turquois/config.hpp"

namespace turq::turquois {

View::View(const View& other)
    : phases_(other.phases_), total_(other.total_) {
  if (other.highest_ != nullptr) {
    highest_ = &phases_.at(other.highest_->phase)
                    .by_sender.at(other.highest_->sender);
  }
}

View& View::operator=(const View& other) {
  if (this == &other) return *this;
  phases_ = other.phases_;
  total_ = other.total_;
  highest_ = nullptr;
  if (other.highest_ != nullptr) {
    highest_ = &phases_.at(other.highest_->phase)
                    .by_sender.at(other.highest_->sender);
  }
  return *this;
}

void View::clear() {
  phases_.clear();
  total_ = 0;
  highest_ = nullptr;
}

bool View::insert(const Message& m) {
  PhaseBook& book = phases_[m.phase];
  const auto [it, inserted] = book.by_sender.emplace(m.sender, m);
  if (!inserted) return false;
  if (m.sender < SenderSet::kCapacity) book.senders.insert(m.sender);
  ++book.value_count[static_cast<std::size_t>(m.value)];
  ++total_;
  if (highest_ == nullptr || m.phase > highest_->phase ||
      (m.phase == highest_->phase && m.sender < highest_->sender)) {
    highest_ = &it->second;
  }
  return true;
}

bool View::has(ProcessId sender, Phase phase) const {
  const auto it = phases_.find(phase);
  if (it == phases_.end()) return false;
  if (sender < SenderSet::kCapacity) return it->second.senders.contains(sender);
  return it->second.by_sender.contains(sender);
}

std::size_t View::count_phase(Phase phase) const {
  const auto it = phases_.find(phase);
  return it == phases_.end() ? 0 : it->second.by_sender.size();
}

std::size_t View::count_phase_value(Phase phase, Value v) const {
  const auto it = phases_.find(phase);
  return it == phases_.end()
             ? 0
             : it->second.value_count[static_cast<std::size_t>(v)];
}

std::size_t View::count_phase_at_least(Phase phase) const {
  // Distinct senders with any message at phase >= `phase`: union the
  // per-phase bitsets; ids beyond the bitset capacity (hand-built test
  // views only) fall back to a scan.
  SenderSet seen;
  std::vector<ProcessId> seen_large;
  for (auto it = phases_.lower_bound(phase); it != phases_.end(); ++it) {
    const PhaseBook& book = it->second;
    seen |= book.senders;
    if (book.senders.count() == book.by_sender.size()) continue;
    for (const auto& [sender, msg] : book.by_sender) {
      if (sender < SenderSet::kCapacity) continue;
      bool dup = false;
      for (const ProcessId s : seen_large) dup |= (s == sender);
      if (!dup) seen_large.push_back(sender);
    }
  }
  return seen.count() + seen_large.size();
}

Value View::majority_value(Phase phase) const {
  const std::size_t zeros = count_phase_value(phase, Value::kZero);
  const std::size_t ones = count_phase_value(phase, Value::kOne);
  return zeros > ones ? Value::kZero : Value::kOne;
}

const Message* View::highest_phase_message() const { return highest_; }

std::vector<const Message*> View::messages_at(Phase phase) const {
  std::vector<const Message*> out;
  const auto it = phases_.find(phase);
  if (it == phases_.end()) return out;
  out.reserve(it->second.by_sender.size());
  for (const auto& [sender, msg] : it->second.by_sender) out.push_back(&msg);
  return out;
}

std::vector<const Message*> View::messages_at_with_value(
    Phase phase, Value v, std::size_t limit) const {
  std::vector<const Message*> out;
  const auto it = phases_.find(phase);
  if (it == phases_.end()) return out;
  for (const auto& [sender, msg] : it->second.by_sender) {
    if (msg.value != v) continue;
    out.push_back(&msg);
    if (out.size() == limit) break;
  }
  return out;
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
