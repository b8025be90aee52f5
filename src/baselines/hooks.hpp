// Observation hooks shared by the four baseline processes (Bracha, ABBA,
// Crain, AbsMac) — the same surface shape as turquois::ProcessHooks, so
// every protocol wires up identically in the harness — and the decision
// latch that fires on_decide.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "common/types.hpp"
#include "runtime/runtime.hpp"

namespace turq::baselines {

using DecideHandler = std::function<void(Value, std::uint32_t round, SimTime)>;
/// Round-entry callback, fired whenever the process advances to a new
/// round. Purely observational (consensus auditor); never steers the run.
using RoundHandler = std::function<void(std::uint32_t round, SimTime)>;

/// Construction-time observation hooks.
struct ProcessHooks {
  DecideHandler on_decide;
  RoundHandler on_round;
};

/// A process's decision. The first decide() records the value and its
/// round, emits the kDecide trace event and fires on_decide; later calls
/// change nothing.
class Decision {
 public:
  explicit Decision(DecideHandler on_decide)
      : on_decide_(std::move(on_decide)) {}

  void decide(const runtime::Runtime& rt, ProcessId id, Value v,
              std::uint32_t round);

  [[nodiscard]] bool has_value() const { return value_.has_value(); }
  [[nodiscard]] Value value() const { return *value_; }
  [[nodiscard]] std::uint32_t round() const { return round_; }

 private:
  DecideHandler on_decide_;
  std::optional<Value> value_;
  std::uint32_t round_ = 0;
};

}  // namespace turq::baselines
