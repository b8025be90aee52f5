// Transmission-fault injection policies.
//
// The paper's model allows *dynamic omission transmission faults*: any
// broadcast may be received by some nodes and missed by others, with no
// pattern restriction (safety must hold even under 100% loss). The medium
// consults a FaultInjector once per (frame, receiver) to decide omission,
// on top of the collisions it models itself.
//
// These are the primitive injectors; declarative composition (time
// windows, link scoping, crash/recover churn, σ-budget adversaries) lives
// one layer up in src/faultplan, which assembles them into a single tree
// per scenario.
//
// Stream-ownership contract: the stochastic injectors (IidLoss,
// GilbertElliott) hold their Rng *by value*, so two injectors constructed
// from the same Rng object replay the same random stream in lockstep —
// correlated faults where independent ones were intended. Always hand each
// injector its own derived stream (`rng.derive(tag, index)`); faultplan's
// build() does this per clause, indexing streams by kind and order of
// appearance.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace turq::net {

class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  /// True if the frame from `src` should be omitted at `dst`.
  virtual bool drop(ProcessId src, ProcessId dst, SimTime now,
                    std::size_t frame_bytes) = 0;
};

/// No injected faults (collisions still occur in the medium).
class NoFaults final : public FaultInjector {
 public:
  bool drop(ProcessId, ProcessId, SimTime, std::size_t) override {
    return false;
  }
};

/// Independent, identically distributed loss with probability `p` per
/// (frame, receiver).
class IidLoss final : public FaultInjector {
 public:
  IidLoss(double p, Rng rng) : p_(p), rng_(rng) {}
  bool drop(ProcessId, ProcessId, SimTime, std::size_t) override {
    return rng_.bernoulli(p_);
  }

 private:
  double p_;
  Rng rng_;
};

/// Two-state Gilbert–Elliott burst-loss model, evolved per link in
/// continuous time: dwell times in the good/bad state are exponential with
/// the given means; each state has its own loss probability. Every link
/// starts in the good state at t=0.
class GilbertElliott final : public FaultInjector {
 public:
  struct Params {
    SimDuration mean_good_dwell = 500 * kMillisecond;
    SimDuration mean_bad_dwell = 50 * kMillisecond;
    double loss_good = 0.005;
    double loss_bad = 0.6;
  };

  /// `n` sizes the link table for ids [0, n); a larger id grows it.
  GilbertElliott(Params params, Rng rng, std::uint32_t n = 0)
      : params_(params), rng_(rng) {
    grow(n);
  }

  bool drop(ProcessId src, ProcessId dst, SimTime now, std::size_t) override;

 private:
  struct LinkState {
    bool bad = false;
    SimTime last_update = 0;
  };

  LinkState& link(ProcessId src, ProcessId dst);
  void grow(std::uint32_t n);

  Params params_;
  Rng rng_;
  // Dense n x n table, row src, column dst: drop() consults one link per
  // delivery. Links are only ever read and written one at a time, so the
  // layout cannot affect the random stream or any simulated outcome.
  std::uint32_t n_ = 0;
  std::vector<LinkState> links_;
};

/// Drops every frame that ends inside one of the given [start, end) windows
/// — a jamming attack, the paper's example of harsh omission conditions.
class JammingWindows final : public FaultInjector {
 public:
  explicit JammingWindows(std::vector<std::pair<SimTime, SimTime>> windows)
      : windows_(std::move(windows)) {}

  bool drop(ProcessId, ProcessId, SimTime now, std::size_t) override {
    for (const auto& [start, end] : windows_) {
      if (now >= start && now < end) return true;
    }
    return false;
  }

 private:
  std::vector<std::pair<SimTime, SimTime>> windows_;
};

/// Arbitrary per-(src, dst, time) policy — used by the σ-bound experiments
/// to place an exact number of omissions per communication round.
class TargetedOmission final : public FaultInjector {
 public:
  using Policy = std::function<bool(ProcessId src, ProcessId dst, SimTime now)>;
  explicit TargetedOmission(Policy policy) : policy_(std::move(policy)) {}

  bool drop(ProcessId src, ProcessId dst, SimTime now, std::size_t) override {
    return policy_(src, dst, now);
  }

 private:
  Policy policy_;
};

/// Silences a set of crashed processes in both directions.
class CrashSet final : public FaultInjector {
 public:
  explicit CrashSet(std::unordered_set<ProcessId> crashed)
      : crashed_(std::move(crashed)) {}

  void crash(ProcessId id) { crashed_.insert(id); }

  bool drop(ProcessId src, ProcessId dst, SimTime, std::size_t) override {
    return crashed_.contains(src) || crashed_.contains(dst);
  }

 private:
  std::unordered_set<ProcessId> crashed_;
};

/// Logical OR of several injectors: a frame is dropped if any child drops it.
class CompositeFaults final : public FaultInjector {
 public:
  void add(std::unique_ptr<FaultInjector> child) {
    children_.push_back(std::move(child));
  }

  bool drop(ProcessId src, ProcessId dst, SimTime now,
            std::size_t frame_bytes) override {
    for (const auto& child : children_) {
      if (child->drop(src, dst, now, frame_bytes)) return true;
    }
    return false;
  }

 private:
  std::vector<std::unique_ptr<FaultInjector>> children_;
};

}  // namespace turq::net
