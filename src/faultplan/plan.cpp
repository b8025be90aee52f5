#include "faultplan/plan.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

namespace turq::faultplan {

std::string to_string(Role role) {
  switch (role) {
    case Role::kNone: return "none";
    case Role::kFailStop: return "fail-stop";
    case Role::kByzantine: return "Byzantine";
  }
  return "?";
}

const char* to_string(ClauseKind kind) {
  switch (kind) {
    case ClauseKind::kAmbient: return "ambient";
    case ClauseKind::kIid: return "iid";
    case ClauseKind::kBurst: return "burst";
    case ClauseKind::kJam: return "jam";
    case ClauseKind::kCrash: return "crash";
    case ClauseKind::kAdaptive: return "adaptive";
    case ClauseKind::kSigma: return "sigma";
  }
  return "?";
}

bool FaultPlan::wants_sigma() const {
  if (track_sigma) return true;
  return std::any_of(clauses.begin(), clauses.end(), [](const Clause& c) {
    return c.kind == ClauseKind::kAdaptive || c.kind == ClauseKind::kSigma;
  });
}

namespace {

std::optional<std::string> validate_ids(const std::vector<ProcessId>& ids,
                                        std::uint32_t n, const char* what) {
  for (const ProcessId id : ids) {
    if (id >= n) {
      return std::string(what) + " id " + std::to_string(id) +
             " is outside the group (n = " + std::to_string(n) + ")";
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> FaultPlan::validate(std::uint32_t n) const {
  if (sigma_round < 0) return "sigma_round must be >= 0";
  for (std::size_t i = 0; i < clauses.size(); ++i) {
    const Clause& c = clauses[i];
    const std::string where =
        "clause " + std::to_string(i) + " (" + to_string(c.kind) + "): ";
    for (const Window& w : c.windows) {
      if (w.start < 0 || w.end <= w.start) {
        return where + "window [" + std::to_string(w.start) + ", " +
               std::to_string(w.end) + ") is empty or negative";
      }
    }
    if (auto r = validate_ids(c.src_scope, n, "src_scope")) return where + *r;
    if (auto r = validate_ids(c.dst_scope, n, "dst_scope")) return where + *r;
    switch (c.kind) {
      case ClauseKind::kAmbient:
      case ClauseKind::kSigma:
        break;
      case ClauseKind::kIid:
        if (c.p < 0.0 || c.p > 1.0) {
          return where + "loss probability p must be in [0, 1]";
        }
        break;
      case ClauseKind::kBurst:
        if (c.burst.loss_good < 0.0 || c.burst.loss_good > 1.0 ||
            c.burst.loss_bad < 0.0 || c.burst.loss_bad > 1.0) {
          return where + "burst loss probabilities must be in [0, 1]";
        }
        if (c.burst.mean_good_dwell <= 0 || c.burst.mean_bad_dwell <= 0) {
          return where + "burst dwell times must be positive";
        }
        break;
      case ClauseKind::kJam:
        if (c.windows.empty()) {
          return where + "jam needs at least one @window";
        }
        break;
      case ClauseKind::kCrash:
        if (c.processes.empty() && c.crash_count == 0) {
          return where + "crash needs ids=... or count=...";
        }
        if (c.crash_count > n) {
          return where + "count exceeds the group size";
        }
        if (auto r = validate_ids(c.processes, n, "crash")) return where + *r;
        if (c.recover_at.has_value() && *c.recover_at <= c.crash_at) {
          return where + "recover time must be after the crash time";
        }
        break;
      case ClauseKind::kAdaptive:
        if (c.sigma_fraction < 0.0 || c.sigma_fraction > 64.0) {
          return where + "frac must be in [0, 64]";
        }
        break;
    }
  }
  return std::nullopt;
}

FaultPlan canned_plan(Role role, std::string name) {
  FaultPlan plan;
  plan.name = std::move(name);
  plan.role = role;
  Clause ambient;
  ambient.kind = ClauseKind::kAmbient;
  plan.clauses.push_back(std::move(ambient));
  return plan;
}

// ----------------------------------------------------------------- sigma --

SigmaAccountant::SigmaAccountant(std::int64_t bound,
                                 SimDuration round_duration)
    : bound_(bound), round_(round_duration > 0 ? round_duration : kMillisecond) {}

std::uint64_t SigmaAccountant::round_of(SimTime now) const {
  if (now < 0) return 0;
  return static_cast<std::uint64_t>(now / round_);
}

void SigmaAccountant::observe(SimTime now) {
  const std::uint64_t round = round_of(now);
  if (per_round_.size() <= round) per_round_.resize(round + 1, 0);
}

void SigmaAccountant::record_omission(SimTime now) {
  observe(now);
  ++per_round_[round_of(now)];
}

SigmaSummary SigmaAccountant::summary() const {
  SigmaSummary s;
  s.bound = bound_;
  s.rounds = per_round_.size();
  for (const std::uint64_t count : per_round_) {
    s.omissions += count;
    s.max_round_omissions = std::max(s.max_round_omissions, count);
    if (count > static_cast<std::uint64_t>(std::max<std::int64_t>(bound_, 0))) {
      ++s.violating_rounds;
    }
  }
  return s;
}

// ----------------------------------------------------------------- build --

namespace {

/// Restricts a child injector to activation windows and/or link subsets.
class ScopedInjector final : public net::FaultInjector {
 public:
  ScopedInjector(std::vector<Window> windows, std::vector<ProcessId> srcs,
                 std::vector<ProcessId> dsts,
                 std::unique_ptr<net::FaultInjector> child)
      : windows_(std::move(windows)),
        srcs_(srcs.begin(), srcs.end()),
        dsts_(dsts.begin(), dsts.end()),
        child_(std::move(child)) {}

  bool drop(ProcessId src, ProcessId dst, SimTime now,
            std::size_t frame_bytes) override {
    if (!windows_.empty()) {
      const bool active =
          std::any_of(windows_.begin(), windows_.end(),
                      [now](const Window& w) { return w.contains(now); });
      if (!active) return false;
    }
    if (!srcs_.empty() && !srcs_.contains(src)) return false;
    if (!dsts_.empty() && !dsts_.contains(dst)) return false;
    return child_->drop(src, dst, now, frame_bytes);
  }

 private:
  std::vector<Window> windows_;
  std::unordered_set<ProcessId> srcs_;
  std::unordered_set<ProcessId> dsts_;
  std::unique_ptr<net::FaultInjector> child_;
};

/// Root wrapper that meters every injected omission into a SigmaAccountant.
class SigmaMeter final : public net::FaultInjector {
 public:
  SigmaMeter(std::unique_ptr<net::FaultInjector> inner, std::int64_t bound,
             SimDuration round_duration)
      : inner_(std::move(inner)), accountant_(bound, round_duration) {}

  bool drop(ProcessId src, ProcessId dst, SimTime now,
            std::size_t frame_bytes) override {
    accountant_.observe(now);
    const bool dropped = inner_->drop(src, dst, now, frame_bytes);
    if (dropped) accountant_.record_omission(now);
    return dropped;
  }

  [[nodiscard]] SigmaAccountant& accountant() { return accountant_; }

 private:
  std::unique_ptr<net::FaultInjector> inner_;
  SigmaAccountant accountant_;
};

/// Wraps `base` in a ScopedInjector when the clause carries windows or a
/// link scope. kJam consumes its windows itself (they are the payload).
std::unique_ptr<net::FaultInjector> scoped(const Clause& clause,
                                           std::unique_ptr<net::FaultInjector> base) {
  std::vector<Window> windows =
      clause.kind == ClauseKind::kJam ? std::vector<Window>{} : clause.windows;
  if (windows.empty() && clause.src_scope.empty() && clause.dst_scope.empty()) {
    return base;
  }
  return std::make_unique<ScopedInjector>(std::move(windows), clause.src_scope,
                                          clause.dst_scope, std::move(base));
}

/// The crash/churn member set: explicit ids plus the last `crash_count`
/// processes (the same tail the harness designates faulty).
std::unordered_set<ProcessId> crash_members(const Clause& clause,
                                            std::uint32_t n) {
  std::unordered_set<ProcessId> members(clause.processes.begin(),
                                        clause.processes.end());
  for (std::uint32_t i = 0; i < clause.crash_count && i < n; ++i) {
    members.insert(n - 1 - i);
  }
  return members;
}

}  // namespace

std::int64_t sigma_bound_of(const BuildContext& ctx) {
  return std::max<std::int64_t>(
      turquois::sigma_bound(ctx.n, ctx.k, ctx.t), 0);
}

BuiltPlan build(const FaultPlan& plan, const BuildContext& ctx) {
  auto composite = std::make_unique<net::CompositeFaults>();
  const std::int64_t bound = sigma_bound_of(ctx);
  const SimDuration round =
      plan.sigma_round > 0 ? plan.sigma_round : ctx.round_duration;

  // Dedicated stream per stochastic clause: tag by kind, index by order of
  // appearance within that kind. The canned plans' single kAmbient clause
  // therefore draws exactly the legacy ("loss", 0) / ("burst", 0) streams.
  std::uint64_t iid_streams = 0;
  std::uint64_t burst_streams = 0;

  for (const Clause& clause : plan.clauses) {
    switch (clause.kind) {
      case ClauseKind::kAmbient: {
        if (ctx.ambient_loss_rate > 0) {
          composite->add(scoped(
              clause, std::make_unique<net::IidLoss>(
                          ctx.ambient_loss_rate,
                          ctx.root.derive("loss", iid_streams++))));
        }
        if (ctx.ambient_bursts) {
          composite->add(scoped(
              clause, std::make_unique<net::GilbertElliott>(
                          ctx.ambient_burst_params,
                          ctx.root.derive("burst", burst_streams++), ctx.n)));
        }
        break;
      }
      case ClauseKind::kIid:
        composite->add(scoped(
            clause, std::make_unique<net::IidLoss>(
                        clause.p, ctx.root.derive("loss", iid_streams++))));
        break;
      case ClauseKind::kBurst:
        composite->add(scoped(
            clause, std::make_unique<net::GilbertElliott>(
                        clause.burst,
                        ctx.root.derive("burst", burst_streams++), ctx.n)));
        break;
      case ClauseKind::kJam: {
        std::vector<std::pair<SimTime, SimTime>> windows;
        windows.reserve(clause.windows.size());
        for (const Window& w : clause.windows) {
          windows.emplace_back(w.start, w.end);
        }
        composite->add(scoped(
            clause, std::make_unique<net::JammingWindows>(std::move(windows))));
        break;
      }
      case ClauseKind::kCrash: {
        auto members = crash_members(clause, ctx.n);
        if (clause.crash_at == 0 && !clause.recover_at.has_value()) {
          // Permanent from t=0: the plain CrashSet covers it.
          composite->add(scoped(
              clause, std::make_unique<net::CrashSet>(
                          std::unordered_set<ProcessId>(members))));
        } else {
          // Crash-recover churn: silenced in both directions inside
          // [crash_at, recover_at).
          const SimTime from = clause.crash_at;
          const SimTime until = clause.recover_at.value_or(
              std::numeric_limits<SimTime>::max());
          composite->add(scoped(
              clause,
              std::make_unique<net::TargetedOmission>(
                  [members = std::move(members), from, until](
                      ProcessId src, ProcessId dst, SimTime now) {
                    if (now < from || now >= until) return false;
                    return members.contains(src) || members.contains(dst);
                  })));
        }
        break;
      }
      case ClauseKind::kAdaptive: {
        // Greedy per-round adversary: spend the budget on the first
        // receptions of each round, then go quiet until the next round —
        // deterministic (no Rng) and maximally front-loaded, the shape the
        // paper's σ analysis is adversarial against.
        struct AdaptiveState {
          std::uint64_t budget = 0;
          SimDuration round = kMillisecond;
          std::uint64_t current_round = std::numeric_limits<std::uint64_t>::max();
          std::uint64_t spent = 0;
        };
        auto state = std::make_shared<AdaptiveState>();
        state->budget = static_cast<std::uint64_t>(std::floor(
            clause.sigma_fraction * static_cast<double>(bound)));
        state->round = round;
        composite->add(scoped(
            clause, std::make_unique<net::TargetedOmission>(
                        [state](ProcessId, ProcessId, SimTime now) {
                          const std::uint64_t r = now < 0
                              ? 0
                              : static_cast<std::uint64_t>(now / state->round);
                          if (r != state->current_round) {
                            state->current_round = r;
                            state->spent = 0;
                          }
                          if (state->spent >= state->budget) return false;
                          ++state->spent;
                          return true;
                        })));
        break;
      }
      case ClauseKind::kSigma:
        break;  // accounting only; handled below
    }
  }

  BuiltPlan built;
  if (plan.wants_sigma()) {
    auto meter = std::make_unique<SigmaMeter>(std::move(composite), bound, round);
    built.sigma = &meter->accountant();
    built.injector = std::move(meter);
  } else {
    built.injector = std::move(composite);
  }
  return built;
}

}  // namespace turq::faultplan
