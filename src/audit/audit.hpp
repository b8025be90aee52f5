// Run-time consensus-property auditor.
//
// A ConsensusAuditor observes one repetition of any protocol (Turquois,
// Bracha, ABBA) through the existing propose/phase/decide hooks and checks
// the paper's correctness claims (§5, Theorems 1-3) against what actually
// happened:
//
//   * Validity            — every decided value was proposed by a correct
//                           process (Theorem 1);
//   * Agreement           — no two correct processes decide differently
//                           (Theorem 2);
//   * Unanimity           — when every correct process proposes the same
//                           value, that value is the only possible decision
//                           (the Validity corollary the unanimous load
//                           exercises);
//   * Phase monotonicity  — a correct process's phase/round never moves
//                           backwards (Algorithm 1 only advances φ);
//   * Quorum sanity       — per-process decision evidence holds up
//                           (protocol-specific checks are injected via
//                           note_violation, e.g. the harness scans a
//                           Turquois view for the decide-phase quorum);
//   * σ-conditioned liveness — a repetition that stayed inside the σ
//                           omission budget every round (PR 4's
//                           SigmaAccountant says it is liveness-eligible)
//                           must decide within the configured phase bound
//                           and before the deadline (Theorem 3).
//
// The auditor is purely observational: it consumes no randomness, sends no
// messages and never touches protocol state, so enabling it cannot perturb
// a run (the determinism contract of DESIGN.md §10 is preserved bit for
// bit). Violations are collected into an AuditReport; the harness folds
// reports into an AuditAggregate per scenario, emits them as the "audit"
// object of turquois-bench/1 reports and as audit.* trace counters, and the
// CLIs fail the run loudly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "faultplan/plan.hpp"

namespace turq::audit {

/// The audited properties, in report order. Keep kPropertyCount in sync.
enum class Property : std::uint8_t {
  kValidity = 0,
  kAgreement,
  kUnanimity,
  kPhaseMonotonicity,
  kQuorumSanity,
  kSigmaLiveness,
};

inline constexpr std::size_t kPropertyCount = 6;

/// Stable snake_case name, used as JSON key and trace-counter suffix.
[[nodiscard]] const char* to_string(Property p);

/// Sentinel for violations not attributable to a single process.
inline constexpr ProcessId kNoProcess = static_cast<ProcessId>(-1);

struct Violation {
  Property property = Property::kValidity;
  /// Offending process, or kNoProcess for run-level violations.
  ProcessId process = kNoProcess;
  std::string detail;

  bool operator==(const Violation&) const = default;
};

/// The outcome of auditing one repetition.
struct AuditReport {
  /// finish() ran; distinguishes "audited and clean" from "not audited".
  bool checked = false;
  std::vector<Violation> violations;

  [[nodiscard]] bool passed() const { return violations.empty(); }
  [[nodiscard]] std::uint64_t count(Property p) const;
  /// One line per violation ("property p<id>: detail"), for CLI output.
  [[nodiscard]] std::string describe() const;
};

struct AuditConfig {
  std::uint32_t n = 4;
  std::uint32_t f = 1;
  std::uint32_t k = 3;
  /// Decide-phase ceiling for σ-conditioned liveness: a liveness-eligible
  /// repetition in which a correct process decides at a phase above this
  /// bound is flagged. 0 = no phase ceiling (only the run deadline, i.e.
  /// every correct process must decide before the repetition times out).
  std::uint64_t phase_bound = 0;
};

/// Observes one repetition. Feed the per-process hooks as the run executes,
/// then call finish() exactly once after the run completes.
class ConsensusAuditor {
 public:
  explicit ConsensusAuditor(AuditConfig cfg) : cfg_(cfg) {}

  /// A correct process proposed `v` at time `at`.
  void on_propose(ProcessId p, Value v, SimTime at);
  /// A correct process entered phase/round `phase`.
  void on_phase(ProcessId p, std::uint64_t phase, SimTime at);
  /// A correct process decided `v` at phase/round `phase`.
  void on_decide(ProcessId p, Value v, std::uint64_t phase, SimTime at);
  /// Records a violation found by an external, protocol-specific check
  /// (e.g. the harness's Turquois decide-quorum view scan).
  void note_violation(Property prop, ProcessId p, std::string detail);

  /// Closes the repetition: runs the whole-run checks (validity, unanimity,
  /// σ-conditioned liveness) and returns the report. `sigma` is the
  /// repetition's σ accounting when the fault plan tracked it;
  /// `all_correct_decided` is the harness's deadline verdict.
  [[nodiscard]] AuditReport finish(
      const std::optional<faultplan::SigmaSummary>& sigma,
      bool all_correct_decided);

  [[nodiscard]] const AuditConfig& config() const { return cfg_; }

 private:
  struct ProcessLog {
    std::optional<Value> proposal;
    std::uint64_t last_phase = 0;
    std::optional<Value> decision;
    std::uint64_t decide_phase = 0;
    std::uint32_t decide_events = 0;
  };

  void violate(Property prop, ProcessId p, std::string detail);

  AuditConfig cfg_;
  // std::map: deterministic iteration order -> deterministic report bytes.
  std::map<ProcessId, ProcessLog> procs_;
  std::vector<Violation> violations_;
};

/// Audit outcomes pooled over a scenario's repetitions — the "audit" object
/// of turquois-bench/1 report cells.
struct AuditAggregate {
  std::uint64_t checked_reps = 0;
  std::uint64_t violating_reps = 0;
  std::uint64_t violations = 0;
  std::uint64_t by_property[kPropertyCount] = {};

  /// Counts `report` as one audited repetition.
  void merge(const AuditReport& report);
  /// Counts `report` as `checked` audited units of which `violating`
  /// violated (a service repetition audits each instance on its own).
  void merge(const AuditReport& report, std::uint64_t checked,
             std::uint64_t violating);
  [[nodiscard]] bool passed() const { return violations == 0; }

  bool operator==(const AuditAggregate&) const = default;
};

}  // namespace turq::audit
