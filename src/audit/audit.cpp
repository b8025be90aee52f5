#include "audit/audit.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace turq::audit {

const char* to_string(Property p) {
  switch (p) {
    case Property::kValidity: return "validity";
    case Property::kAgreement: return "agreement";
    case Property::kUnanimity: return "unanimity";
    case Property::kPhaseMonotonicity: return "phase_monotonicity";
    case Property::kQuorumSanity: return "quorum_sanity";
    case Property::kSigmaLiveness: return "sigma_liveness";
  }
  return "?";
}

std::uint64_t AuditReport::count(Property p) const {
  return static_cast<std::uint64_t>(
      std::count_if(violations.begin(), violations.end(),
                    [&](const Violation& v) { return v.property == p; }));
}

std::string AuditReport::describe() const {
  std::string out;
  for (const Violation& v : violations) {
    out += "  ";
    out += to_string(v.property);
    if (v.process != kNoProcess) {
      out += " p" + std::to_string(v.process);
    }
    out += ": " + v.detail + "\n";
  }
  return out;
}

void ConsensusAuditor::violate(Property prop, ProcessId p,
                               std::string detail) {
  violations_.push_back(Violation{prop, p, std::move(detail)});
}

void ConsensusAuditor::on_propose(ProcessId p, Value v, SimTime at) {
  (void)at;
  ProcessLog& log = procs_[p];
  if (log.proposal.has_value()) {
    violate(Property::kQuorumSanity, p, "proposed twice");
    return;
  }
  if (!is_binary(v)) {
    violate(Property::kQuorumSanity, p,
            "proposed the non-binary value " + turq::to_string(v));
  }
  log.proposal = v;
}

void ConsensusAuditor::on_phase(ProcessId p, std::uint64_t phase,
                                SimTime at) {
  (void)at;
  ProcessLog& log = procs_[p];
  if (phase < log.last_phase) {
    violate(Property::kPhaseMonotonicity, p,
            "phase moved backwards: " + std::to_string(log.last_phase) +
                " -> " + std::to_string(phase));
  }
  log.last_phase = std::max(log.last_phase, phase);
}

void ConsensusAuditor::on_decide(ProcessId p, Value v, std::uint64_t phase,
                                 SimTime at) {
  (void)at;
  ProcessLog& log = procs_[p];
  ++log.decide_events;
  if (log.decide_events > 1) {
    violate(Property::kQuorumSanity, p, "decided more than once");
    return;
  }
  if (!is_binary(v)) {
    violate(Property::kQuorumSanity, p,
            "decided the non-binary value " + turq::to_string(v));
  }
  // Agreement against every earlier decision (first mismatch per process).
  for (const auto& [other, other_log] : procs_) {
    if (other == p || !other_log.decision.has_value()) continue;
    if (*other_log.decision != v) {
      violate(Property::kAgreement, p,
              "decided " + turq::to_string(v) + " but p" +
                  std::to_string(other) + " decided " +
                  turq::to_string(*other_log.decision));
      break;
    }
  }
  log.decision = v;
  log.decide_phase = phase;
  log.last_phase = std::max(log.last_phase, phase);
}

void ConsensusAuditor::note_violation(Property prop, ProcessId p,
                                      std::string detail) {
  violate(prop, p, std::move(detail));
}

AuditReport ConsensusAuditor::finish(
    const std::optional<faultplan::SigmaSummary>& sigma,
    bool all_correct_decided) {
  // Validity: a decided value must be some correct process's proposal.
  for (const auto& [p, log] : procs_) {
    if (!log.decision.has_value()) continue;
    const bool proposed_by_correct = std::any_of(
        procs_.begin(), procs_.end(), [&](const auto& entry) {
          return entry.second.proposal.has_value() &&
                 *entry.second.proposal == *log.decision;
        });
    if (!proposed_by_correct) {
      violate(Property::kValidity, p,
              "decided " + turq::to_string(*log.decision) +
                  ", which no correct process proposed");
    }
  }

  // Unanimity: all-same proposals admit only that value as decision.
  std::optional<Value> common;
  bool unanimous = true;
  bool any_proposal = false;
  for (const auto& [p, log] : procs_) {
    (void)p;
    if (!log.proposal.has_value()) continue;
    any_proposal = true;
    if (!common.has_value()) {
      common = *log.proposal;
    } else if (*common != *log.proposal) {
      unanimous = false;
    }
  }
  if (any_proposal && unanimous) {
    for (const auto& [p, log] : procs_) {
      if (log.decision.has_value() && *log.decision != *common) {
        violate(Property::kUnanimity, p,
                "unanimous proposal " + turq::to_string(*common) +
                    " but decided " + turq::to_string(*log.decision));
      }
    }
  }

  // σ-conditioned liveness: a repetition whose every round stayed inside
  // the σ omission budget must reach the decision (Theorem 3). Runs with
  // violating rounds carry no liveness obligation.
  if (sigma.has_value() && sigma->liveness_eligible()) {
    if (!all_correct_decided) {
      violate(Property::kSigmaLiveness, kNoProcess,
              "liveness-eligible repetition (0 sigma-violating rounds) "
              "missed the decision deadline");
    }
    if (cfg_.phase_bound > 0) {
      for (const auto& [p, log] : procs_) {
        if (log.decision.has_value() && log.decide_phase > cfg_.phase_bound) {
          violate(Property::kSigmaLiveness, p,
                  "decided at phase " + std::to_string(log.decide_phase) +
                      " above the configured bound " +
                      std::to_string(cfg_.phase_bound));
        }
      }
    }
  }

  AuditReport report;
  report.checked = true;
  report.violations = std::move(violations_);
  violations_.clear();
  return report;
}

void AuditAggregate::merge(const AuditReport& report) {
  if (!report.checked) return;
  merge(report, 1, report.passed() ? 0 : 1);
}

void AuditAggregate::merge(const AuditReport& report, std::uint64_t checked,
                           std::uint64_t violating) {
  checked_reps += checked;
  violating_reps += violating;
  violations += report.violations.size();
  for (const Violation& v : report.violations) {
    ++by_property[static_cast<std::size_t>(v.property)];
  }
}

}  // namespace turq::audit
