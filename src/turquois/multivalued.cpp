#include "turquois/multivalued.hpp"

#include "adversary/strategies.hpp"
#include "common/assert.hpp"
#include "common/logging.hpp"

namespace turq::turquois {

MultiValuedConsensus::MultiValuedConsensus(sim::Simulator& simulator,
                                           net::Medium& medium, Config config,
                                           std::uint32_t bits, Rng rng,
                                           const crypto::CostModel& costs)
    : sim_(simulator),
      medium_(medium),
      cfg_(config),
      bits_(bits),
      rng_(rng),
      costs_(costs) {
  TURQ_ASSERT(bits_ >= 1 && bits_ <= 64);
  cfg_.validate();
}

std::optional<bool> MultiValuedConsensus::run_binary_round(
    std::uint32_t round_index, const std::vector<Value>& proposals,
    const std::vector<bool>& byzantine, SimTime deadline) {
  // Fresh stack per instance: endpoints re-attach under the same node ids;
  // a fresh key epoch covers the instance's phases.
  Rng round_rng = rng_.derive("round", round_index);
  const KeyInfrastructure keys = KeyInfrastructure::setup(cfg_, round_rng);

  std::vector<std::unique_ptr<sim::VirtualCpu>> cpus;
  std::vector<std::unique_ptr<runtime::SimRuntime>> runtimes;
  std::vector<std::unique_ptr<net::BroadcastEndpoint>> endpoints;
  std::vector<std::unique_ptr<Process>> procs;
  for (ProcessId id = 0; id < cfg_.n; ++id) {
    cpus.push_back(std::make_unique<sim::VirtualCpu>(sim_));
    runtimes.push_back(
        std::make_unique<runtime::SimRuntime>(sim_, *cpus.back()));
    endpoints.push_back(
        std::make_unique<net::BroadcastEndpoint>(sim_, medium_, id));
    ProcessHooks hooks;
    if (id < byzantine.size() && byzantine[id]) {
      hooks.mutate_outgoing = adversary::turquois_value_inversion();
    }
    procs.push_back(std::make_unique<Process>(
        *runtimes.back(), *endpoints.back(), cfg_, keys, id,
        round_rng.derive("proc", id),
        costs_, std::move(hooks)));
  }
  for (ProcessId id = 0; id < cfg_.n; ++id) {
    procs[id]->propose(proposals[id]);
  }

  std::vector<ProcessId> correct;
  for (ProcessId id = 0; id < cfg_.n; ++id) {
    if (id >= byzantine.size() || !byzantine[id]) correct.push_back(id);
  }

  std::optional<bool> decided;
  while (sim_.now() < deadline) {
    bool all = true;
    for (const ProcessId id : correct) all = all && procs[id]->decided();
    if (all) break;
    sim_.run_until(std::min<SimTime>(deadline, sim_.now() + kMillisecond));
  }
  bool all = true;
  for (const ProcessId id : correct) all = all && procs[id]->decided();
  if (all) {
    decided = procs[correct.front()]->decision() == Value::kOne;
    for (const ProcessId id : correct) {
      TURQ_ASSERT_MSG((procs[id]->decision() == Value::kOne) == *decided,
                      "binary round broke agreement");
    }
  }
  // Tear down cleanly: stop the processes (ticks, endpoints), then drain
  // the medium of in-flight frames and scheduled MAC events before this
  // round's stack is destroyed — the next round re-attaches under the same
  // node ids and must not inherit stale contention or delivery events.
  for (auto& p : procs) p->crash();  // closes the endpoints first
  sim_.run_until(sim_.now() + 50 * kMillisecond);
  return decided;
}

MultiValuedResult MultiValuedConsensus::run(
    const std::vector<std::uint64_t>& candidates,
    const std::vector<bool>& byzantine, SimDuration deadline) {
  TURQ_ASSERT(candidates.size() == cfg_.n);
  const SimTime until = sim_.now() + deadline;

  std::vector<std::uint64_t> working = candidates;
  MultiValuedResult result;
  std::uint64_t agreed_prefix = 0;  // bits above position b, already agreed

  for (std::uint32_t b = 0; b < bits_; ++b) {
    const std::uint32_t shift = bits_ - 1 - b;  // MSB first
    std::vector<Value> proposals(cfg_.n);
    for (ProcessId id = 0; id < cfg_.n; ++id) {
      proposals[id] = binary_value(((working[id] >> shift) & 1) != 0);
    }
    const auto bit = run_binary_round(b, proposals, byzantine, until);
    if (!bit.has_value()) return result;  // completed = false
    ++result.rounds;
    agreed_prefix = (agreed_prefix << 1) | (*bit ? 1 : 0);

    // Candidates that diverged from the agreed prefix adopt the smallest
    // value consistent with it, keeping every later bit proposable.
    for (ProcessId id = 0; id < cfg_.n; ++id) {
      const std::uint64_t own_prefix = working[id] >> shift;
      if (own_prefix != agreed_prefix) {
        working[id] = agreed_prefix << shift;  // adopt: prefix then zeros
      }
    }
  }

  result.completed = true;
  result.value = agreed_prefix;
  result.finished_at = sim_.now();
  return result;
}

MultiValuedResult elect_leader(sim::Simulator& simulator, net::Medium& medium,
                               const Config& config,
                               const std::vector<ProcessId>& nominations,
                               Rng rng, const crypto::CostModel& costs,
                               const std::vector<bool>& byzantine) {
  std::uint32_t bits = 1;
  while ((1ULL << bits) < config.n) ++bits;
  MultiValuedConsensus mvc(simulator, medium, config, bits, rng, costs);
  std::vector<std::uint64_t> candidates;
  candidates.reserve(nominations.size());
  for (const ProcessId nom : nominations) {
    candidates.push_back(nom % config.n);  // clamp into the id domain
  }
  MultiValuedResult result = mvc.run(candidates, byzantine);
  if (result.completed) result.value %= config.n;
  return result;
}

}  // namespace turq::turquois
