// Sensor-network scenario: 13 battery-powered sensors decide whether to
// raise a plant-wide alarm, while f = 4 of them have been compromised and
// actively lie (the paper's value-inversion strategy). The decision must
// reflect the honest sensors' readings despite the insiders.
//
//   $ ./build/examples/sensor_fault_vote
#include <cstdio>
#include <memory>
#include <vector>

#include "adversary/strategies.hpp"
#include "crypto/cost_model.hpp"
#include "net/broadcast_endpoint.hpp"
#include "net/fault_injector.hpp"
#include "net/medium.hpp"
#include "runtime/sim_runtime.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"
#include "turquois/config.hpp"
#include "turquois/key_infra.hpp"
#include "turquois/process.hpp"

using namespace turq;

int main() {
  constexpr std::uint32_t kSensors = 13;
  const std::uint32_t f = (kSensors - 1) / 3;  // 4 compromised

  sim::Simulator sim;
  Rng root(4242);
  net::Medium medium(sim, net::MediumConfig{}, root.derive("medium", 0));
  net::IidLoss loss(0.03, root.derive("loss", 0));
  medium.set_fault_injector(&loss);

  const auto cfg = turquois::Config::for_group(kSensors);
  const auto keys = turquois::KeyInfrastructure::setup(cfg, root);
  crypto::CostModel costs;

  // The last f sensors are compromised insiders: they hold real keys but
  // broadcast the opposite value in CONVERGE/LOCK phases and ⊥ in DECIDE
  // phases (§7.2 of the paper).
  std::vector<std::unique_ptr<sim::VirtualCpu>> cpus;
  std::vector<std::unique_ptr<runtime::SimRuntime>> runtimes;
  std::vector<std::unique_ptr<net::BroadcastEndpoint>> endpoints;
  std::vector<std::unique_ptr<turquois::Process>> sensors;
  for (ProcessId id = 0; id < kSensors; ++id) {
    cpus.push_back(std::make_unique<sim::VirtualCpu>(sim));
    runtimes.push_back(std::make_unique<runtime::SimRuntime>(sim, *cpus.back()));
    endpoints.push_back(std::make_unique<net::BroadcastEndpoint>(sim, medium, id));
    turquois::ProcessHooks hooks;
    if (id >= kSensors - f) {
      hooks.mutate_outgoing = adversary::turquois_value_inversion();
    }
    sensors.push_back(std::make_unique<turquois::Process>(
        *runtimes.back(), *endpoints.back(), cfg, keys, id,
        root.derive("sensor", id), costs, std::move(hooks)));
  }

  // Every honest sensor reads a gas concentration above the threshold and
  // votes to raise the alarm; compromised ones try to suppress it.
  std::printf("%u sensors (%u compromised) vote on raising the alarm...\n",
              kSensors, f);
  for (ProcessId id = 0; id < kSensors; ++id) {
    sensors[id]->propose(Value::kOne);  // honest reading: alarm
  }

  while (sim.now() < 30 * kSecond) {
    std::size_t honest_decided = 0;
    for (ProcessId id = 0; id < kSensors - f; ++id) {
      honest_decided += sensors[id]->decided() ? 1 : 0;
    }
    if (honest_decided == kSensors - f) break;
    sim.run_until(sim.now() + 5 * kMillisecond);
  }

  bool alarm = false;
  bool agreement = true;
  std::optional<Value> first;
  for (ProcessId id = 0; id < kSensors - f; ++id) {
    if (!sensors[id]->decided()) continue;
    const Value v = sensors[id]->decision();
    if (!first.has_value()) first = v;
    agreement = agreement && (v == *first);
    alarm = alarm || (v == Value::kOne);
    std::printf("  sensor %2u decided %s at t=%.1f ms (phase %u)\n", id,
                to_string(v).c_str(), to_milliseconds(sim.now()),
                sensors[id]->phase());
  }
  std::printf("verdict: alarm %s, agreement %s — the insiders could not "
              "suppress the honest reading (Validity)\n",
              alarm ? "RAISED" : "suppressed", agreement ? "held" : "BROKEN");
  return agreement && alarm ? 0 : 1;
}
