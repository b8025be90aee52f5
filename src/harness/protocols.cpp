// The protocol registry: one descriptor per protocol, one row per
// descriptor. A descriptor states only what its protocol does differently
// inside the shared deployment (deployment.hpp): its transport, its key
// material, how a role maps to a strategy, and a post-run audit check.
#include <memory>
#include <stdexcept>
#include <string>

#include "adversary/strategies.hpp"
#include "baselines/abba/abba.hpp"
#include "baselines/absmac/absmac.hpp"
#include "baselines/bracha/bracha.hpp"
#include "baselines/crain/crain.hpp"
#include "harness/deployment.hpp"
#include "turquois/exchange_pool.hpp"
#include "turquois/key_infra.hpp"
#include "turquois/process.hpp"

namespace turq::harness {
namespace {

/// Turquois (Algorithm 1): unreliable broadcast, one-time-signature keys.
class TurquoisDescriptor
    : public ProtocolDescriptor<turquois::Process, turquois::ProcessHooks,
                                Transport::kBroadcast> {
 public:
  static auto& phase_hook(Hooks& hooks) { return hooks.on_phase; }
  static std::uint64_t sent(const Process& p) { return p.stats().broadcasts; }

  /// Key bytes never steer the protocol (only their structural relations
  /// do), so the key infrastructure is shared by every repetition.
  static void hoist(const ScenarioConfig& cfg, Rng& root,
                    ScenarioSetup& setup) {
    setup.turquois_keys = turquois::KeyInfrastructure::setup(
        turquois::Config::for_group(cfg.n), root);
  }

  TurquoisDescriptor(Deployment& d, const ScenarioSetup* setup)
      : tcfg_(turquois::Config::for_group(d.cfg.n)) {
    tcfg_.tick_interval = d.cfg.tick_interval;
    tcfg_.tick_jitter = d.cfg.tick_jitter;
    // KeyInfrastructure::setup only derive()s from root (never consumes
    // it), so reusing the hoisted keys leaves every other stream untouched.
    if (setup == nullptr || !setup->turquois_keys.has_value()) {
      local_keys_ = turquois::KeyInfrastructure::setup(tcfg_, d.root);
    }
    keys_ = local_keys_.has_value() ? &*local_keys_ : &*setup->turquois_keys;
    // One prepared-exchange cache shared by all receivers.
    exchange_pool_ = std::make_unique<turquois::ExchangePool>(*keys_, tcfg_);
  }

  std::unique_ptr<Process> make(Deployment& d, ProcessId id,
                                runtime::Runtime& rt, Hooks hooks) const {
    hooks.exchange_pool = exchange_pool_.get();
    if (d.byzantine(id)) {
      hooks.mutate_outgoing =
          d.cfg.attack == TurquoisAttack::kDecidedCoinForge
              ? adversary::turquois_decided_coin_forge()
              : adversary::turquois_value_inversion();
    }
    return std::make_unique<Process>(rt, d.endpoint(id), tcfg_, *keys_, id,
                                     d.root.derive("proc", id), d.cfg.costs,
                                     std::move(hooks));
  }

  /// Quorum sanity: every correct decision must be backed by a decide
  /// quorum for its value in the decider's final view.
  void audit(Deployment& d,
             const std::vector<std::unique_ptr<Process>>& procs) const {
    for (const ProcessId id : d.correct()) {
      d.instance().check_decide_quorum(*procs[id], tcfg_);
    }
  }

  [[nodiscard]] const turquois::ExchangePool* exchange_pool() const {
    return exchange_pool_.get();
  }

 private:
  turquois::Config tcfg_;
  std::optional<turquois::KeyInfrastructure> local_keys_;
  const turquois::KeyInfrastructure* keys_ = nullptr;
  std::unique_ptr<turquois::ExchangePool> exchange_pool_;
};

/// Bracha's randomized consensus over authenticated TCP (IPSec AH).
class BrachaDescriptor
    : public ProtocolDescriptor<bracha::Process, bracha::ProcessHooks,
                                Transport::kAuthenticatedTcp> {
 public:
  BrachaDescriptor(Deployment& d, const ScenarioSetup*)
      : bcfg_(bracha::Config::for_group(d.cfg.n)) {}

  std::unique_ptr<Process> make(Deployment& d, ProcessId id,
                                runtime::Runtime& rt, Hooks hooks) const {
    return std::make_unique<Process>(
        rt, d.host(id), bcfg_, id, d.root.derive("proc", id), d.cfg.costs,
        d.byzantine(id) ? bracha::Strategy::kValueInversion
                        : bracha::Strategy::kHonest,
        std::move(hooks));
  }

 private:
  bracha::Config bcfg_;
};

/// ABBA (Cachin et al.) over plain TCP: it authenticates itself with
/// threshold signatures.
class AbbaDescriptor
    : public ProtocolDescriptor<abba::Process, abba::ProcessHooks,
                                Transport::kTcp> {
 public:
  // Per-repetition on purpose: the dealer's threshold shares combine into
  // the common-coin values, so hoisting them would change every coin flip
  // (unlike key material, which never steers control flow).
  AbbaDescriptor(Deployment& d, const ScenarioSetup*)
      : acfg_(abba::Config::for_group(d.cfg.n)),
        dealer_(deal<abba::Dealer>(acfg_, d)) {}

  std::unique_ptr<Process> make(Deployment& d, ProcessId id,
                                runtime::Runtime& rt, Hooks hooks) const {
    return std::make_unique<Process>(
        rt, d.host(id), acfg_, dealer_, id, d.root.derive("proc", id),
        d.cfg.costs,
        d.byzantine(id) ? abba::Strategy::kInvalidCrypto
                        : abba::Strategy::kHonest,
        std::move(hooks));
  }

 private:
  abba::Config acfg_;
  abba::Dealer dealer_;
};

/// Crain/MMR binary agreement over authenticated TCP, signature-free.
class CrainDescriptor
    : public ProtocolDescriptor<crain::Process, crain::ProcessHooks,
                                Transport::kAuthenticatedTcp> {
 public:
  // Per-repetition like ABBA's dealer: the combined shares ARE the common
  // coin, so hoisting would change every coin flip.
  CrainDescriptor(Deployment& d, const ScenarioSetup*)
      : ccfg_(crain::Config::for_group(d.cfg.n)),
        dealer_(deal<crain::Dealer>(ccfg_, d)) {}

  std::unique_ptr<Process> make(Deployment& d, ProcessId id,
                                runtime::Runtime& rt, Hooks hooks) const {
    return std::make_unique<Process>(
        rt, d.host(id), ccfg_, dealer_, id, d.root.derive("proc", id),
        d.cfg.costs,
        d.byzantine(id) ? crain::Strategy::kValueInversion
                        : crain::Strategy::kHonest,
        std::move(hooks));
  }

 private:
  crain::Config ccfg_;
  crain::Dealer dealer_;
};

/// Bracha over an abstract MAC layer: unreliable broadcast, no keys.
class AbsMacDescriptor
    : public ProtocolDescriptor<absmac::Process, absmac::ProcessHooks,
                                Transport::kBroadcast> {
 public:
  AbsMacDescriptor(Deployment& d, const ScenarioSetup*)
      : mcfg_(absmac::Config::for_group(d.cfg.n)) {
    mcfg_.tick_interval = d.cfg.tick_interval;
  }

  std::unique_ptr<Process> make(Deployment& d, ProcessId id,
                                runtime::Runtime& rt, Hooks hooks) const {
    return std::make_unique<Process>(
        rt, d.endpoint(id), mcfg_, id, d.root.derive("proc", id),
        d.byzantine(id) ? absmac::Strategy::kValueInversion
                        : absmac::Strategy::kHonest,
        std::move(hooks));
  }

 private:
  absmac::Config mcfg_;
};

// Rows in Protocol order: protocol_info() indexes by the enum value.
constexpr ProtocolInfo kRegistry[] = {
    {Protocol::kTurquois, "turquois", "Turquois", true,
     &deploy<TurquoisDescriptor>, &hoist<TurquoisDescriptor>},
    {Protocol::kBracha, "bracha", "Bracha", false, &deploy<BrachaDescriptor>,
     &hoist<BrachaDescriptor>},
    {Protocol::kAbba, "abba", "ABBA", false, &deploy<AbbaDescriptor>,
     &hoist<AbbaDescriptor>},
    {Protocol::kCrain, "crain", "Crain", false, &deploy<CrainDescriptor>,
     &hoist<CrainDescriptor>},
    {Protocol::kAbsMac, "absmac", "AbsMac", false, &deploy<AbsMacDescriptor>,
     &hoist<AbsMacDescriptor>},
};

constexpr bool registry_in_enum_order() {
  for (std::size_t i = 0; i < std::size(kRegistry); ++i) {
    if (static_cast<std::size_t>(kRegistry[i].protocol) != i) return false;
  }
  return true;
}
static_assert(registry_in_enum_order());

}  // namespace

std::span<const ProtocolInfo> protocols() { return kRegistry; }

const ProtocolInfo& protocol_info(Protocol p) {
  const auto index = static_cast<std::size_t>(p);
  if (index >= std::size(kRegistry)) {
    throw std::invalid_argument("unknown protocol");
  }
  return kRegistry[index];
}

std::optional<Protocol> protocol_from_flag(std::string_view flag) {
  for (const ProtocolInfo& info : kRegistry) {
    if (flag == info.flag) return info.protocol;
  }
  return std::nullopt;
}

std::string protocol_flags(std::string_view sep) {
  std::string out;
  for (const ProtocolInfo& info : kRegistry) {
    if (!out.empty()) out += sep;
    out += info.flag;
  }
  return out;
}

std::string to_string(Protocol p) { return protocol_info(p).name; }

}  // namespace turq::harness
