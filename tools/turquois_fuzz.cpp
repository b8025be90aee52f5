// turquois_fuzz — deterministic consensus fuzzer with shrinking.
//
// Sweeps a (seed × fault plan × adversary mutator × group size) grid under
// the parallel repetition scheduler, auditing every repetition with the
// consensus auditor (src/audit). A cell's repetitions ARE its seed sweep:
// repetition i runs from the stream Rng::stream(seed_base, "rep", i), so
// "--seeds 200" scans 200 independent deployments per cell, bit-identically
// at any --jobs value.
//
// When a repetition violates a property (or crashes), the fuzzer shrinks
// the cell to a minimal reproducer:
//
//   1. seed bisection  — the violating repetition index is located and the
//      repetition count cut to the first violation (repetitions are pure in
//      (seed, index), so everything before it is dead weight);
//   2. clause dropping — each fault-plan clause is removed greedily while
//      the violation (any property, possibly at a different repetition —
//      dropping a clause shifts every Rng stream index after it) survives;
//   3. group shrinking — smaller n values are tried in increasing order and
//      the smallest still-violating one is kept.
//
// The result is printed as a ready-to-run turquois_sim command line and,
// with --corpus <dir>, written as a corpus entry file for committing next
// to the regression tests that pin it.
//
//   $ turquois_fuzz --seeds 200 --plans none,byzantine,adaptive
//                   --sizes 4,10,16 --quick --jobs 0 --corpus fuzz-out
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "faultplan/spec.hpp"
#include "harness/experiment.hpp"
#include "harness/flags.hpp"
#include "harness/scheduler.hpp"

using namespace turq;
using namespace turq::harness;

namespace {

/// Parses a "--topologies" element: a topology spec optionally followed by
/// "+<mobility spec>" ("grid(r=150)+waypoint(vmin=2,vmax=4)").
bool parse_topology_axis(const std::string& element,
                         spatial::SpatialConfig* out, std::string* error) {
  const std::size_t plus = element.find('+');
  if (!spatial::parse_topology(element.substr(0, plus), out, error)) {
    return false;
  }
  if (plus == std::string::npos) return true;
  return spatial::parse_mobility(element.substr(plus + 1), out, error);
}

/// First violating repetition of `cfg`, with a one-line reason. A violation
/// is a crashed repetition or any auditor finding; plain deadline misses
/// are NOT violations (a lossy plan may legitimately time out — only the
/// σ-liveness check, which knows the omission budget, may flag one).
struct Violation {
  std::uint64_t rep_index = 0;
  std::string reason;
};

std::optional<Violation> first_violation(const ScenarioConfig& cfg) {
  for (const RepResult& rep : run_repetitions(cfg)) {
    if (rep.crashed) {
      return Violation{rep.rep_index, "repetition crashed: " + rep.error};
    }
    if (rep.run.audit.has_value() && !rep.run.audit->passed()) {
      std::string reason = rep.run.audit->describe();
      while (!reason.empty() && reason.back() == '\n') reason.pop_back();
      return Violation{rep.rep_index, reason};
    }
  }
  return std::nullopt;
}

struct ShrinkResult {
  ScenarioConfig cfg;      // minimal still-violating scenario
  Violation violation;     // its first violation
  std::uint32_t steps = 0; // accepted shrink steps
};

/// Greedy delta-debugging over (clauses, n, repetition count). Every probe
/// is a full deterministic rescan, so the shrink path itself is a pure
/// function of the original cell.
ShrinkResult shrink(ScenarioConfig cfg, Violation violation,
                    const std::vector<std::uint32_t>& sizes) {
  ShrinkResult out{cfg, violation, 0};

  // Drop fault clauses one at a time until no single removal keeps the
  // violation alive. Removing a clause renumbers the per-clause Rng streams,
  // so the violation may move to a different repetition — any violation
  // anywhere in the scan accepts the candidate.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    faultplan::FaultPlan plan = out.cfg.effective_plan();
    for (std::size_t drop = 0; drop < plan.clauses.size(); ++drop) {
      faultplan::FaultPlan candidate = plan;
      candidate.clauses.erase(candidate.clauses.begin() +
                              static_cast<std::ptrdiff_t>(drop));
      candidate.name = faultplan::to_spec(candidate);
      if (candidate.name.empty()) continue;  // nothing left to run
      ScenarioConfig probe = out.cfg;
      probe.plan = candidate;
      if (validate(probe).has_value()) continue;
      if (const auto v = first_violation(probe)) {
        out.cfg = probe;
        out.violation = *v;
        ++out.steps;
        progressed = true;
        break;
      }
    }
  }

  // Shrink the topology toward the single-hop medium: a violation that
  // survives without the spatial layer (or without mobility) is easier to
  // replay and debug. Removing the layer shifts the repetition's derived
  // Rng streams, so — as with clause dropping — any violation anywhere in
  // the rescan accepts the candidate.
  if (out.cfg.spatial.active()) {
    ScenarioConfig probe = out.cfg;
    probe.spatial = spatial::SpatialConfig{};
    if (const auto v = first_violation(probe)) {
      out.cfg = probe;
      out.violation = *v;
      ++out.steps;
    } else if (out.cfg.spatial.mobility != spatial::Mobility::kStatic) {
      probe = out.cfg;
      probe.spatial.mobility = spatial::Mobility::kStatic;
      if (const auto v2 = first_violation(probe)) {
        out.cfg = probe;
        out.violation = *v2;
        ++out.steps;
      }
    }
  }

  // Shrink the group: smallest swept n that still violates wins.
  for (const std::uint32_t n : sizes) {
    if (n >= out.cfg.n) continue;
    ScenarioConfig probe = out.cfg;
    probe.n = n;
    if (validate(probe).has_value()) continue;
    if (const auto v = first_violation(probe)) {
      out.cfg = probe;
      out.violation = *v;
      ++out.steps;
      break;
    }
  }

  // Seed bisection: cut the scan to the first violating repetition. The
  // preceding repetitions share no state with it, so re-running them only
  // serves to keep the reproducer a plain turquois_sim invocation.
  if (out.cfg.repetitions != out.violation.rep_index + 1) {
    out.cfg.repetitions =
        static_cast<std::uint32_t>(out.violation.rep_index) + 1;
    ++out.steps;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Every cell is a copy of `base` with its grid coordinates filled in;
  // its repetitions are the cell's seeds.
  ScenarioConfig base;
  base.repetitions = 50;
  std::vector<Protocol> protocols{Protocol::kTurquois};
  std::vector<std::string> plan_names{"none", "byzantine", "adaptive"};
  std::vector<TurquoisAttack> attacks{TurquoisAttack::kValueInversion,
                                      TurquoisAttack::kDecidedCoinForge};
  std::vector<std::uint32_t> sizes{4, 7, 10};
  std::vector<std::string> topology_specs{"single"};
  std::vector<ProposalDist> dists{ProposalDist::kUnanimous};
  std::string corpus_dir;
  bool do_shrink = true;

  Flags flags = {
      flag("--seeds", "<N>",
           "deployments scanned per cell (default 50); seed i of a cell is "
           "repetition i of the scenario, so reproducers are plain "
           "turquois_sim invocations",
           base.repetitions),
      flag("--seed-base", "<S>", "scenario root seed (default 1)", base.seed),
      list_flag("--protocols", protocol_flags(","),
                "comma-separated protocol list (default turquois)", protocols,
                protocol_from_flag),
      {"--plans", "<list>",
       "comma-separated named plans or clause specs (default "
       "none,byzantine,adaptive)",
       [&](std::string_view v) { plan_names = split_list(v); },
       {}},
      list_flag("--attacks", "value-inversion,decided-coin",
                "comma-separated Turquois Byzantine strategies (default "
                "both; only swept for plans with the byzantine role)",
                attacks, parse_attack),
      flag("--sizes", "<list>", "comma-separated group sizes (default 4,7,10)",
           sizes),
      {"--topologies", "<list>",
       "comma-separated topology specs swept as an axis: single, grid, "
       "ring, random, optionally parameterized ('grid(r=150)'); commas "
       "inside parentheses stay within one spec. A 'waypoint' suffix after "
       "'+' adds mobility: 'grid(r=150)+waypoint'. Default: single. The "
       "shrinker tries single-hop, then static mobility, before shrinking "
       "the group",
       [&](std::string_view v) { topology_specs = split_list(v); },
       {}},
      {"--dist", "unanimous|divergent|both",
       "proposal distribution (default unanimous)",
       [&](std::string_view v) {
         if (v == "both") {
           dists = {ProposalDist::kUnanimous, ProposalDist::kDivergent};
         } else if (const auto one = parse_dist(v)) {
           dists = {*one};
         } else {
           bad_value("--dist", v, "unanimous|divergent|both");
         }
       },
       {}},
  };
  const Flags scenario =
      scenario_flags(base, {"--timeout", "--audit-phase-bound", "--jobs"});
  flags.insert(flags.end(), scenario.begin(), scenario.end());
  flags.insert(
      flags.end(),
      {flag("--corpus", "<dir>",
            "write one reproducer file per violating cell into this "
            "directory",
            corpus_dir),
       flag("--no-shrink", "report the first violation as-is", do_shrink,
            false),
       {"--quick", "", "smoke preset: 30 s deadline",
        [&](std::string_view) { base.run_timeout = 30 * kSecond; }, {}}});
  parse_flags(argc, argv, flags);
  if (base.repetitions == 0) usage(argv[0], flags);

  std::vector<faultplan::FaultPlan> plans;
  for (const std::string& name : plan_names) {
    std::string error;
    const auto plan = faultplan::plan_from_name(name, &error);
    if (!plan.has_value()) {
      std::fprintf(stderr, "bad --plans entry '%s': %s\n", name.c_str(),
                   error.c_str());
      return 2;
    }
    plans.push_back(*plan);
  }
  std::vector<spatial::SpatialConfig> topologies;
  for (const std::string& spec : topology_specs) {
    spatial::SpatialConfig sp;
    std::string error;
    if (!parse_topology_axis(spec, &sp, &error)) {
      std::fprintf(stderr, "bad --topologies entry '%s': %s\n", spec.c_str(),
                   error.c_str());
      return 2;
    }
    topologies.push_back(sp);
  }
  if (!corpus_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(corpus_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create corpus directory %s: %s\n",
                   corpus_dir.c_str(), ec.message().c_str());
      return 2;
    }
  }

  // Ascending sizes: the n-shrink tries the smallest groups first.
  std::sort(sizes.begin(), sizes.end());

  const auto started = std::chrono::steady_clock::now();
  std::uint32_t cells = 0;
  std::uint32_t violating_cells = 0;
  for (const Protocol protocol : protocols) {
    for (const faultplan::FaultPlan& plan : plans) {
      // The attack knob only matters for Turquois Byzantine insiders; one
      // canonical pass everywhere else keeps the grid free of duplicates.
      std::vector<TurquoisAttack> cell_attacks = attacks;
      if (!protocol_info(protocol).byzantine_attacks ||
          plan.role != faultplan::Role::kByzantine) {
        cell_attacks = {TurquoisAttack::kValueInversion};
      }
      for (const TurquoisAttack attack : cell_attacks) {
        for (const ProposalDist dist : dists) {
          for (const spatial::SpatialConfig& topo : topologies) {
          for (const std::uint32_t n : sizes) {
            ScenarioConfig cfg = base;
            cfg.protocol = protocol;
            cfg.n = n;
            cfg.distribution = dist;
            cfg.plan = plan;
            cfg.attack = attack;
            cfg.spatial = topo;
            if (const auto reason = validate(cfg)) {
              std::fprintf(stderr, "skipping cell (%s)\n", reason->c_str());
              continue;
            }
            ++cells;
            std::string label = to_string(protocol) + " " + plan.name;
            if (cell_attacks.size() > 1 ||
                attack != TurquoisAttack::kValueInversion) {
              label += " attack=";
              label += to_string(attack);
            }
            if (dists.size() > 1) {
              label += " ";
              label += to_string(dist);
            }
            if (topo.topology_set()) {
              label += " topo=";
              label += spatial::to_spec_topology(topo);
              if (topo.mobility != spatial::Mobility::kStatic) {
                label += "+";
                label += spatial::to_spec_mobility(topo);
              }
            }
            label += " n=" + std::to_string(n);
            std::printf("[fuzz] %s: %u seeds ... ", label.c_str(),
                        base.repetitions);
            std::fflush(stdout);
            const auto violation = first_violation(cfg);
            if (!violation.has_value()) {
              std::printf("ok\n");
              continue;
            }
            ++violating_cells;
            std::printf("VIOLATION at seed %llu\n",
                        static_cast<unsigned long long>(violation->rep_index));
            std::printf("  %s\n", violation->reason.c_str());
            ShrinkResult minimal{cfg, *violation, 0};
            if (do_shrink) {
              minimal = shrink(cfg, *violation, sizes);
              std::printf("  shrunk in %u steps to n=%u, plan '%s', seed %llu\n",
                          minimal.steps, minimal.cfg.n,
                          faultplan::to_spec(minimal.cfg.effective_plan())
                              .c_str(),
                          static_cast<unsigned long long>(
                              minimal.violation.rep_index));
            }
            // Repetitions are pure in (seed, index), so running the first
            // rep_index + 1 replays the violating deployment exactly; the
            // last repetition is the violator.
            ScenarioConfig replay = minimal.cfg;
            replay.repetitions =
                static_cast<std::uint32_t>(minimal.violation.rep_index) + 1;
            const std::string cmd = sim_command(replay);
            std::printf("  reproduce: %s\n", cmd.c_str());
            if (!corpus_dir.empty()) {
              const std::string path =
                  corpus_dir + "/" + slug(label) + "-seed" +
                  std::to_string(minimal.violation.rep_index) + ".repro";
              std::ofstream out(path, std::ios::binary);
              out << "# turquois_fuzz reproducer\n"
                  << "# cell: " << label << "\n"
                  << "# violation:\n";
              std::string reason = minimal.violation.reason;
              std::size_t pos = 0;
              while (pos <= reason.size()) {
                const std::size_t nl = reason.find('\n', pos);
                out << "#   "
                    << reason.substr(pos, nl == std::string::npos
                                              ? std::string::npos
                                              : nl - pos)
                    << "\n";
                if (nl == std::string::npos) break;
                pos = nl + 1;
              }
              out << cmd << "\n";
              if (out) {
                std::printf("  corpus: %s\n", path.c_str());
              } else {
                std::fprintf(stderr, "cannot write corpus entry %s\n",
                             path.c_str());
              }
            }
          }
          }
        }
      }
    }
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  std::printf("\n%u cells fuzzed, %u violating, %.1f s\n", cells,
              violating_cells, wall);
  return violating_cells > 0 ? 1 : 0;
}
