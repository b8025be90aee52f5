// Spatial layer: node placement, unit-disk reachability with optional
// log-distance fading, and random-waypoint mobility.
//
// Topology implements net::SpatialModel and is consulted by the Medium per
// (frame, receiver). Everything here is deterministic in (config, seed):
//   * placement and every waypoint leg come from streams derived from the
//     repetition root (Rng::derive("spatial", 0) in the harness), one
//     stream per node, so motion never perturbs medium or protocol draws;
//   * mobility is lazy and event-free — piecewise-linear segments are
//     advanced on demand as simulated time is queried monotonically, so
//     the simulator's idle() semantics and event ordering are untouched
//     and repetitions stay bit-identical at any --jobs value;
//   * fading draws come from one dedicated stream consumed in medium query
//     order, which is itself deterministic.
//
// Connectivity metrics (partition events, mean path length, carrier-sense
// domains) are sampled at a fixed simulated-time cadence on the same lazy
// advance, over the deterministic unit disk (fading excluded): they
// describe the geometry, not per-frame luck.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/spatial_model.hpp"

namespace turq::spatial {

enum class Placement : std::uint8_t {
  kSingleHop = 0,  // no spatial layer: the legacy everyone-hears-everyone medium
  kGrid,           // square lattice filling the deployment area
  kRing,           // evenly spaced on a circle inscribed in the area
  kRandom,         // uniform iid positions in the area
};

enum class Mobility : std::uint8_t {
  kStatic = 0,
  kWaypoint,  // random waypoint: pick a point, move at a drawn speed, pause
};

constexpr double kInfiniteRadius = std::numeric_limits<double>::infinity();

struct SpatialConfig {
  Placement placement = Placement::kSingleHop;
  double radius_m = kInfiniteRadius;  // radio range; inf = single-hop
  double area_m = 300.0;              // side of the square deployment area
  /// Carrier-sense range = radius_m * cs_factor. Senders within sense
  /// range of a smaller backoff draw defer; senders outside it transmit
  /// concurrently (hidden terminals). 802.11 sense range is typically
  /// ~2x the decode range.
  double cs_factor = 2.2;
  /// Log-distance shadowing sigma in dB; 0 disables fading and makes
  /// reachability the pure unit disk. With fading, delivery at distance d
  /// succeeds with probability Phi(10*alpha*log10(radius/d) / sigma) —
  /// below 1 inside the disk, above 0 slightly beyond it.
  double fading_sigma_db = 0.0;
  double fading_alpha = 3.0;  // path-loss exponent
  Mobility mobility = Mobility::kStatic;
  double speed_min_mps = 1.0;   // random-waypoint speed draw, uniform
  double speed_max_mps = 3.0;
  SimDuration pause = 500 * kMillisecond;  // dwell at each waypoint
  SimDuration sample_interval = 100 * kMillisecond;  // connectivity cadence

  /// A topology other than the single-hop default was requested.
  [[nodiscard]] bool topology_set() const {
    return placement != Placement::kSingleHop;
  }
  /// The spatial layer can affect delivery at all. An infinite radius is
  /// *defined* as the single-hop medium: the harness installs no Topology
  /// and the run is byte-identical to a non-spatial one (the radius=inf
  /// golden test pins this). Fading is relative to the disk edge, so it
  /// too needs a finite radius to mean anything.
  [[nodiscard]] bool active() const {
    return topology_set() && std::isfinite(radius_m);
  }
};

/// Gossip relay counters for one repetition (RelayFabric::Stats; the
/// relay counts in it directly).
struct RelayStats {
  std::uint64_t origin_frames = 0;  // application broadcasts entering
  std::uint64_t forwards = 0;       // gossip rebroadcasts sent
  std::uint64_t suppressed = 0;     // forwards cancelled by duplicates
  std::uint64_t duplicates = 0;     // duplicate receptions discarded
  std::uint64_t deliveries = 0;     // unique non-origin app deliveries

  RelayStats& operator+=(const RelayStats& o) {
    origin_frames += o.origin_frames;
    forwards += o.forwards;
    suppressed += o.suppressed;
    duplicates += o.duplicates;
    deliveries += o.deliveries;
    return *this;
  }
};

/// Spatial counters for one repetition: the topology counts the
/// connectivity fields directly, the harness adds the relay's counters and
/// sums the whole across repetitions.
struct SpatialStats {
  // Connectivity sampling (unit disk, fixed cadence).
  std::uint64_t samples = 0;
  std::uint64_t partition_events = 0;     // connected -> disconnected edges
  std::uint64_t partitioned_samples = 0;  // samples with > 1 component
  std::uint64_t path_hops_sum = 0;        // over connected ordered pairs
  std::uint64_t path_pairs = 0;
  std::uint64_t cs_domains_sum = 0;       // carrier-sense components
  RelayStats relay;  // zero when the relay is not installed

  SpatialStats& operator+=(const SpatialStats& o) {
    samples += o.samples;
    partition_events += o.partition_events;
    partitioned_samples += o.partitioned_samples;
    path_hops_sum += o.path_hops_sum;
    path_pairs += o.path_pairs;
    cs_domains_sum += o.cs_domains_sum;
    relay += o.relay;
    return *this;
  }
};

struct Position {
  double x = 0.0;
  double y = 0.0;
};

class Topology final : public net::SpatialModel {
 public:
  /// `rng` is the topology's private root; placement, per-node motion and
  /// fading each get their own derived stream.
  Topology(const SpatialConfig& config, std::uint32_t n, Rng rng);

  [[nodiscard]] bool reachable(ProcessId src, ProcessId dst,
                               SimTime now) override;
  [[nodiscard]] bool carrier_sense(ProcessId a, ProcessId b,
                                   SimTime now) override;

  /// The node's position at `now` (advances mobility; `now` must be
  /// monotone across all queries, which medium-driven use guarantees).
  [[nodiscard]] Position position(ProcessId id, SimTime now);

  /// Advances mobility and connectivity sampling to `now`.
  void advance(SimTime now);

  /// Pins a node to a fixed position, excluding it from mobility. Test
  /// hook for exact-geometry cases (radius edge, colinear hidden triple).
  void pin(ProcessId id, Position p);

  /// The connectivity counters so far (relay fields stay zero).
  [[nodiscard]] const SpatialStats& stats() const { return stats_; }
  [[nodiscard]] const SpatialConfig& config() const { return config_; }

 private:
  struct Leg {
    Position from;
    Position to;
    SimTime start = 0;
    SimTime end = 0;  // end <= start encodes "pause over, draw next leg"
  };
  struct Node {
    Leg leg;        // current motion segment (from == to while paused)
    Rng rng;        // this node's waypoint stream
    bool pinned = false;
  };

  void advance_motion(SimTime now);
  void next_leg(Node& node, SimTime now);
  void sample_connectivity(SimTime at);
  [[nodiscard]] Position position_unlocked(const Node& node, SimTime now) const;
  [[nodiscard]] double distance(ProcessId a, ProcessId b, SimTime now);

  SpatialConfig config_;
  std::uint32_t n_ = 0;
  std::vector<Node> nodes_;
  Rng fading_rng_;
  SimTime advanced_to_ = 0;
  SimTime next_sample_ = 0;
  bool was_connected_ = true;
  SpatialStats stats_;
};

[[nodiscard]] std::string to_string(Placement p);
[[nodiscard]] std::string to_string(Mobility m);

/// Parses a topology spec into `out` (placement + optional parameters):
///   single | grid | ring | random
/// optionally followed by (k=v,...) with keys r/radius ("inf" allowed),
/// area, cs, fading, alpha — e.g. "grid(r=150,area=400)". Returns false
/// and fills `error` (when non-null) on a malformed spec.
bool parse_topology(std::string_view spec, SpatialConfig* out,
                    std::string* error);

/// Parses a mobility spec into `out`:
///   static | waypoint            optionally waypoint(vmin=1,vmax=3,pause=500)
/// with speeds in m/s and pause in milliseconds.
bool parse_mobility(std::string_view spec, SpatialConfig* out,
                    std::string* error);

/// One-line human description ("grid r=150m area=300m waypoint 1-3m/s").
[[nodiscard]] std::string describe(const SpatialConfig& config);

/// Round-trip serializers: parse_topology(to_spec_topology(c)) and
/// parse_mobility(to_spec_mobility(c)) reproduce the config exactly
/// (numbers are printed with %.17g). The fuzzer uses these to emit
/// copy-pasteable reproducer command lines.
[[nodiscard]] std::string to_spec_topology(const SpatialConfig& config);
[[nodiscard]] std::string to_spec_mobility(const SpatialConfig& config);

}  // namespace turq::spatial
