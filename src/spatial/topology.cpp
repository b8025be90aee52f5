#include "spatial/topology.hpp"

#include <algorithm>
#include <cstdlib>
#include <numbers>

#include "common/assert.hpp"

namespace turq::spatial {

namespace {

/// Travel time for `dist` meters at `speed` m/s, floored at 1 ns so a
/// degenerate draw (waypoint == current position) still advances time.
SimDuration travel_time(double dist, double speed) {
  const double ns = dist / speed * 1e9;
  return std::max<SimDuration>(1, static_cast<SimDuration>(ns));
}

}  // namespace

Topology::Topology(const SpatialConfig& config, std::uint32_t n, Rng rng)
    : config_(config), n_(n), fading_rng_(rng.derive("fading", 0)) {
  TURQ_ASSERT_MSG(config_.topology_set(),
                  "single-hop needs no Topology; install none instead");

  Rng place = rng.derive("place", 0);
  nodes_.resize(n_);
  for (ProcessId id = 0; id < n_; ++id) {
    Position p;
    switch (config_.placement) {
      case Placement::kGrid: {
        const auto cols = static_cast<std::uint32_t>(
            std::ceil(std::sqrt(static_cast<double>(n_))));
        const std::uint32_t rows = (n_ + cols - 1) / cols;
        const double cw = config_.area_m / cols;
        const double ch = config_.area_m / rows;
        p = {(id % cols + 0.5) * cw, (id / cols + 0.5) * ch};
        break;
      }
      case Placement::kRing: {
        const double c = config_.area_m / 2.0;
        const double r = config_.area_m * 0.4;
        const double theta = 2.0 * std::numbers::pi * id / n_;
        p = {c + r * std::cos(theta), c + r * std::sin(theta)};
        break;
      }
      case Placement::kRandom:
        p = {place.uniform_double() * config_.area_m,
             place.uniform_double() * config_.area_m};
        break;
      case Placement::kSingleHop:
        break;  // unreachable (asserted above)
    }
    Node& node = nodes_[id];
    node.leg = Leg{.from = p, .to = p, .start = 0, .end = 0};
    node.rng = rng.derive("motion", id);
  }
}

void Topology::pin(ProcessId id, Position p) {
  TURQ_ASSERT(id < n_);
  Node& node = nodes_[id];
  node.pinned = true;
  node.leg = Leg{.from = p, .to = p, .start = 0,
                 .end = std::numeric_limits<SimTime>::max()};
}

void Topology::next_leg(Node& node, SimTime now) {
  // Alternates travel legs and pauses. A leg with from == to is a pause
  // (or the initial placement); the leg after a pause travels to a fresh
  // uniformly drawn waypoint at a uniformly drawn speed.
  const SimTime start = node.leg.end;
  const Position at = node.leg.to;
  const bool was_pause =
      node.leg.from.x == node.leg.to.x && node.leg.from.y == node.leg.to.y;
  if (was_pause) {
    const Position dest{node.rng.uniform_double() * config_.area_m,
                        node.rng.uniform_double() * config_.area_m};
    const double speed =
        config_.speed_min_mps +
        node.rng.uniform_double() *
            (config_.speed_max_mps - config_.speed_min_mps);
    const double dist = std::hypot(dest.x - at.x, dest.y - at.y);
    node.leg = Leg{.from = at, .to = dest, .start = start,
                   .end = start + travel_time(dist, speed)};
  } else {
    node.leg = Leg{.from = at, .to = at, .start = start,
                   .end = start + std::max<SimDuration>(1, config_.pause)};
  }
  (void)now;
}

void Topology::advance_motion(SimTime now) {
  if (config_.mobility != Mobility::kWaypoint) return;
  for (Node& node : nodes_) {
    if (node.pinned) continue;
    while (node.leg.end <= now) next_leg(node, now);
  }
}

Position Topology::position_unlocked(const Node& node, SimTime now) const {
  const Leg& leg = node.leg;
  if (now <= leg.start || leg.end <= leg.start) return leg.from;
  if (now >= leg.end) return leg.to;
  const double f = static_cast<double>(now - leg.start) /
                   static_cast<double>(leg.end - leg.start);
  return {leg.from.x + (leg.to.x - leg.from.x) * f,
          leg.from.y + (leg.to.y - leg.from.y) * f};
}

void Topology::advance(SimTime now) {
  if (now < advanced_to_) return;  // queries are monotone; clamp stragglers
  while (next_sample_ <= now) {
    advance_motion(next_sample_);
    sample_connectivity(next_sample_);
    next_sample_ += std::max<SimDuration>(1, config_.sample_interval);
  }
  advance_motion(now);
  advanced_to_ = now;
}

Position Topology::position(ProcessId id, SimTime now) {
  TURQ_ASSERT(id < n_);
  advance(now);
  return position_unlocked(nodes_[id], now);
}

double Topology::distance(ProcessId a, ProcessId b, SimTime now) {
  const Position pa = position_unlocked(nodes_[a], now);
  const Position pb = position_unlocked(nodes_[b], now);
  return std::hypot(pa.x - pb.x, pa.y - pb.y);
}

bool Topology::reachable(ProcessId src, ProcessId dst, SimTime now) {
  TURQ_ASSERT(src < n_ && dst < n_);
  advance(now);
  const double d = distance(src, dst, now);
  if (!std::isfinite(config_.radius_m)) return true;
  if (config_.fading_sigma_db <= 0.0) {
    return d <= config_.radius_m;  // unit disk; the edge itself is in range
  }
  // Log-distance shadowing: the dB margin at distance d is
  // 10*alpha*log10(radius/d); a zero-mean Gaussian shadow with sigma dB
  // flips the outcome with probability Phi(-margin/sigma). Consumes one
  // draw from the dedicated fading stream per query.
  if (d <= 1e-9) return true;
  const double margin_db =
      10.0 * config_.fading_alpha * std::log10(config_.radius_m / d);
  const double z = margin_db / config_.fading_sigma_db;
  const double p_deliver = 0.5 * std::erfc(-z / std::numbers::sqrt2);
  return fading_rng_.uniform_double() < p_deliver;
}

bool Topology::carrier_sense(ProcessId a, ProcessId b, SimTime now) {
  TURQ_ASSERT(a < n_ && b < n_);
  advance(now);
  if (!std::isfinite(config_.radius_m)) return true;
  return distance(a, b, now) <= config_.radius_m * config_.cs_factor;
}

void Topology::sample_connectivity(SimTime at) {
  // Metrics describe the deterministic unit-disk graph at the sample
  // instant; per-frame fading luck is deliberately excluded.
  ++stats_.samples;
  const std::uint32_t n = n_;
  if (n == 0) return;
  std::vector<std::uint8_t> adj(static_cast<std::size_t>(n) * n, 0);
  std::vector<std::uint8_t> cs_adj(static_cast<std::size_t>(n) * n, 0);
  const bool infinite = !std::isfinite(config_.radius_m);
  for (ProcessId a = 0; a < n; ++a) {
    for (ProcessId b = a + 1; b < n; ++b) {
      const double d = distance(a, b, at);
      const bool in = infinite || d <= config_.radius_m;
      const bool sensed = infinite || d <= config_.radius_m * config_.cs_factor;
      adj[a * n + b] = adj[b * n + a] = in ? 1 : 0;
      cs_adj[a * n + b] = cs_adj[b * n + a] = sensed ? 1 : 0;
    }
  }

  // Hop counts via BFS from every node (n <= 64 keeps this trivial).
  std::vector<std::uint32_t> hops(n);
  std::vector<ProcessId> queue;
  bool connected = true;
  for (ProcessId s = 0; s < n; ++s) {
    std::fill(hops.begin(), hops.end(), ~0U);
    hops[s] = 0;
    queue.assign(1, s);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const ProcessId u = queue[head];
      for (ProcessId v = 0; v < n; ++v) {
        if (adj[u * n + v] != 0 && hops[v] == ~0U) {
          hops[v] = hops[u] + 1;
          queue.push_back(v);
        }
      }
    }
    for (ProcessId t = s + 1; t < n; ++t) {
      if (hops[t] == ~0U) {
        connected = false;
        continue;
      }
      stats_.path_hops_sum += hops[t];
      ++stats_.path_pairs;
    }
  }
  if (!connected) ++stats_.partitioned_samples;
  if (was_connected_ && !connected) ++stats_.partition_events;
  was_connected_ = connected;

  // Carrier-sense domains: connected components of the sense graph — the
  // denominator for per-domain channel utilization in trace_inspect.
  std::vector<std::uint8_t> seen(n, 0);
  std::uint64_t domains = 0;
  for (ProcessId s = 0; s < n; ++s) {
    if (seen[s] != 0) continue;
    ++domains;
    queue.assign(1, s);
    seen[s] = 1;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const ProcessId u = queue[head];
      for (ProcessId v = 0; v < n; ++v) {
        if (cs_adj[u * n + v] != 0 && seen[v] == 0) {
          seen[v] = 1;
          queue.push_back(v);
        }
      }
    }
  }
  stats_.cs_domains_sum += domains;
}

// ------------------------------------------------------------------ specs --

std::string to_string(Placement p) {
  switch (p) {
    case Placement::kSingleHop: return "single";
    case Placement::kGrid: return "grid";
    case Placement::kRing: return "ring";
    case Placement::kRandom: return "random";
  }
  return "?";
}

std::string to_string(Mobility m) {
  return m == Mobility::kWaypoint ? "waypoint" : "static";
}

namespace {

void set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

/// Splits "name(k=v,...)" into name and k=v pairs. Returns false on
/// unbalanced parentheses or a malformed pair.
bool split_spec(std::string_view spec, std::string_view* name,
                std::vector<std::pair<std::string, std::string>>* args,
                std::string* error) {
  const std::size_t open = spec.find('(');
  if (open == std::string_view::npos) {
    *name = spec;
    return true;
  }
  if (spec.back() != ')') {
    set_error(error, "expected ')' at the end of '" + std::string(spec) + "'");
    return false;
  }
  *name = spec.substr(0, open);
  std::string_view body = spec.substr(open + 1, spec.size() - open - 2);
  while (!body.empty()) {
    const std::size_t comma = body.find(',');
    const std::string_view pair =
        comma == std::string_view::npos ? body : body.substr(0, comma);
    body = comma == std::string_view::npos ? std::string_view{}
                                           : body.substr(comma + 1);
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      set_error(error, "expected key=value, got '" + std::string(pair) + "'");
      return false;
    }
    args->emplace_back(std::string(pair.substr(0, eq)),
                       std::string(pair.substr(eq + 1)));
  }
  return true;
}

bool parse_number(const std::string& value, double* out, std::string* error) {
  if (value == "inf") {
    *out = kInfiniteRadius;
    return true;
  }
  char* end = nullptr;
  *out = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    set_error(error, "bad number '" + value + "'");
    return false;
  }
  return true;
}

}  // namespace

bool parse_topology(std::string_view spec, SpatialConfig* out,
                    std::string* error) {
  std::string_view name;
  std::vector<std::pair<std::string, std::string>> args;
  if (!split_spec(spec, &name, &args, error)) return false;
  if (name == "single" || name == "single-hop") {
    out->placement = Placement::kSingleHop;
  } else if (name == "grid") {
    out->placement = Placement::kGrid;
  } else if (name == "ring") {
    out->placement = Placement::kRing;
  } else if (name == "random") {
    out->placement = Placement::kRandom;
  } else {
    set_error(error, "unknown topology '" + std::string(name) +
                         "' (expected single|grid|ring|random)");
    return false;
  }
  for (const auto& [key, value] : args) {
    double v = 0.0;
    if (!parse_number(value, &v, error)) return false;
    if (key == "r" || key == "radius") {
      out->radius_m = v;
    } else if (key == "area") {
      out->area_m = v;
    } else if (key == "cs") {
      out->cs_factor = v;
    } else if (key == "fading") {
      out->fading_sigma_db = v;
    } else if (key == "alpha") {
      out->fading_alpha = v;
    } else {
      set_error(error, "unknown topology key '" + key +
                           "' (expected r|radius|area|cs|fading|alpha)");
      return false;
    }
  }
  return true;
}

bool parse_mobility(std::string_view spec, SpatialConfig* out,
                    std::string* error) {
  std::string_view name;
  std::vector<std::pair<std::string, std::string>> args;
  if (!split_spec(spec, &name, &args, error)) return false;
  if (name == "static") {
    out->mobility = Mobility::kStatic;
  } else if (name == "waypoint") {
    out->mobility = Mobility::kWaypoint;
  } else {
    set_error(error, "unknown mobility '" + std::string(name) +
                         "' (expected static|waypoint)");
    return false;
  }
  for (const auto& [key, value] : args) {
    double v = 0.0;
    if (!parse_number(value, &v, error)) return false;
    if (key == "vmin") {
      out->speed_min_mps = v;
    } else if (key == "vmax") {
      out->speed_max_mps = v;
    } else if (key == "pause") {
      out->pause = static_cast<SimDuration>(v * kMillisecond);
    } else {
      set_error(error, "unknown mobility key '" + key +
                           "' (expected vmin|vmax|pause)");
      return false;
    }
  }
  return true;
}

std::string describe(const SpatialConfig& config) {
  if (!config.topology_set()) return "single-hop";
  char buf[160];
  std::string out = to_string(config.placement);
  if (std::isfinite(config.radius_m)) {
    std::snprintf(buf, sizeof buf, " r=%.0fm area=%.0fm", config.radius_m,
                  config.area_m);
  } else {
    std::snprintf(buf, sizeof buf, " r=inf area=%.0fm", config.area_m);
  }
  out += buf;
  if (config.fading_sigma_db > 0.0) {
    std::snprintf(buf, sizeof buf, " fading=%.1fdB", config.fading_sigma_db);
    out += buf;
  }
  if (config.mobility == Mobility::kWaypoint) {
    std::snprintf(buf, sizeof buf, " waypoint %.1f-%.1fm/s pause %.0fms",
                  config.speed_min_mps, config.speed_max_mps,
                  to_milliseconds(config.pause));
    out += buf;
  } else {
    out += " static";
  }
  return out;
}

namespace {

/// %.17g round-trips IEEE 754 binary64 through strtod exactly.
std::string spec_number(double x) {
  if (!std::isfinite(x)) return "inf";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

}  // namespace

std::string to_spec_topology(const SpatialConfig& config) {
  if (!config.topology_set()) return "single";
  std::string out = to_string(config.placement);
  out += "(r=" + spec_number(config.radius_m);
  out += ",area=" + spec_number(config.area_m);
  out += ",cs=" + spec_number(config.cs_factor);
  if (config.fading_sigma_db > 0.0) {
    out += ",fading=" + spec_number(config.fading_sigma_db);
    out += ",alpha=" + spec_number(config.fading_alpha);
  }
  out += ")";
  return out;
}

std::string to_spec_mobility(const SpatialConfig& config) {
  if (config.mobility != Mobility::kWaypoint) return "static";
  std::string out = "waypoint(vmin=" + spec_number(config.speed_min_mps);
  out += ",vmax=" + spec_number(config.speed_max_mps);
  out += ",pause=" + spec_number(to_milliseconds(config.pause));
  out += ")";
  return out;
}

}  // namespace turq::spatial
