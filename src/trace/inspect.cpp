#include "trace/inspect.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <vector>

#include "common/types.hpp"

namespace turq::trace {

namespace {

/// Extracts the integer following `key` (e.g. "\"t\":") from a JSONL line.
bool find_ll(const std::string& line, const char* key, long long& out) {
  const auto pos = line.find(key);
  if (pos == std::string::npos) return false;
  out = std::strtoll(line.c_str() + pos + std::strlen(key), nullptr, 10);
  return true;
}

/// Extracts the string following `key` (e.g. "\"kind\":\"") up to the
/// closing quote.
std::string find_str(const std::string& line, const char* key) {
  const auto pos = line.find(key);
  if (pos == std::string::npos) return {};
  const auto start = pos + std::strlen(key);
  const auto end = line.find('"', start);
  if (end == std::string::npos) return {};
  return line.substr(start, end - start);
}

void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

struct ProcessRun {
  std::optional<long long> propose_at;
  std::optional<long long> decide_at;
  long long decide_phase = 0;
  std::vector<std::pair<long long, long long>> phase_enters;  // (t, phase)
};

}  // namespace

std::string inspect_jsonl(std::istream& in) {
  std::map<std::string, unsigned long long> counters;
  std::map<std::pair<long long, long long>, ProcessRun> runs;  // (rep, p)
  std::map<long long, long long> broadcasts_by_process;
  std::map<long long, std::pair<long long, long long>> rep_bounds;  // rep -> (min,max)
  unsigned long long events = 0;
  unsigned long long dropped = 0;
  long long event_lines = 0;
  long long rep = 0;
  long long reps_seen = 0;

  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.find("\"type\":\"metric\"") != std::string::npos) {
      long long value = 0;
      find_ll(line, "\"value\":", value);
      counters[find_str(line, "\"name\":\"")] +=
          static_cast<unsigned long long>(value);
      continue;
    }
    if (line.find("\"type\":\"hist\"") != std::string::npos) continue;
    if (line.find("\"type\":\"trace_end\"") != std::string::npos) {
      long long e = 0;
      long long d = 0;
      find_ll(line, "\"events\":", e);
      find_ll(line, "\"dropped\":", d);
      events += static_cast<unsigned long long>(e);
      dropped += static_cast<unsigned long long>(d);
      continue;
    }

    long long t = 0;
    if (!find_ll(line, "\"t\":", t)) continue;  // not a trace line
    ++event_lines;
    const std::string kind = find_str(line, "\"kind\":\"");
    long long p = -1;
    long long phase = 0;
    long long v = 0;
    find_ll(line, "\"p\":", p);
    find_ll(line, "\"phase\":", phase);
    find_ll(line, "\"v\":", v);

    if (kind == "rep_begin") {
      rep = v;
      ++reps_seen;
    }
    auto& bounds = rep_bounds.try_emplace(rep, std::make_pair(t, t)).first->second;
    bounds.first = std::min(bounds.first, t);
    bounds.second = std::max(bounds.second, t);

    if (kind == "propose") {
      runs[{rep, p}].propose_at = t;
    } else if (kind == "decide") {
      auto& r = runs[{rep, p}];
      if (!r.decide_at.has_value()) {
        r.decide_at = t;
        r.decide_phase = phase;
      }
    } else if (kind == "phase_enter" || kind == "round_enter") {
      runs[{rep, p}].phase_enters.emplace_back(t, phase);
    } else if (kind == "state_broadcast") {
      ++broadcasts_by_process[p];
    }
  }

  const auto counter = [&](const char* name) -> unsigned long long {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  };
  const auto ms = [](long long ns) {
    return static_cast<double>(ns) / 1e6;
  };

  long long span_ns = 0;
  for (const auto& [r, b] : rep_bounds) {
    (void)r;
    span_ns += b.second - b.first;
  }
  if (reps_seen == 0) reps_seen = rep_bounds.empty() ? 0 : 1;

  std::string out;
  appendf(out, "== trace summary ==\n");
  appendf(out, "repetitions: %lld, events: %llu, dropped: %llu\n", reps_seen,
          events, dropped);
  appendf(out, "simulated span: %.3f ms\n", ms(span_ns));
  if (event_lines == 0) {
    out += "(no events)\n";
    return out;
  }

  // Per-phase dwell: each process's stay in phase k runs from its enter to
  // the next enter (or to its decide/rep end for the last phase).
  std::map<long long, std::pair<long long, long long>> dwell;  // phase -> (enters, ns)
  long long decided = 0;
  long long correct_runs = 0;
  double latency_sum_ms = 0.0;
  for (auto& [key, r] : runs) {
    if (!r.propose_at.has_value()) continue;  // channel lane etc.
    ++correct_runs;
    if (r.decide_at.has_value()) {
      ++decided;
      latency_sum_ms += ms(*r.decide_at - *r.propose_at);
    }
    std::stable_sort(r.phase_enters.begin(), r.phase_enters.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    const long long rep_end = rep_bounds[key.first].second;
    for (std::size_t i = 0; i < r.phase_enters.size(); ++i) {
      const auto [t0, ph] = r.phase_enters[i];
      long long t1;
      if (i + 1 < r.phase_enters.size()) {
        t1 = r.phase_enters[i + 1].first;
      } else {
        t1 = r.decide_at.has_value() ? std::max(*r.decide_at, t0) : rep_end;
      }
      auto& d = dwell[ph];
      ++d.first;
      d.second += t1 - t0;
    }
  }

  appendf(out, "\n== per-phase latency ==\n");
  appendf(out, "%6s %8s %14s %10s\n", "phase", "enters", "mean_dwell_ms",
          "total_ms");
  for (const auto& [ph, d] : dwell) {
    appendf(out, "%6lld %8lld %14.3f %10.3f\n", ph, d.first,
            ms(d.second) / static_cast<double>(d.first), ms(d.second));
  }
  if (decided > 0) {
    appendf(out, "decided: %lld/%lld processes, mean decide latency %.2f ms\n",
            decided, correct_runs,
            latency_sum_ms / static_cast<double>(decided));
  } else {
    appendf(out, "decided: 0/%lld processes\n", correct_runs);
  }

  const unsigned long long bcast = counter("medium.broadcast_frames");
  const unsigned long long ucast = counter("medium.unicast_frames");
  const unsigned long long tx = bcast + ucast;
  const unsigned long long collided = counter("medium.frames_collided");
  const double airtime_ms = ms(static_cast<long long>(counter("medium.airtime_ns")));
  // Under a spatial topology the channel is not one shared cell: frames in
  // different carrier-sense domains occupy the air concurrently, so raw
  // airtime/span overstates saturation. Normalize by the mean number of
  // sense domains sampled by the topology. Single-hop traces carry no
  // spatial counters and keep the legacy line byte for byte.
  const unsigned long long sp_samples = counter("spatial.samples");
  appendf(out, "\n== channel ==\n");
  if (sp_samples > 0) {
    const double mean_domains =
        static_cast<double>(counter("spatial.cs_domains_sum")) /
        static_cast<double>(sp_samples);
    const double capacity_ms = ms(span_ns) * std::max(mean_domains, 1.0);
    appendf(out,
            "airtime %.3f ms / span %.3f ms x %.2f carrier-sense domains -> "
            "utilization %.1f%% per domain\n",
            airtime_ms, ms(span_ns), mean_domains,
            capacity_ms > 0.0 ? 100.0 * airtime_ms / capacity_ms : 0.0);
  } else {
    appendf(out, "airtime %.3f ms / span %.3f ms -> utilization %.1f%%\n",
            airtime_ms, ms(span_ns),
            span_ns > 0 ? 100.0 * airtime_ms / ms(span_ns) : 0.0);
  }
  appendf(out,
          "tx frames: %llu broadcast + %llu unicast, %llu collision events, "
          "%llu frames collided (%.1f%% of tx)\n",
          bcast, ucast, counter("medium.collisions"), collided,
          tx > 0 ? 100.0 * static_cast<double>(collided) /
                       static_cast<double>(tx)
                 : 0.0);
  appendf(out,
          "mac retries: %llu, unicast drops: %llu, omissions: %llu, "
          "deliveries: %llu, bytes on air: %llu\n",
          counter("medium.mac_retries"), counter("medium.unicast_drops"),
          counter("medium.omissions"), counter("medium.deliveries"),
          counter("medium.bytes_on_air"));

  // Multi-hop topology/relay section, present only when the run carried
  // spatial counters (single-hop traces don't, keeping their output stable).
  if (sp_samples > 0) {
    const unsigned long long deliveries = counter("medium.deliveries");
    const unsigned long long losses = counter("medium.omissions") +
                                      counter("medium.unreachable") +
                                      counter("medium.frames_collided");
    const unsigned long long attempts = deliveries + losses;
    const unsigned long long pairs = counter("spatial.path_pairs");
    const unsigned long long origins = counter("spatial.relay.origin_frames");
    const unsigned long long rdeliv = counter("spatial.relay.deliveries");
    appendf(out, "\n== spatial ==\n");
    appendf(out,
            "per-hop delivery: %llu/%llu (frame,receiver) pairs (%.1f%%); "
            "unreachable: %llu, hidden-terminal: %llu\n",
            deliveries, attempts,
            attempts > 0 ? 100.0 * static_cast<double>(deliveries) /
                               static_cast<double>(attempts)
                         : 0.0,
            counter("medium.unreachable"), counter("medium.hidden_terminal"));
    appendf(out,
            "connectivity: %llu samples, mean path %.2f hops, "
            "partition events: %llu, partitioned samples: %llu\n",
            sp_samples,
            pairs > 0 ? static_cast<double>(counter("spatial.path_hops_sum")) /
                            static_cast<double>(pairs)
                      : 0.0,
            counter("spatial.partition_events"),
            counter("spatial.partitioned_samples"));
    if (origins > 0) {
      appendf(out,
              "relay: %llu origin frames -> %llu forwards "
              "(%llu suppressed, %llu duplicates), end-to-end %.2f unique "
              "deliveries per origin frame\n",
              origins, counter("spatial.relay.forwards"),
              counter("spatial.relay.suppressed"),
              counter("spatial.relay.duplicates"),
              static_cast<double>(rdeliv) / static_cast<double>(origins));
    }
  }

  // σ accounting, present only when the scenario's fault plan tracked it
  // (the counters sum across repetition blocks, so per-rep quantities are
  // recovered by dividing by tracked_reps).
  const unsigned long long sigma_reps = counter("sigma.tracked_reps");
  if (sigma_reps > 0) {
    const unsigned long long eligible = counter("sigma.eligible_reps");
    const unsigned long long violating = counter("sigma.violating_rounds");
    appendf(out, "\n== sigma ==\n");
    appendf(out,
            "bound: %llu omissions/round, rounds: %llu, violating: %llu, "
            "omissions: %llu\n",
            counter("sigma.bound") / sigma_reps, counter("sigma.rounds"),
            violating, counter("sigma.omissions"));
    appendf(out, "liveness-eligible repetitions: %llu/%llu (%s)\n", eligible,
            sigma_reps,
            violating == 0 ? "liveness-eligible" : "sigma-violating");
  }

  // Consensus audit, present whenever the harness ran the auditor (the
  // default). Per-property counters only appear on a violation, so a clean
  // run prints the two summary lines.
  const unsigned long long audit_reps = counter("audit.checked_reps");
  if (audit_reps > 0) {
    const unsigned long long audit_violations = counter("audit.violations");
    appendf(out, "\n== audit ==\n");
    appendf(out, "checked repetitions: %llu, violating: %llu, violations: %llu\n",
            audit_reps, counter("audit.violating_reps"), audit_violations);
    for (const char* prop :
         {"validity", "agreement", "unanimity", "phase_monotonicity",
          "quorum_sanity", "sigma_liveness"}) {
      const unsigned long long v = counter(("audit." + std::string(prop)).c_str());
      if (v > 0) appendf(out, "  %s: %llu\n", prop, v);
    }
    appendf(out, "verdict: %s\n", audit_violations == 0 ? "pass" : "FAIL");
  }

  // Exchange-pool accounting: one decode + verify per unique payload,
  // shared across receivers. Present in every Turquois trace; the
  // baselines have no pool.
  if (counters.find("exchange_pool.acquires") != counters.end()) {
    const unsigned long long acq = counter("exchange_pool.acquires");
    const unsigned long long hits = counter("exchange_pool.hits");
    appendf(out, "\n== exchange pool ==\n");
    appendf(out, "acquires: %llu, shared hits: %llu (%.1f%%), misses: %llu\n",
            acq, hits,
            acq > 0 ? 100.0 * static_cast<double>(hits) /
                          static_cast<double>(acq)
                    : 0.0,
            counter("exchange_pool.misses"));
  }

  // Consensus-service accounting (turquois_sim --service): the replicated
  // queue's request flow, instance pipeline, and frame-mux amortization.
  if (counters.find("service.arrivals") != counters.end()) {
    const unsigned long long frames = counter("service.mux_frames");
    const unsigned long long payloads = counter("service.mux_payloads");
    appendf(out, "\n== service ==\n");
    appendf(out, "requests: %llu arrivals, %llu committed, %llu rejected\n",
            counter("service.arrivals"), counter("service.committed"),
            counter("service.rejected"));
    appendf(out,
            "instances: %llu launched, %llu decided, %llu failed, "
            "%llu key batches\n",
            counter("service.instances_launched"),
            counter("service.instances_decided"),
            counter("service.instances_failed"),
            counter("service.key_batches"));
    appendf(out,
            "mux: %llu frames carried %llu payloads (%.2f/frame), "
            "%llu splits, %llu superseded, %llu late drops\n",
            frames, payloads,
            frames > 0 ? static_cast<double>(payloads) /
                             static_cast<double>(frames)
                       : 0.0,
            counter("service.mux_splits"), counter("service.mux_superseded"),
            counter("service.mux_late_drops"));
  }

  appendf(out, "\n== message complexity ==\n");
  appendf(out, "%8s %11s %8s %13s %16s\n", "process", "broadcasts", "decides",
          "decide_phase", "mean_latency_ms");
  std::map<long long, std::pair<long long, double>> decide_by_p;  // p -> (n, ms)
  std::map<long long, long long> decide_phase_by_p;
  for (const auto& [key, r] : runs) {
    if (!r.propose_at.has_value() || !r.decide_at.has_value()) continue;
    auto& d = decide_by_p[key.second];
    ++d.first;
    d.second += ms(*r.decide_at - *r.propose_at);
    decide_phase_by_p[key.second] += r.decide_phase;
  }
  std::map<long long, bool> all_processes;
  for (const auto& [key, r] : runs) {
    if (r.propose_at.has_value()) all_processes[key.second] = true;
  }
  for (const auto& [p, seen] : all_processes) {
    (void)seen;
    const auto bit = broadcasts_by_process.find(p);
    const long long nbcast = bit == broadcasts_by_process.end() ? 0 : bit->second;
    const auto dit = decide_by_p.find(p);
    if (dit != decide_by_p.end() && dit->second.first > 0) {
      const double n = static_cast<double>(dit->second.first);
      appendf(out, "%8lld %11lld %8lld %13.1f %16.2f\n", p, nbcast,
              dit->second.first,
              static_cast<double>(decide_phase_by_p[p]) / n,
              dit->second.second / n);
    } else {
      appendf(out, "%8lld %11lld %8d %13s %16s\n", p, nbcast, 0, "-", "-");
    }
  }
  const unsigned long long app = counter("app.messages");
  if (app > 0 && correct_runs > 0) {
    appendf(out, "total app messages: %llu (%.2f per correct process-run)\n",
            app, static_cast<double>(app) / static_cast<double>(correct_runs));
  }
  const unsigned long long segs = counter("tcp.segments_sent");
  if (segs > 0) {
    appendf(out,
            "tcp: %llu messages, %llu segments (%llu retransmitted), "
            "%llu RTO fires, %llu fast retransmits\n",
            counter("tcp.messages_sent"), segs,
            counter("tcp.segments_retransmitted"), counter("tcp.rto_fires"),
            counter("tcp.fast_retransmits"));
  }
  return out;
}

}  // namespace turq::trace
