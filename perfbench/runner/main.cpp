// perfbench_runner — one workload, one seed, one measurement window.
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Untraced (--trace 0): runs the workload's fixed job list once for the
// simulated-time metrics (a pure function of the seed), then keeps
// repeating whole passes over the same jobs until --seconds of host time
// have passed, for the host-time metrics. Every host time is scaled to a
// reference machine speed by a SpeedProbe sampled between jobs. Traced
// (--trace 1): runs each job three ways back to back — the plain harness
// call, the same call traced into a FigureSink, and the decorated
// deployment copy (Turquois and Bracha workloads) — for the per-layer
// breakdown. Every job of every pass is checked (deadline, auditor,
// agreement, validity, identical outcome across passes and across the three
// ways); the last stdout line is the JSON result, and any failed check makes
// the exit code 1. See perfbench/README.md.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "common/stats.hpp"
#include "crypto/onetime_sig.hpp"
#include "deployment.hpp"
#include "faultplan/spec.hpp"
#include "harness/experiment.hpp"
#include "net/broadcast_endpoint.hpp"
#include "probes.hpp"
#include "service/service.hpp"
#include "speed.hpp"
#include "trace/trace.hpp"
#include "turquois/key_infra.hpp"
#include "turquois/message.hpp"

namespace perfbench {
namespace {

namespace harness = turq::harness;
namespace service = turq::service;
namespace turquois = turq::turquois;
using harness::RunResult;
using harness::ScenarioConfig;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One scenario and how many of its repetitions a pass runs.
struct Leg {
  ScenarioConfig cfg;
  std::uint32_t reps = 0;
  bool latency = false;   // its latencies are the workload's samples
  bool capacity = false;  // service saturating leg: committed_rps
};

struct Workload {
  std::string name;
  bool service = false;
  std::vector<Leg> legs;
};

turq::faultplan::FaultPlan plan(const char* spec) {
  std::string error;
  auto p = turq::faultplan::plan_from_name(spec, &error);
  if (!p) throw std::invalid_argument("fault plan '" + std::string(spec) + "': " + error);
  return *p;
}

ScenarioConfig base_config(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.jobs = 1;
  cfg.intra_jobs = 1;
  cfg.audit = true;
  return cfg;
}

/// The workloads. README.md records why each exists and what it exercises;
/// the sizes give every workload at least 1000 latency samples.
std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "ff-n64") {
    ScenarioConfig cfg = base_config(seed);
    cfg.protocol = harness::Protocol::kTurquois;
    cfg.n = 64;
    cfg.distribution = harness::ProposalDist::kUnanimous;  // no plan: failure-free
    // Some repetitions cost far more host time than others, so many are
    // needed for a steady decisions_per_wall_s.
    w.legs.push_back(Leg{cfg, 128, true, false});
  } else if (name == "tcp-n16") {
    ScenarioConfig cfg = base_config(seed);
    cfg.protocol = harness::Protocol::kBracha;
    cfg.n = 16;
    cfg.distribution = harness::ProposalDist::kUnanimous;
    cfg.plan = plan("iid(p=0.1)");
    w.legs.push_back(Leg{cfg, 64, true, false});
  } else if (name == "byz-n16") {
    ScenarioConfig cfg = base_config(seed);
    cfg.protocol = harness::Protocol::kTurquois;
    cfg.n = 16;
    // Unanimous, not divergent: divergent runs stall about once in a
    // thousand repetitions and their median is bimodal (README.md,
    // "Findings").
    cfg.distribution = harness::ProposalDist::kUnanimous;
    cfg.plan = plan("byzantine;adaptive");
    cfg.attack = harness::TurquoisAttack::kValueInversion;
    w.legs.push_back(Leg{cfg, 1024, true, false});
  } else if (name == "svc-n16") {
    w.service = true;
    ScenarioConfig cfg = base_config(seed);
    cfg.protocol = harness::Protocol::kTurquois;
    cfg.n = 16;
    cfg.medium.broadcast_rate_bps = 11e6;
    cfg.service.enabled = true;
    cfg.service.pipeline_depth = 8;
    cfg.service.batch = 8;
    // Bursty on both legs: ArrivalGen realizes the offered rate only for
    // bursty arrivals (README.md, "A finding for src/").
    cfg.service.arrival = service::Arrival::kBursty;
    cfg.service.total_requests = 512;
    ScenarioConfig fixed = cfg;
    fixed.service.offered_load = 150.0;  // about 2/3 of the measured capacity
    // Short, mild bursts (3x for 50 ms on average): enough of them land in
    // one run that the p99 does not hinge on the single largest burst.
    fixed.service.burst_factor = 3.0;
    fixed.service.burst_dwell = 50 * turq::kMillisecond;
    ScenarioConfig saturating = cfg;
    saturating.service.offered_load = 2000.0;
    w.legs.push_back(Leg{fixed, 24, true, false});
    w.legs.push_back(Leg{saturating, 2, false, true});
  } else {
    return std::nullopt;
  }
  return w;
}

/// Everything a workload builds before its first repetition.
struct Prepared {
  Workload workload;
  std::vector<std::shared_ptr<const harness::ScenarioSetup>> setups;  // per leg
};

Prepared prepare(const std::string& name, std::uint64_t seed) {
  Prepared p{*make_workload(name, seed), {}};
  for (const Leg& leg : p.workload.legs) {
    if (const auto reason = harness::validate(leg.cfg)) {
      throw std::invalid_argument(*reason);
    }
    if (p.workload.service) {
      if (const auto reason = service::validate_service(leg.cfg)) {
        throw std::invalid_argument(*reason);
      }
      p.setups.push_back(nullptr);
    } else {
      p.setups.push_back(harness::make_scenario_setup(leg.cfg));
    }
  }
  if (p.workload.service) {
    // The service keys its instances in batches inside the repetition; the
    // set-up a deployment pays before its first instance is one such batch.
    const ScenarioConfig& cfg = p.workload.legs.front().cfg;
    turquois::Config tcfg = turquois::Config::for_group(cfg.n);
    tcfg.phases_per_epoch = cfg.service.phases_per_instance;
    turq::Rng rng = turq::Rng::stream(cfg.seed, "rep", 0).derive("svc-keys", 0);
    (void)turquois::KeyInfrastructure::setup_batch(
        tcfg, rng, cfg.service.effective_key_batch());
  }
  return p;
}

/// Runs `fn` once untimed (first-touch allocations, cold caches), then
/// repeats it until at least `min_seconds` and `min_times` have passed and
/// returns the median duration in seconds.
double median_duration(const std::function<void()>& fn, double min_seconds,
                       int min_times) {
  fn();
  std::vector<double> samples;
  const auto t0 = Clock::now();
  while (static_cast<int>(samples.size()) < min_times ||
         (seconds_since(t0) < min_seconds && samples.size() < 2000)) {
    const auto t = Clock::now();
    fn();
    samples.push_back(seconds_since(t));
  }
  return median(std::move(samples));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Returns freed heap to the kernel and restarts the kernel's peak-RSS
/// count, so the next peak_rss_mb() covers only what runs in between.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident set since the last reset_peak_rss() (VmHWM), in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0.0;
}

struct Job {
  std::size_t leg = 0;
  std::uint64_t rep = 0;
};

bool passes_checks(const RunResult& r) {
  if (!r.all_correct_decided || !r.agreement_held || !r.validity_held) {
    return false;
  }
  if (!r.audit.has_value() || !r.audit->passed()) return false;
  if (r.service.has_value() &&
      (r.service->rejected != 0 || r.service->committed != r.service->arrivals)) {
    return false;
  }
  return true;
}

auto medium_fields(const turq::net::MediumStats& m) {
  return std::tie(m.broadcast_frames, m.unicast_frames, m.mac_retries,
                  m.collisions, m.frames_collided, m.unicast_drops,
                  m.deliveries, m.omissions, m.unreachable, m.hidden_terminal,
                  m.bytes_on_air, m.airtime);
}

auto tcp_fields(const turq::net::TcpHost::Stats& s) {
  return std::tie(s.messages_sent, s.segments_sent, s.segments_retransmitted,
                  s.rto_fires, s.fast_retransmits);
}

/// Same simulated outcome, bit for bit (latencies compared as doubles).
bool same_outcome(const RunResult& a, const RunResult& b) {
  if (a.latencies_ms.size() != b.latencies_ms.size() ||
      std::memcmp(a.latencies_ms.data(), b.latencies_ms.data(),
                  a.latencies_ms.size() * sizeof(double)) != 0) {
    return false;
  }
  if (medium_fields(a.medium) != medium_fields(b.medium) ||
      tcp_fields(a.tcp) != tcp_fields(b.tcp)) {
    return false;
  }
  if (std::tie(a.all_correct_decided, a.k_decided, a.agreement_held,
               a.validity_held, a.decision, a.app_messages, a.sigma) !=
      std::tie(b.all_correct_decided, b.k_decided, b.agreement_held,
               b.validity_held, b.decision, b.app_messages, b.sigma)) {
    return false;
  }
  if (a.audit.has_value() != b.audit.has_value() ||
      (a.audit && a.audit->violations != b.audit->violations)) {
    return false;
  }
  if (a.service.has_value() != b.service.has_value()) return false;
  if (a.service) {
    const service::RepSummary& x = *a.service;
    const service::RepSummary& y = *b.service;
    if (std::tie(x.arrivals, x.committed, x.rejected, x.instances_decided,
                 x.finished_at, x.mux_frames, x.mux_payloads) !=
        std::tie(y.arrivals, y.committed, y.rejected, y.instances_decided,
                 y.finished_at, y.mux_frames, y.mux_payloads)) {
      return false;
    }
  }
  return true;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Tallies attempted/failed operations: repetitions, or requests on the
/// service workload (a request fails when its repetition fails a check).
struct Outcomes {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool consistent = true;  // every cross-run comparison matched

  void add(const Workload& w, const RunResult& r, bool ok) {
    const std::uint64_t ops = w.service ? r.service->arrivals : 1;
    attempted += ops;
    if (!ok) failed += ops;
  }
};

/// A job's host time and the speed probe's mark when it was taken.
struct Timed {
  std::size_t job = 0;
  double seconds = 0.0;
  std::size_t mark = 0;
};

class Runner {
 public:
  Runner(Prepared prepared, SpeedProbe speed, double setup_s)
      : p_(std::move(prepared)), speed_(std::move(speed)), setup_samples_{setup_s} {
    const Workload& w = p_.workload;
    for (std::size_t l = 0; l < w.legs.size(); ++l) {
      for (std::uint32_t r = 0; r < w.legs[l].reps; ++r) jobs_.push_back({l, r});
    }
  }

  [[nodiscard]] const Outcomes& outcomes() const { return outcomes_; }

  RunResult run_plain(const Job& j) const {
    const ScenarioConfig& cfg = p_.workload.legs[j.leg].cfg;
    if (p_.workload.service) return service::run_service_once(cfg, j.rep);
    return harness::run_once(cfg, j.rep, p_.setups[j.leg].get());
  }

  /// --trace 0: the end-to-end metrics. After the first full pass the
  /// window may end between jobs. Set-up is timed again every half second
  /// of the window, so setup_s sees the same machine as the repetitions.
  /// Host times are scaled to the reference speed once the window is over,
  /// when the probe samples after the last job exist.
  std::vector<Metric> end_to_end(double seconds) {
    const Workload& w = p_.workload;
    turq::SampleStats latency;
    double airtime_ms = 0.0;
    double instances = 0.0;
    double capacity_committed = 0.0;
    double capacity_sim_s = 0.0;
    std::vector<Timed> timed;
    std::vector<double> peaks;  // per-repetition peak RSS
    std::vector<RunResult> first;

    const auto t0 = Clock::now();
    auto last_setup = t0;
    std::size_t passes = 0;
    do {
      for (std::size_t i = 0; i < jobs_.size(); ++i) {
        if (passes > 0 && seconds_since(t0) >= seconds) break;
        if (seconds_since(last_setup) >= 0.5) {
          setup_samples_.push_back(time_setup());
          last_setup = Clock::now();
        }
        const Job& j = jobs_[i];
        const Leg& leg = w.legs[j.leg];
        if (passes == 0) reset_peak_rss();
        speed_.sample_if_due();
        const auto t = Clock::now();
        RunResult r = run_plain(j);
        timed.push_back({i, seconds_since(t), speed_.mark()});
        if (passes == 0) peaks.push_back(peak_rss_mb());
        bool ok = passes_checks(r);
        if (passes == 0) {
          if (leg.latency) latency.add_all(r.latencies_ms);
          airtime_ms += turq::to_milliseconds(r.medium.airtime);
          if (w.service) {
            instances += static_cast<double>(r.service->instances_decided);
            if (leg.capacity) {
              capacity_committed += static_cast<double>(r.service->committed);
              capacity_sim_s += turq::to_milliseconds(r.service->finished_at) / 1e3;
            }
          } else {
            // One instance per repetition, run back to back: it lasts as long
            // as its slowest correct process takes from propose to decide.
            instances += 1.0;
            capacity_committed += 1.0;
            capacity_sim_s +=
                r.latencies_ms.empty()
                    ? 0.0
                    : *std::max_element(r.latencies_ms.begin(),
                                        r.latencies_ms.end()) / 1e3;
          }
          first.push_back(std::move(r));
        } else if (!same_outcome(r, first[i])) {
          ok = false;
          outcomes_.consistent = false;
        }
        outcomes_.add(w, passes == 0 ? first[i] : r, ok);
      }
      ++passes;
    } while (seconds_since(t0) < seconds);
    speed_.sample();

    // Each job's median scaled time over the passes, so that the jobs a
    // last, partial pass happens to reach weigh no more than the others.
    std::vector<std::vector<double>> job_walls(jobs_.size());
    for (const Timed& x : timed) {
      job_walls[x.job].push_back(x.seconds * speed_.scale(x.mark));
    }
    std::vector<double> walls;
    double wall_sum = 0.0;
    double decisions = 0.0;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      walls.push_back(median(job_walls[i]));
      wall_sum += walls.back();
      decisions += static_cast<double>(
          w.service ? first[i].service->committed : first[i].latencies_ms.size());
    }
    std::printf("%s: %zu jobs per pass, %zu jobs timed in %.2f s, %zu "
                "latency samples, %zu set-ups timed, speed probe median %.1f us\n",
                w.name.c_str(), jobs_.size(), timed.size(), seconds_since(t0),
                latency.count(), setup_samples_.size(), speed_.median_seconds() * 1e6);
    const double failed_frac = ratio(static_cast<double>(outcomes_.failed),
                                     static_cast<double>(outcomes_.attempted));
    return {
        {"latency_p50_ms", latency.empty() ? 0.0 : latency.percentile(0.50), "ms"},
        {"latency_p99_ms", latency.empty() ? 0.0 : latency.percentile(0.99), "ms"},
        {"committed_rps", ratio(capacity_committed, capacity_sim_s), "1/s"},
        {"airtime_per_instance_ms", ratio(airtime_ms, instances), "ms"},
        {"ok_frac", 1.0 - failed_frac, "fraction"},
        {"setup_s", median(setup_samples_), "s"},
        {"rep_wall_p50_ms", median(walls) * 1e3, "ms"},
        {"decisions_per_wall_s", ratio(decisions, wall_sum), "1/s"},
        {"peak_rss_mb", median(peaks), "MB"},
    };
  }

  /// --trace 1: the per-layer metrics.
  std::vector<Metric> per_layer(double seconds) {
    const Workload& w = p_.workload;
    const bool turquois_protocol =
        w.legs.front().cfg.protocol == harness::Protocol::kTurquois;
    const bool replica = !w.service;
    FigureSink figures;     // filled on the first pass only
    ReplicaStats sim_stats;  // likewise
    ReplicaStats later_stats;
    double decisions = 0.0;
    double wall_u = 0.0, wall_s = 0.0, wall_d = 0.0, unattributed = 0.0;
    double reps_d = 0.0;
    std::array<double, static_cast<std::size_t>(Layer::kCount)> self_ns{};
    std::uint64_t dropped = 0;
    std::vector<turq::net::BroadcastService::FramePayload> frames;

    const auto t0 = Clock::now();
    std::size_t passes = 0;
    do {
      FigureSink later;
      FigureSink& sink = passes == 0 ? figures : later;
      for (const Job& j : jobs_) {
        const Leg& leg = w.legs[j.leg];
        speed_.sample_if_due();
        const std::size_t mark = speed_.mark();
        auto t = Clock::now();
        const RunResult u = run_plain(j);
        const double job_u = seconds_since(t);

        t = Clock::now();
        const RunResult s = run_traced(j, sink);
        const double job_s = seconds_since(t);
        double job_d = 0.0, job_unattributed = 0.0;
        std::array<double, static_cast<std::size_t>(Layer::kCount)> job_self_ns{};

        bool ok = passes_checks(u) && same_outcome(u, s);
        if (replica) {
          Spans spans;
          ReplicaProbes probes;
          probes.spans = &spans;
          if (passes == 0 && turquois_protocol) probes.frames = &frames;
          ReplicaStats& d_stats = passes == 0 ? sim_stats : later_stats;
          t = Clock::now();
          const RunResult d =
              run_replica(leg.cfg, j.rep, *p_.setups[j.leg], probes, d_stats);
          job_d = seconds_since(t);
          reps_d += 1.0;
          const double covered = static_cast<double>(spans.outer_ns()) / 1e9;
          if (covered > job_d) ok = false;  // spans must nest inside the rep
          job_unattributed = job_d - covered;
          for (std::size_t l = 0; l < job_self_ns.size(); ++l) {
            job_self_ns[l] = static_cast<double>(spans.self_ns(static_cast<Layer>(l)));
          }
          ok = ok && same_outcome(u, d);
        }
        // The job's host times, scaled by the probe samples around it.
        speed_.sample();
        const double k = speed_.scale(mark);
        wall_u += job_u * k;
        wall_s += job_s * k;
        wall_d += job_d * k;
        unattributed += job_unattributed * k;
        for (std::size_t l = 0; l < self_ns.size(); ++l) self_ns[l] += job_self_ns[l] * k;
        if (!ok) outcomes_.consistent = false;
        if (passes == 0) {
          decisions += static_cast<double>(
              w.service ? u.service->instances_decided * leg.cfg.n
                        : u.latencies_ms.size());
        }
        outcomes_.add(w, u, ok);
      }
      dropped += sink.dropped();
      ++passes;
    } while (seconds_since(t0) < seconds);
    if (dropped != 0) outcomes_.consistent = false;

    const double reps = static_cast<double>(jobs_.size());
    const auto self_ms = [&](Layer l) {
      return ratio(self_ns[static_cast<std::size_t>(l)] / 1e6, reps_d);
    };
    const FigureSink& f = figures;
    const double frames_on_air = static_cast<double>(
        f.counter("medium.broadcast_frames") + f.counter("medium.unicast_frames"));
    const double sigma_reps = static_cast<double>(f.counter("sigma.tracked_reps"));
    const double sigma_budget =
        ratio(static_cast<double>(f.counter("sigma.bound")), sigma_reps) *
        static_cast<double>(f.counter("sigma.rounds"));
    const double modelled_crypto_ns =
        turquois_protocol
            ? static_cast<double>(f.verified_messages) *
                  static_cast<double>(w.legs.front().cfg.costs.ots_verify())
            : static_cast<double>(sim_stats.modelled_cpu_ns);  // Bracha: HMAC only
    std::printf("%s traced: %zu passes in %.2f s, %zu frames re-verified\n",
                w.name.c_str(), passes, seconds_since(t0), frames.size());

    return {
        {"sim.events", ratio(static_cast<double>(sim_stats.sim_events), reps), "count"},
        {"sim.self_ms", self_ms(Layer::kSim) + self_ms(Layer::kSend), "ms"},
        {"medium.busy_frac",
         ratio(static_cast<double>(f.counter("medium.airtime_ns")),
               static_cast<double>(f.sim_ns)), "fraction"},
        {"medium.collided_frac",
         ratio(static_cast<double>(f.counter("medium.frames_collided")), frames_on_air),
         "fraction"},
        {"medium.superseded_frac",
         ratio(static_cast<double>(f.superseded), static_cast<double>(f.enqueued)),
         "fraction"},
        {"medium.bytes_per_frame",
         ratio(static_cast<double>(f.counter("medium.bytes_on_air")), frames_on_air),
         "bytes"},
        {"medium.mac_wait_p50_ms", median(f.mac_wait_ms), "ms"},
        {"medium.retry_frac",
         ratio(static_cast<double>(f.counter("medium.mac_retries")),
               static_cast<double>(f.counter("medium.unicast_frames"))),
         "fraction"},
        {"medium.omission_frac",
         ratio(static_cast<double>(f.counter("medium.omissions")),
               static_cast<double>(f.counter("medium.omissions") +
                                   f.counter("medium.deliveries"))),
         "fraction"},
        {"tcp.segments_per_decision",
         ratio(static_cast<double>(f.counter("tcp.segments_sent")), decisions), "count"},
        {"tcp.retransmit_frac",
         ratio(static_cast<double>(f.counter("tcp.segments_retransmitted")),
               static_cast<double>(f.counter("tcp.segments_sent"))),
         "fraction"},
        {"tcp.rto_fires", ratio(static_cast<double>(f.counter("tcp.rto_fires")), reps),
         "count"},
        {"mux.payloads_per_frame",
         ratio(static_cast<double>(f.counter("service.mux_payloads")),
               static_cast<double>(f.counter("service.mux_frames"))),
         "count"},
        {"mux.late_drop_frac",
         ratio(static_cast<double>(f.counter("service.mux_late_drops")),
               static_cast<double>(f.counter("service.mux_payloads") +
                                   f.counter("service.mux_late_drops"))),
         "fraction"},
        {"crypto.modelled_ms_per_decision", ratio(modelled_crypto_ns / 1e6, decisions),
         "ms"},
        {"crypto.ots_verify_us", ots_verify_us(frames), "us"},
        {"key_infra.setup_ms", key_setup_ms(), "ms"},
        {"turquois.broadcasts_per_decision",
         ratio(static_cast<double>(f.counter("turquois.broadcasts")), decisions), "count"},
        {"turquois.recv_ms",
         turquois_protocol ? self_ms(Layer::kRecv) + self_ms(Layer::kExec) : 0.0, "ms"},
        {"turquois.send_ms", turquois_protocol ? self_ms(Layer::kTimer) : 0.0, "ms"},
        {"exchange_pool.hit_frac",
         ratio(static_cast<double>(f.counter("exchange_pool.hits")),
               static_cast<double>(f.counter("exchange_pool.acquires"))),
         "fraction"},
        {"turquois.decide_phase_mean",
         turquois_protocol ? ratio(static_cast<double>(f.decide_phase_sum),
                                   static_cast<double>(f.decides))
                           : 0.0,
         "count"},
        {"turquois.coin_flips",
         turquois_protocol ? ratio(static_cast<double>(f.coin_flips), reps) : 0.0,
         "count"},
        {"bracha.rounds_per_decision",
         turquois_protocol ? 0.0
                           : ratio(static_cast<double>(f.decide_phase_sum),
                                   static_cast<double>(f.decides)),
         "count"},
        {"bracha.timer_ms", turquois_protocol ? 0.0 : self_ms(Layer::kTimer), "ms"},
        {"sigma.budget_use_frac",
         ratio(static_cast<double>(f.counter("sigma.omissions")), sigma_budget),
         "fraction"},
        {"sigma.violating_rounds",
         ratio(static_cast<double>(f.counter("sigma.violating_rounds")), reps), "count"},
        {"audit.ms", self_ms(Layer::kHook) + self_ms(Layer::kAuditFinish), "ms"},
        {"service.requests_per_instance",
         ratio(static_cast<double>(f.counter("service.committed")),
               static_cast<double>(f.counter("service.instances_decided"))),
         "count"},
        {"service.instances_per_s",
         w.service ? ratio(static_cast<double>(f.counter("service.instances_decided")),
                           static_cast<double>(f.sim_ns) / 1e9)
                   : 0.0,
         "1/s"},
        {"trace.overhead_frac", ratio(wall_s, wall_u) - 1.0, "fraction"},
        {"trace.span_overhead_frac", replica ? ratio(wall_d, wall_u) - 1.0 : 0.0,
         "fraction"},
        {"trace.dropped_events", static_cast<double>(dropped), "count"},
        // svc-n16 runs no decorated copy, so none of its time is attributed.
        {"unattributed_frac", replica ? ratio(unattributed, wall_d) : 1.0, "fraction"},
        {"host.probe_us", speed_.median_seconds() * 1e6, "us"},
    };
  }

 private:
  /// run_plain() under a benchmark-owned tracer, flushed into `sink`. The
  /// tracer that ScenarioConfig::trace_sink would install keeps only the
  /// last 2^18 events, fewer than one tcp-n16 or svc-n16 repetition emits;
  /// this ring holds the whole repetition, so no event is dropped.
  RunResult run_traced(const Job& j, FigureSink& sink) const {
    turq::trace::TracerOptions options;
    options.capacity = std::size_t{1} << 21;
    turq::trace::Tracer tracer(options);
    RunResult r;
    {
      const turq::trace::TraceScope scope(&tracer);
      tracer.emit(turq::trace::TraceEvent{
          .at = 0, .category = turq::trace::Category::kHarness,
          .kind = turq::trace::Kind::kRepBegin,
          .value = static_cast<std::int64_t>(j.rep)});
      r = run_plain(j);
    }
    tracer.flush(sink);
    return r;
  }

  /// Host time of one batched OTS verification, over the messages correct
  /// processes actually broadcast; every one of them must verify.
  double ots_verify_us(
      const std::vector<turq::net::BroadcastService::FramePayload>& frames) {
    if (frames.empty()) return 0.0;
    const ScenarioConfig& cfg = p_.workload.legs.front().cfg;
    const turquois::KeyInfrastructure& keys = *p_.setups.front()->turquois_keys;
    const turq::ProcessId correct_below =
        cfg.effective_plan().role == turq::faultplan::Role::kNone ? cfg.n
                                                                  : cfg.n - cfg.f();
    std::vector<turquois::Datagram> datagrams;
    datagrams.reserve(frames.size());
    for (const auto& frame : frames) {
      const turq::BytesView bytes(*frame);
      auto d = turquois::Datagram::decode(
          bytes.first(bytes.size() - turq::net::BroadcastEndpoint::kUdpIpOverhead));
      if (!d.has_value()) {
        outcomes_.consistent = false;
        return 0.0;
      }
      datagrams.push_back(std::move(*d));
    }
    std::vector<turq::crypto::OtsCheck> checks;
    const auto add = [&](const turquois::Message& m) {
      if (m.sender >= correct_below) return;
      checks.push_back({.vk_array = &keys.verification_keys(m.sender),
                        .phase = m.phase,
                        .v = m.value,
                        .revealed_sk = m.auth_sk});
    };
    for (const turquois::Datagram& d : datagrams) {
      for (const turquois::Message& m : d.justification) add(m);
      add(d.main);
    }
    if (checks.empty()) return 0.0;
    auto verdicts = std::make_unique<bool[]>(checks.size());
    const double seconds = scaled_median_duration(
        [&] { turq::crypto::ots_verify_batch(checks.data(), checks.size(), verdicts.get()); },
        0.05, 5);
    for (std::size_t i = 0; i < checks.size(); ++i) {
      if (!verdicts[i]) outcomes_.consistent = false;
    }
    return seconds * 1e6 / static_cast<double>(checks.size());
  }

  /// One more set-up of the workload, timed and scaled as run() times the
  /// first.
  double time_setup() {
    speed_.sample();
    const std::size_t mark = speed_.mark();
    const auto t = Clock::now();
    const Prepared again =
        prepare(p_.workload.name, p_.workload.legs.front().cfg.seed);
    const double seconds = seconds_since(t);
    speed_.sample();
    return seconds * speed_.scale(mark);
  }

  /// median_duration() scaled by the probe samples around it.
  double scaled_median_duration(const std::function<void()>& fn,
                                double min_seconds, int min_times) {
    speed_.sample();
    const std::size_t mark = speed_.mark();
    const double seconds = median_duration(fn, min_seconds, min_times);
    speed_.sample();
    return seconds * speed_.scale(mark);
  }

  /// Host time of one trusted key setup for the workload (0 for Bracha).
  double key_setup_ms() {
    const Workload& w = p_.workload;
    const ScenarioConfig& cfg = w.legs.front().cfg;
    if (cfg.protocol != harness::Protocol::kTurquois) return 0.0;
    turquois::Config tcfg = turquois::Config::for_group(cfg.n);
    if (w.service) tcfg.phases_per_epoch = cfg.service.phases_per_instance;
    return 1e3 * scaled_median_duration(
                     [&] {
                       turq::Rng rng = turq::Rng::stream(cfg.seed, "rep", 0);
                       if (w.service) {
                         (void)turquois::KeyInfrastructure::setup_batch(
                             tcfg, rng, cfg.service.effective_key_batch());
                       } else {
                         (void)turquois::KeyInfrastructure::setup(tcfg, rng);
                       }
                     },
                     0.2, 5);
  }

  Prepared p_;
  SpeedProbe speed_;
  std::vector<double> setup_samples_;
  std::vector<Job> jobs_;
  Outcomes outcomes_;
};

void print_result(bool correct, const Outcomes& o,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(o.attempted);
  out += ", \"failed\": " + std::to_string(o.failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload ff-n64|svc-n16|tcp-n16|byz-n16"
               " --seed <n> --seconds <s> --trace 0|1\n");
  return 2;
}

int run(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::stoull(value);
    } else if (flag == "--seconds") {
      seconds = std::stod(value);
    } else if (flag == "--trace") {
      trace = std::stoi(value);
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !make_workload(workload, seed) || seconds < 0.0 ||
      (trace != 0 && trace != 1)) {
    return usage();
  }

  SpeedProbe speed;
  speed.sample();
  const std::size_t mark = speed.mark();
  const auto t = Clock::now();
  Prepared prepared = prepare(workload, seed);
  const double setup_s = seconds_since(t);
  speed.sample();
  const double scaled_setup_s = setup_s * speed.scale(mark);
  Runner runner(std::move(prepared), std::move(speed), scaled_setup_s);
  const std::vector<Metric> metrics =
      trace == 0 ? runner.end_to_end(seconds) : runner.per_layer(seconds);
  const Outcomes& o = runner.outcomes();
  const bool correct = o.failed == 0 && o.consistent;
  print_result(correct, o, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 2;
  }
}
