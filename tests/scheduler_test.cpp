// Tests for the parallel repetition scheduler: the pooled statistics, JSON
// report, and trace stream must be bit-identical to the sequential path
// for the same seed at any worker count, a crashing or timing-out
// repetition must not poison the pool, and degenerate configs must be
// rejected up front.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"
#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "harness/scheduler.hpp"
#include "trace/sink.hpp"
#include "trace/trace.hpp"

namespace turq::harness {
namespace {

ScenarioConfig small_scenario(std::uint32_t jobs) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kTurquois;
  cfg.n = 4;
  cfg.distribution = ProposalDist::kDivergent;
  cfg.repetitions = 8;
  cfg.seed = 0x5EED;
  cfg.jobs = jobs;
  return cfg;
}

TEST(Scheduler, EffectiveJobs) {
  EXPECT_EQ(effective_jobs(1), 1u);
  EXPECT_EQ(effective_jobs(5), 5u);
  EXPECT_GE(effective_jobs(0), 1u);  // auto-detect never returns 0
}

TEST(Scheduler, RngStreamMatchesRepDerivation) {
  // The per-repetition stream the scheduler relies on is the documented
  // Rng(seed).derive(tag, index) derivation — nothing thread-dependent.
  Rng expected = Rng(42).derive("rep", 3);
  Rng actual = Rng::stream(42, "rep", 3);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(actual.next(), expected.next());
}

TEST(Scheduler, PooledStatsIdenticalAcrossJobCounts) {
  const ScenarioResult seq = run_scenario(small_scenario(1));
  const ScenarioResult par = run_scenario(small_scenario(8));

  EXPECT_EQ(seq.latency_ms.samples(), par.latency_ms.samples());
  EXPECT_EQ(seq.failed_runs, par.failed_runs);
  EXPECT_EQ(seq.safety_violations, par.safety_violations);
  EXPECT_EQ(seq.medium_total.broadcast_frames,
            par.medium_total.broadcast_frames);
  EXPECT_EQ(seq.medium_total.collisions, par.medium_total.collisions);
  EXPECT_EQ(seq.medium_total.deliveries, par.medium_total.deliveries);
  EXPECT_EQ(seq.medium_total.bytes_on_air, par.medium_total.bytes_on_air);
  EXPECT_EQ(seq.medium_total.airtime, par.medium_total.airtime);
}

TEST(Scheduler, AutoDetectJobsAlsoDeterministic) {
  const ScenarioResult seq = run_scenario(small_scenario(1));
  const ScenarioResult agnostic = run_scenario(small_scenario(0));
  EXPECT_EQ(seq.latency_ms.samples(), agnostic.latency_ms.samples());
}

TEST(Scheduler, JsonReportIdenticalModuloEnvironment) {
  const auto report_for = [](std::uint32_t jobs) {
    BenchReport report;
    report.name = "scheduler_test";
    report.seed = 0x5EED;
    report.jobs = jobs;
    report.wall_seconds = jobs * 0.5;  // deliberately different per run
    report.cells.push_back(make_cell(run_scenario(small_scenario(jobs))));
    return to_json(report);
  };
  const std::string seq = report_for(1);
  const std::string par = report_for(8);
  EXPECT_NE(seq, par);  // the environment line records the actual jobs

  // Everything outside the single environment line is byte-identical.
  const auto strip = [](const std::string& json) {
    std::string out;
    std::istringstream in(json);
    for (std::string line; std::getline(in, line);) {
      if (line.find("\"environment\"") == std::string::npos) {
        out += line + "\n";
      }
    }
    return out;
  };
  EXPECT_EQ(strip(seq), strip(par));
}

TEST(Scheduler, TraceStreamIdenticalAcrossJobCounts) {
#if !TURQ_TRACE_ENABLED
  GTEST_SKIP() << "built with TURQ_TRACE_DISABLED";
#endif
  const auto trace_for = [](std::uint32_t jobs) {
    std::ostringstream out;
    trace::JsonlSink sink(out);
    ScenarioConfig cfg = small_scenario(jobs);
    cfg.repetitions = 5;
    cfg.trace_sink = &sink;
    (void)run_scenario(cfg);
    return out.str();
  };
  const std::string seq = trace_for(1);
  const std::string par = trace_for(4);
  EXPECT_FALSE(seq.empty());
  EXPECT_EQ(seq, par);
}

TEST(Scheduler, CrashingRepetitionDoesNotPoisonPool) {
  ScenarioConfig cfg = small_scenario(4);
  const auto hostile = [](const ScenarioConfig& c, std::uint64_t rep) {
    if (rep == 2) throw std::runtime_error("deliberate test crash");
    return run_once(c, rep);
  };
  const std::vector<RepResult> reps = run_repetitions(cfg, hostile);
  ASSERT_EQ(reps.size(), cfg.repetitions);
  for (std::uint64_t i = 0; i < reps.size(); ++i) {
    EXPECT_EQ(reps[i].rep_index, i);  // deterministic merge order
    if (i == 2) {
      EXPECT_TRUE(reps[i].crashed);
      EXPECT_EQ(reps[i].error, "deliberate test crash");
    } else {
      EXPECT_FALSE(reps[i].crashed) << "rep " << i;
      EXPECT_TRUE(reps[i].run.all_correct_decided) << "rep " << i;
    }
  }
}

TEST(Scheduler, TimedOutRepetitionsCountedNotFatal) {
  // A deadline shorter than the start spread: every repetition misses it.
  // The pool must drain normally and report them all as failed runs.
  ScenarioConfig cfg = small_scenario(4);
  cfg.run_timeout = 1 * kMillisecond;
  const ScenarioResult r = run_scenario(cfg);
  EXPECT_EQ(r.failed_runs, cfg.repetitions);
  EXPECT_TRUE(r.latency_ms.empty());
  EXPECT_EQ(r.safety_violations, 0u);
}

TEST(Validation, RejectsDegenerateConfigs) {
  ScenarioConfig cfg = small_scenario(1);
  EXPECT_EQ(validate(cfg), std::nullopt);

  cfg.repetitions = 0;
  ASSERT_TRUE(validate(cfg).has_value());
  EXPECT_NE(validate(cfg)->find("repetitions"), std::string::npos);
  EXPECT_THROW((void)run_scenario(cfg), std::invalid_argument);

  cfg = small_scenario(1);
  cfg.n = 3;
  ASSERT_TRUE(validate(cfg).has_value());
  EXPECT_NE(validate(cfg)->find("n = 3"), std::string::npos);
  EXPECT_THROW((void)run_scenario(cfg), std::invalid_argument);

  cfg = small_scenario(1);
  cfg.loss_rate = 1.5;
  EXPECT_TRUE(validate(cfg).has_value());
  EXPECT_THROW((void)run_scenario(cfg), std::invalid_argument);

  // A repetition runs on one thread: the legacy auto (0) and parallel
  // (N > 1) intra_jobs values are gone.
  for (const std::uint32_t intra_jobs : {0u, 2u}) {
    cfg = small_scenario(1);
    cfg.intra_jobs = intra_jobs;
    ASSERT_TRUE(validate(cfg).has_value());
    EXPECT_NE(validate(cfg)->find("intra_jobs"), std::string::npos);
    EXPECT_THROW((void)run_scenario(cfg), std::invalid_argument);
  }

  // A zero tick would divide the σ round by zero, a zero broadcast rate
  // would schedule a frame's end before its start, and a zero deadline
  // fails every repetition at once.
  const std::pair<const char*, void (*)(ScenarioConfig&)> degenerate[] = {
      {"tick_interval", [](ScenarioConfig& c) { c.tick_interval = 0; }},
      {"broadcast rate",
       [](ScenarioConfig& c) { c.medium.broadcast_rate_bps = 0.0; }},
      {"broadcast rate",
       [](ScenarioConfig& c) { c.medium.broadcast_rate_bps = -2e6; }},
      {"run_timeout", [](ScenarioConfig& c) { c.run_timeout = 0; }},
  };
  for (const auto& [field, spoil] : degenerate) {
    cfg = small_scenario(1);
    spoil(cfg);
    ASSERT_TRUE(validate(cfg).has_value()) << field;
    EXPECT_NE(validate(cfg)->find(field), std::string::npos) << *validate(cfg);
    EXPECT_THROW((void)run_scenario(cfg), std::invalid_argument);
  }
}

TEST(BufferSink, ReplayPreservesCallSequence) {
  trace::BufferSink buffer;
  EXPECT_TRUE(buffer.empty());
  trace::TraceEvent e1{.at = 10, .category = trace::Category::kHarness,
                       .kind = trace::Kind::kRepBegin, .value = 0};
  trace::TraceEvent e2{.at = 20, .category = trace::Category::kHarness,
                       .kind = trace::Kind::kRepEnd, .value = 0};
  trace::MetricsRegistry metrics;
  metrics.counter("x").add(3);
  buffer.on_event(e1);
  buffer.on_metrics(metrics);
  buffer.on_event(e2);
  buffer.on_end(7, 1);

  std::ostringstream direct_out;
  trace::JsonlSink direct(direct_out);
  direct.on_event(e1);
  direct.on_metrics(metrics);
  direct.on_event(e2);
  direct.on_end(7, 1);

  std::ostringstream replayed_out;
  trace::JsonlSink replayed(replayed_out);
  buffer.replay(replayed);
  EXPECT_EQ(replayed_out.str(), direct_out.str());

  // Replay is repeatable: the buffer is not consumed.
  std::ostringstream again_out;
  trace::JsonlSink again(again_out);
  buffer.replay(again);
  EXPECT_EQ(again_out.str(), direct_out.str());
}

}  // namespace
}  // namespace turq::harness
