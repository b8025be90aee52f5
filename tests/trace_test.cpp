// Tests for the structured event-tracing subsystem: ring-buffer semantics,
// histogram bucketing, trace determinism (same seed => byte-identical
// JSONL), a golden-file check of the trace_inspect report, and the
// repetition's export of its channel counters.
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "spatial/topology.hpp"
#include "trace/inspect.hpp"
#include "trace/metrics.hpp"
#include "trace/sink.hpp"
#include "trace/trace.hpp"

namespace turq {
namespace {

using trace::Category;
using trace::Kind;
using trace::TraceEvent;

TraceEvent ev(SimTime at, std::int64_t value) {
  return TraceEvent{.at = at, .category = Category::kSim,
                    .kind = Kind::kSimEvent, .value = value};
}

/// Collects flushed events verbatim.
class CaptureSink final : public trace::Sink {
 public:
  void on_event(const TraceEvent& event) override { events.push_back(event); }
  void on_end(std::uint64_t e, std::uint64_t d) override {
    emitted = e;
    dropped = d;
  }

  std::vector<TraceEvent> events;
  std::uint64_t emitted = 0;
  std::uint64_t dropped = 0;
};

TEST(TraceRing, HoldsEverythingUnderCapacity) {
  trace::Tracer tracer({.capacity = 8});
  for (int i = 0; i < 5; ++i) tracer.emit(ev(i, i));
  EXPECT_EQ(tracer.size(), 5u);
  EXPECT_EQ(tracer.emitted(), 5u);
  EXPECT_EQ(tracer.dropped(), 0u);

  CaptureSink sink;
  tracer.flush(sink);
  ASSERT_EQ(sink.events.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(sink.events[i], ev(i, i));
  EXPECT_EQ(sink.emitted, 5u);
  EXPECT_EQ(sink.dropped, 0u);
}

TEST(TraceRing, OverflowDropsOldestAndCounts) {
  trace::Tracer tracer({.capacity = 4});
  for (int i = 0; i < 6; ++i) tracer.emit(ev(i, i));
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.emitted(), 6u);
  EXPECT_EQ(tracer.dropped(), 2u);

  // The survivors are the newest four, flushed oldest-first.
  CaptureSink sink;
  tracer.flush(sink);
  ASSERT_EQ(sink.events.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(sink.events[i], ev(i + 2, i + 2));
  EXPECT_EQ(sink.dropped, 2u);
}

TEST(TraceScope, InstallsAndRestores) {
  EXPECT_EQ(trace::current(), nullptr);
  {
    trace::Tracer outer;
    trace::TraceScope outer_scope(&outer);
    EXPECT_EQ(trace::current(), &outer);
    {
      trace::Tracer inner;
      trace::TraceScope inner_scope(&inner);
      EXPECT_EQ(trace::current(), &inner);
    }
    EXPECT_EQ(trace::current(), &outer);
  }
  EXPECT_EQ(trace::current(), nullptr);
}

TEST(TraceMacro, NoOpWithoutTracerCountsWithOne) {
#if !TURQ_TRACE_ENABLED
  GTEST_SKIP() << "built with TURQ_TRACE_DISABLED";
#endif
  TURQ_TRACE_EVENT(.at = 1);  // no ambient tracer: must not crash
  trace::count("x");          // ditto

  trace::Tracer tracer;
  trace::TraceScope scope(&tracer);
  TURQ_TRACE_EVENT(.at = 7, .category = Category::kProtocol,
                   .kind = Kind::kDecide, .process = 3, .value = 1);
  trace::count("x", 2);
  EXPECT_EQ(tracer.emitted(), 1u);
  EXPECT_EQ(tracer.metrics().counter("x").value(), 2u);
}

TEST(Histogram, BucketBoundaries) {
  trace::Histogram h({1.0, 2.0, 4.0});
  // x lands in the first bucket whose bound >= x; above the last bound is
  // the overflow bucket.
  h.observe(0.5);  // <= 1        -> bucket 0
  h.observe(1.0);  // == bound 1  -> bucket 0
  h.observe(1.5);  //             -> bucket 1
  h.observe(2.0);  // == bound 2  -> bucket 1
  h.observe(4.0);  // == bound 4  -> bucket 2
  h.observe(5.0);  // > last      -> overflow
  ASSERT_EQ(h.counts().size(), 4u);
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 2u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.counts()[3], 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 14.0);
}

TEST(Metrics, MergeAddsCountersAndBuckets) {
  trace::MetricsRegistry a;
  trace::MetricsRegistry b;
  a.counter("c").add(3);
  b.counter("c").add(4);
  b.counter("only_b").add(1);
  a.histogram("h", {1.0, 2.0}).observe(0.5);
  b.histogram("h", {1.0, 2.0}).observe(5.0);
  a.merge(b);
  EXPECT_EQ(a.counter("c").value(), 7u);
  EXPECT_EQ(a.counter("only_b").value(), 1u);
  const auto& h = a.histogram("h", {1.0, 2.0});
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.counts()[0], 1u);
  EXPECT_EQ(h.counts()[2], 1u);
}

harness::ScenarioConfig tiny_scenario() {
  harness::ScenarioConfig cfg;
  cfg.protocol = harness::Protocol::kTurquois;
  cfg.n = 4;
  cfg.seed = 42;
  cfg.repetitions = 2;
  return cfg;
}

std::string traced_jsonl(const harness::ScenarioConfig& base) {
  std::ostringstream out;
  trace::JsonlSink sink(out);
  harness::ScenarioConfig cfg = base;
  cfg.trace_sink = &sink;
  for (std::uint32_t rep = 0; rep < cfg.repetitions; ++rep) {
    (void)harness::run_once(cfg, rep);
  }
  return out.str();
}

TEST(TraceDeterminism, SameSeedSameBytes) {
#if !TURQ_TRACE_ENABLED
  GTEST_SKIP() << "built with TURQ_TRACE_DISABLED";
#endif
  const std::string first = traced_jsonl(tiny_scenario());
  const std::string second = traced_jsonl(tiny_scenario());
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);

  harness::ScenarioConfig other = tiny_scenario();
  other.seed = 43;
  EXPECT_NE(first, traced_jsonl(other));
}

TEST(TraceDeterminism, TracingDoesNotPerturbTheRun) {
#if !TURQ_TRACE_ENABLED
  GTEST_SKIP() << "built with TURQ_TRACE_DISABLED";
#endif
  const harness::ScenarioConfig plain = tiny_scenario();
  const harness::RunResult untraced = harness::run_once(plain, 0);

  std::ostringstream out;
  trace::JsonlSink sink(out);
  harness::ScenarioConfig traced = plain;
  traced.trace_sink = &sink;
  const harness::RunResult with_trace = harness::run_once(traced, 0);

  EXPECT_EQ(untraced.latencies_ms, with_trace.latencies_ms);
  EXPECT_EQ(untraced.medium.broadcast_frames,
            with_trace.medium.broadcast_frames);
  EXPECT_EQ(untraced.app_messages, with_trace.app_messages);
}

// The golden file pins the full trace_inspect report for a tiny n=4 run.
// Regenerate after an intentional format change with (one command line):
//   UPDATE_TRACE_GOLDEN=1 ./tests/trace_test
//       --gtest_filter=TraceInspect.GoldenReport
TEST(TraceInspect, GoldenReport) {
#if !TURQ_TRACE_ENABLED
  GTEST_SKIP() << "built with TURQ_TRACE_DISABLED";
#endif
  const std::string jsonl = traced_jsonl(tiny_scenario());
  std::istringstream in(jsonl);
  const std::string report = trace::inspect_jsonl(in);

  if (std::getenv("UPDATE_TRACE_GOLDEN") != nullptr) {
    std::ofstream out(TRACE_GOLDEN_FILE, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << TRACE_GOLDEN_FILE;
    out << report;
    GTEST_SKIP() << "golden file updated";
  }

  std::ifstream golden_in(TRACE_GOLDEN_FILE, std::ios::binary);
  ASSERT_TRUE(golden_in) << "missing golden file " << TRACE_GOLDEN_FILE;
  std::ostringstream golden;
  golden << golden_in.rdbuf();
  EXPECT_EQ(report, golden.str());
}

/// Keeps the metrics registry of the last flushed repetition.
class MetricsSink final : public trace::Sink {
 public:
  void on_event(const TraceEvent& /*event*/) override {}
  void on_metrics(const trace::MetricsRegistry& m) override { metrics = m; }

  trace::MetricsRegistry metrics;
};

/// How many of `m`'s counters start with `prefix`.
std::size_t counters_named(const trace::MetricsRegistry& m,
                           std::string_view prefix) {
  std::size_t count = 0;
  for (const auto& [name, counter] : m.counters()) {
    if (name.starts_with(prefix)) ++count;
  }
  return count;
}

/// Expects the exported counter `name` to exist and equal `value`.
void expect_exported(const trace::MetricsRegistry& m, std::string_view name,
                     std::uint64_t value) {
  const auto it = m.counters().find(name);
  ASSERT_NE(it, m.counters().end()) << name << " not exported";
  EXPECT_EQ(it->second.value(), value) << name;
}

// The components count in their own Stats structs and the repetition
// exports them: a traced repetition's channel counters must equal its
// RunResult, each family present exactly when its component ran.
TEST(TraceExport, ChannelCountersMatchTheRunResult) {
#if !TURQ_TRACE_ENABLED
  GTEST_SKIP() << "built with TURQ_TRACE_DISABLED";
#endif
  struct Case {
    const char* label;
    harness::Protocol protocol;
    std::uint32_t n;
    const char* topology;
    bool relay;
  };
  for (const Case& c :
       {Case{"turquois", harness::Protocol::kTurquois, 4, "single", true},
        Case{"bracha", harness::Protocol::kBracha, 4, "single", true},
        Case{"grid relay", harness::Protocol::kTurquois, 9, "grid(r=150)",
             true},
        Case{"grid no relay", harness::Protocol::kTurquois, 9, "grid(r=150)",
             false}}) {
    SCOPED_TRACE(c.label);
    harness::ScenarioConfig cfg = tiny_scenario();
    cfg.protocol = c.protocol;
    cfg.n = c.n;
    std::string error;
    ASSERT_TRUE(spatial::parse_topology(c.topology, &cfg.spatial, &error))
        << error;
    cfg.relay_enabled = c.relay;
    MetricsSink sink;
    cfg.trace_sink = &sink;
    const harness::RunResult r = harness::run_once(cfg, 0);
    const trace::MetricsRegistry& m = sink.metrics;

    const net::MediumStats& md = r.medium;
    EXPECT_GT(md.deliveries, 0u);
    EXPECT_EQ(counters_named(m, "medium."), 12u);
    expect_exported(m, "medium.broadcast_frames", md.broadcast_frames);
    expect_exported(m, "medium.unicast_frames", md.unicast_frames);
    expect_exported(m, "medium.mac_retries", md.mac_retries);
    expect_exported(m, "medium.collisions", md.collisions);
    expect_exported(m, "medium.frames_collided", md.frames_collided);
    expect_exported(m, "medium.unicast_drops", md.unicast_drops);
    expect_exported(m, "medium.deliveries", md.deliveries);
    expect_exported(m, "medium.omissions", md.omissions);
    expect_exported(m, "medium.unreachable", md.unreachable);
    expect_exported(m, "medium.hidden_terminal", md.hidden_terminal);
    expect_exported(m, "medium.bytes_on_air", md.bytes_on_air);
    expect_exported(m, "medium.airtime_ns",
                    static_cast<std::uint64_t>(md.airtime));
    EXPECT_EQ(m.histograms().count("medium.backoff_slots"), 1u);
    EXPECT_EQ(m.histograms().count("medium.frame_airtime_us"), 1u);

    if (c.protocol == harness::Protocol::kBracha) {
      const net::TcpHost::Stats& tcp = r.tcp;
      EXPECT_GT(tcp.segments_sent, 0u);
      EXPECT_EQ(counters_named(m, "tcp."), 6u);
      expect_exported(m, "tcp.messages_sent", tcp.messages_sent);
      expect_exported(m, "tcp.segments_sent", tcp.segments_sent);
      expect_exported(m, "tcp.segments_retransmitted",
                      tcp.segments_retransmitted);
      expect_exported(m, "tcp.rto_fires", tcp.rto_fires);
      expect_exported(m, "tcp.fast_retransmits", tcp.fast_retransmits);
      expect_exported(m, "tcp.auth_failures", tcp.auth_failures);
    } else {
      EXPECT_EQ(counters_named(m, "tcp."), 0u);
    }

    if (!r.spatial.has_value()) {
      EXPECT_EQ(std::string(c.topology), "single");
      EXPECT_EQ(counters_named(m, "spatial."), 0u);
      continue;
    }
    const spatial::SpatialStats& sp = *r.spatial;
    EXPECT_GT(sp.samples, 0u);
    expect_exported(m, "spatial.samples", sp.samples);
    expect_exported(m, "spatial.partition_events", sp.partition_events);
    expect_exported(m, "spatial.partitioned_samples", sp.partitioned_samples);
    expect_exported(m, "spatial.path_hops_sum", sp.path_hops_sum);
    expect_exported(m, "spatial.path_pairs", sp.path_pairs);
    expect_exported(m, "spatial.cs_domains_sum", sp.cs_domains_sum);
    if (!c.relay) {
      EXPECT_EQ(counters_named(m, "spatial."), 6u);
      continue;
    }
    EXPECT_GT(sp.relay.origin_frames, 0u);
    EXPECT_EQ(counters_named(m, "spatial.relay."), 5u);
    expect_exported(m, "spatial.relay.origin_frames", sp.relay.origin_frames);
    expect_exported(m, "spatial.relay.forwards", sp.relay.forwards);
    expect_exported(m, "spatial.relay.suppressed", sp.relay.suppressed);
    expect_exported(m, "spatial.relay.duplicates", sp.relay.duplicates);
    expect_exported(m, "spatial.relay.deliveries", sp.relay.deliveries);
  }
}

}  // namespace
}  // namespace turq
