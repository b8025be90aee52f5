// Trace sinks: consumers of a flushed event stream.
//
// A Tracer::flush(sink) call delivers, in order: every held event (oldest
// first), the run-level MetricsRegistry, then an end-of-stream marker. The
// harness flushes once per repetition, so a multi-repetition scenario
// produces one begin/end-marked block per repetition in the same sink.
//
// Two formats:
//   * JsonlSink — one JSON object per line; the canonical machine format,
//     read back by trace::inspect and tools/trace_inspect. Integers only on
//     the event path, so byte-identical across identically seeded runs.
//   * ChromeTraceSink — Chrome trace_event JSON ("Trace Event Format"),
//     loadable directly in chrome://tracing or https://ui.perfetto.dev.
//     One lane per process plus a channel lane; repetitions map to pids.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace turq::trace {

class Sink {
 public:
  virtual ~Sink() = default;

  virtual void on_event(const TraceEvent& event) = 0;
  virtual void on_metrics(const MetricsRegistry& metrics) { (void)metrics; }
  /// End of one flushed block (one repetition).
  virtual void on_end(std::uint64_t emitted, std::uint64_t dropped) {
    (void)emitted;
    (void)dropped;
  }
  /// Finalizes the output (buffering sinks write here). Idempotent; called
  /// by the destructor of sinks that buffer.
  virtual void close() {}
};

class JsonlSink final : public Sink {
 public:
  explicit JsonlSink(std::ostream& out) : out_(out) {}

  void on_event(const TraceEvent& event) override;
  void on_metrics(const MetricsRegistry& metrics) override;
  void on_end(std::uint64_t emitted, std::uint64_t dropped) override;

 private:
  std::ostream& out_;
};

class ChromeTraceSink final : public Sink {
 public:
  explicit ChromeTraceSink(std::ostream& out) : out_(out) {}
  ~ChromeTraceSink() override { close(); }

  void on_event(const TraceEvent& event) override;
  void on_end(std::uint64_t emitted, std::uint64_t dropped) override;
  void close() override;

 private:
  struct Held {
    std::uint32_t rep;  // pid in the output
    TraceEvent event;
  };

  std::ostream& out_;
  std::vector<Held> events_;
  std::uint32_t rep_ = 0;
  bool closed_ = false;
};

/// Records a flushed stream verbatim in memory for later replay.
///
/// The parallel repetition scheduler gives each repetition its own
/// BufferSink (filled on whichever worker thread ran the repetition) and
/// replays the buffers into the user's real sink in repetition order once
/// all workers are done. Replay preserves the exact call sequence
/// (on_event / on_metrics / on_end), so a traced parallel run produces
/// byte-identical output to the sequential run with the same seed.
class BufferSink final : public Sink {
 public:
  void on_event(const TraceEvent& event) override;
  void on_metrics(const MetricsRegistry& metrics) override;
  void on_end(std::uint64_t emitted, std::uint64_t dropped) override;

  /// Re-issues every recorded call against `sink`, in original order.
  /// The buffer is left intact; replay is repeatable.
  void replay(Sink& sink) const;

  /// True when nothing has been recorded yet.
  [[nodiscard]] bool empty() const { return ops_.empty(); }

 private:
  enum class Op : std::uint8_t { kEvent, kMetrics, kEnd };
  struct End {
    std::uint64_t emitted = 0;
    std::uint64_t dropped = 0;
  };

  std::vector<Op> ops_;  // call sequence; payloads pop from the vectors below
  std::vector<TraceEvent> events_;
  std::vector<MetricsRegistry> metrics_;
  std::vector<End> ends_;
};

}  // namespace turq::trace
