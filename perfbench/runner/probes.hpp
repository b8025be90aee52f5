// Measurement probes the benchmark attaches from outside the program.
//
//   * Spans — a stack of host-time spans with self-time accounting: a
//     span's self time is its duration minus the time of the spans nested
//     inside it, so the self times of all layers add up to the time of the
//     outermost spans and never double count.
//   * TimedRuntime / TimedBroadcastService — pass-through decorators over
//     the public runtime::Runtime and net::BroadcastService seams. They
//     forward every call unchanged (no randomness, no extra events), and
//     open a span around each callback into the protocol above.
//   * FigureSink — a trace::Sink that folds a flushed event stream into the
//     simulated-time figures of the per-layer breakdown.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/broadcast_service.hpp"
#include "net/medium.hpp"
#include "runtime/sim_runtime.hpp"
#include "trace/sink.hpp"

namespace perfbench {

/// Where a host-time span is charged.
enum class Layer : std::uint8_t {
  kSim,          // Simulator::run_until: event core + MAC model
  kTimer,        // runtime timer callbacks (Turquois tick, Bracha flush)
  kExec,         // runtime execute() completions (Turquois T2 body)
  kRecv,         // BroadcastService receive handlers (decode + verify)
  kSend,         // BroadcastService::broadcast (medium enqueue)
  kHook,         // ProcessHooks on_decide / on_phase (auditor)
  kAuditFinish,  // end-of-repetition audit checks
  kCount,
};

class Spans {
 public:
  void enter(Layer layer) {
    stack_.push_back(Frame{layer, now_ns(), 0});
  }

  void exit() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = now_ns() - f.start;
    self_[static_cast<std::size_t>(f.layer)] += dur - f.child;
    if (stack_.empty()) {
      outer_ += dur;
    } else {
      stack_.back().child += dur;
    }
  }

  /// Self time of `layer`, in nanoseconds, since construction.
  [[nodiscard]] std::int64_t self_ns(Layer layer) const {
    return self_[static_cast<std::size_t>(layer)];
  }
  /// Time covered by outermost spans (== the sum of all self times).
  [[nodiscard]] std::int64_t outer_ns() const { return outer_; }

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  struct Frame {
    Layer layer;
    std::int64_t start;
    std::int64_t child;
  };
  std::vector<Frame> stack_;
  std::array<std::int64_t, static_cast<std::size_t>(Layer::kCount)> self_{};
  std::int64_t outer_ = 0;
};

/// RAII span; a null Spans makes it a no-op.
class SpanScope {
 public:
  SpanScope(Spans* spans, Layer layer) : spans_(spans) {
    if (spans_ != nullptr) spans_->enter(layer);
  }
  ~SpanScope() {
    if (spans_ != nullptr) spans_->exit();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans* spans_;
};

/// runtime::Runtime decorator: forwards to a SimRuntime and times the
/// protocol's timer and execute callbacks.
class TimedRuntime final : public turq::runtime::Runtime {
 public:
  TimedRuntime(turq::sim::Simulator& sim, turq::sim::VirtualCpu& cpu,
               Spans& spans)
      : inner_(sim, cpu), spans_(spans) {}

  [[nodiscard]] turq::SimTime now() const override { return inner_.now(); }

  turq::runtime::TimerId schedule(turq::SimDuration delay,
                                  Callback fn) override {
    return inner_.schedule(delay, [s = &spans_, fn = std::move(fn)]() mutable {
      SpanScope span(s, Layer::kTimer);
      fn();
    });
  }

  void cancel(turq::runtime::TimerId id) override { inner_.cancel(id); }

  void charge(turq::SimDuration duration) override { inner_.charge(duration); }

  void execute(turq::SimDuration duration, Callback done) override {
    inner_.execute(duration, [s = &spans_, fn = std::move(done)]() mutable {
      SpanScope span(s, Layer::kExec);
      fn();
    });
  }

  [[nodiscard]] turq::Rng derive_rng(std::string_view tag,
                                     std::uint64_t index) const override {
    return inner_.derive_rng(tag, index);
  }

 private:
  turq::runtime::SimRuntime inner_;
  Spans& spans_;
};

/// net::BroadcastService decorator over the Medium: times receive handlers
/// and broadcast enqueues, and optionally keeps a sample of the frames it
/// forwards (every kKeepStride-th, at most kMaxKept in all) so their
/// signatures can be re-verified after the run.
class TimedBroadcastService final : public turq::net::BroadcastService {
 public:
  static constexpr std::size_t kKeepStride = 64;
  static constexpr std::size_t kMaxKept = 4096;

  TimedBroadcastService(turq::net::Medium& medium, Spans& spans,
                        std::vector<FramePayload>* keep_frames)
      : medium_(medium), spans_(spans), keep_(keep_frames) {}

  void attach(turq::ProcessId id, ReceiveHandler handler) override {
    medium_.attach(id, [s = &spans_, h = std::move(handler)](
                           turq::ProcessId src, turq::BytesView payload,
                           bool broadcast) {
      SpanScope span(s, Layer::kRecv);
      h(src, payload, broadcast);
    });
  }

  void detach(turq::ProcessId id) override { medium_.detach(id); }

  void broadcast(turq::ProcessId src, FramePayload payload,
                 bool replace_queued) override {
    if (keep_ != nullptr && keep_->size() < kMaxKept &&
        sent_++ % kKeepStride == 0) {
      keep_->push_back(payload);
    }
    SpanScope span(&spans_, Layer::kSend);
    medium_.broadcast(src, std::move(payload), replace_queued);
  }

 private:
  turq::net::Medium& medium_;
  Spans& spans_;
  std::vector<FramePayload>* keep_;
  std::size_t sent_ = 0;
};

/// Folds flushed trace blocks into simulated-time figures. Counters come
/// from the per-repetition metrics registries, frame timings from events.
class FigureSink final : public turq::trace::Sink {
 public:
  void on_event(const turq::trace::TraceEvent& e) override;
  void on_metrics(const turq::trace::MetricsRegistry& m) override {
    metrics_.merge(m);
  }
  void on_end(std::uint64_t emitted, std::uint64_t dropped) override {
    (void)emitted;
    dropped_ += dropped;
  }

  [[nodiscard]] std::uint64_t counter(const char* name) const;
  [[nodiscard]] const turq::trace::MetricsRegistry& metrics() const {
    return metrics_;
  }

  std::uint64_t reps = 0;
  std::uint64_t sim_ns = 0;       // summed repetition end times
  std::uint64_t enqueued = 0;     // frames handed to the MAC
  std::uint64_t superseded = 0;   // queued broadcasts replaced before air
  std::vector<double> mac_wait_ms;  // enqueue -> first TxStart, per frame
  std::uint64_t coin_flips = 0;
  std::uint64_t decides = 0;
  std::uint64_t decide_phase_sum = 0;  // phase (Turquois) or round (Bracha)
  std::uint64_t verified_messages = 0;  // OTS checks charged (kCryptoOp)

  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  std::unordered_map<std::uint64_t, turq::SimTime> enqueue_at_;
  turq::trace::MetricsRegistry metrics_;
  std::uint64_t dropped_ = 0;
};

}  // namespace perfbench
