// Structured event tracing.
//
// A TraceEvent is a fixed-size record (no heap allocation on the emit path)
// describing one thing that happened at one simulated instant: a frame
// entering the MAC queue, a phase transition, a crypto charge, a repetition
// boundary. Events flow into a bounded ring buffer owned by a Tracer; when
// the ring is full the oldest events are overwritten (and counted as
// dropped), so tracing never grows without bound and the *latest* window of
// a run survives.
//
// Emission is ambient: components call TURQ_TRACE_EVENT(...) which checks a
// single pointer (the currently installed Tracer) and is a no-op when none
// is installed — the common case for benches. Installing a tracer is scoped
// (TraceScope), matching the one-deployment-per-repetition structure of the
// harness. The ambient pointer is thread_local: each harness worker thread
// runs one deployment at a time under its own tracer, so no Tracer is ever
// shared between threads and no locking is needed.
//
// Compile-out: building with -DTURQ_TRACE_DISABLED turns every emit macro
// and helper into nothing, for a binary with provably zero tracing cost.
//
// Determinism: events carry only simulated time and deterministic ids, so a
// given seed produces a byte-identical event stream (enforced by
// tests/trace_test.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "trace/metrics.hpp"

namespace turq::trace {

/// Which layer emitted the event.
enum class Category : std::uint8_t {
  kSim = 0,       // discrete-event scheduler
  kMedium,        // shared-channel MAC
  kChannel,       // reliable (TCP-like) transport
  kProtocol,      // consensus protocols (Turquois and baselines)
  kCrypto,        // modeled cryptographic work
  kHarness,       // experiment driver
  kSpatial,       // topology, mobility and relay/gossip
};

/// What happened. Kinds are globally unique (not per category) so a stream
/// is self-describing even if a consumer ignores the category.
enum class Kind : std::uint8_t {
  // sim
  kSimEvent = 0,      // one handler dispatched; value = event id
  // medium frame lifecycle: enqueue -> (backoff ->) tx -> delivered/...
  kFrameEnqueue,      // value = dst (-1 broadcast); bytes = payload
  kFrameSuperseded,   // queued broadcast replaced by a newer state
  kBackoffDraw,       // value = slot drawn for this contention round
  kFrameTxStart,      // value = airtime ns; phase = 1 if broadcast
  kFrameDelivered,    // value = receiving process
  kFrameOmitted,      // value = receiving process (injected loss)
  kFrameCollided,     // frame corrupted by overlapping transmission
  kFrameRetry,        // value = retry count so far (unicast)
  kFrameDropped,      // unicast gave up after the retry limit
  // reliable channel
  kSegmentSend,       // value = dst; frame = seq; bytes = segment size
  kSegmentRetransmit, // value = dst; frame = seq
  kRtoFire,           // value = dst
  kFastRetransmit,    // value = dst
  // protocol
  kPropose,           // value = proposal
  kStateBroadcast,    // phase = sender phase; bytes = datagram size
  kPhaseEnter,        // phase = new phase; value = 1 if entered by jump
  kRoundEnter,        // baselines: phase = round; value = step
  kCoinFlip,          // value = outcome
  kDecide,            // value = decision; phase = deciding phase/round
  kCrash,
  // crypto
  kCryptoOp,          // value = modeled cost ns; bytes = ops in batch
  // harness
  kRepBegin,          // value = repetition index
  kRepEnd,            // value = repetition index
  // spatial medium (appended: kind values are stable across releases)
  kFrameUnreachable,  // value = receiver out of radio range
  kRelayForward,      // gossip rebroadcast; value = origin; frame = seq
  kRelaySuppressed,   // counter threshold hit; value = origin; frame = seq
};

[[nodiscard]] const char* to_string(Category c);
[[nodiscard]] const char* to_string(Kind k);

/// One fixed-size trace record. Field meaning varies by kind (see enum
/// comments); unused fields stay at their defaults.
struct TraceEvent {
  SimTime at = 0;
  Category category = Category::kSim;
  Kind kind = Kind::kSimEvent;
  ProcessId process = kInvalidProcess;  // emitting/owning process
  std::uint32_t phase = 0;
  std::int64_t value = 0;
  std::uint64_t frame = 0;              // medium frame id or segment seq
  std::uint32_t bytes = 0;

  bool operator==(const TraceEvent&) const = default;
};

class Sink;

struct TracerOptions {
  /// Ring capacity in events. 2^18 events (~10 MB) holds a full 16-node
  /// consensus run with room to spare.
  std::size_t capacity = 1 << 18;
  /// Also record one event per simulator dispatch (voluminous; default off).
  bool sim_events = false;
};

/// Owner of the event ring and the run-level metrics registry.
class Tracer {
 public:
  explicit Tracer(TracerOptions options = {});

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Appends an event, overwriting the oldest when the ring is full.
  void emit(const TraceEvent& event);

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] const TracerOptions& options() const { return options_; }

  /// Events currently held (<= capacity).
  [[nodiscard]] std::size_t size() const { return count_; }
  /// Total emit() calls.
  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }
  /// Events overwritten before they could be flushed.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Streams held events oldest-to-newest into `sink`, then the metrics
  /// registry and the end-of-stream marker. The ring is left untouched.
  void flush(Sink& sink);

 private:
  TracerOptions options_;
  std::vector<TraceEvent> ring_;
  std::size_t start_ = 0;   // index of the oldest event
  std::size_t count_ = 0;
  std::uint64_t emitted_ = 0;
  std::uint64_t dropped_ = 0;
  MetricsRegistry metrics_;
};

/// The calling thread's ambient tracer, or nullptr when tracing is off
/// (the default). Thread-local: a tracer installed on one harness worker is
/// invisible to the others.
[[nodiscard]] Tracer* current();

/// True when an ambient tracer is installed. Guards instrumentation that is
/// more than a counter bump (histogram observes, payload measurement) so an
/// untraced run pays only the always-on counters.
[[nodiscard]] bool active();

/// RAII installer for the ambient tracer; restores the previous one.
class TraceScope {
 public:
  explicit TraceScope(Tracer* tracer);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Tracer* previous_;
};

#if defined(TURQ_TRACE_DISABLED)
#define TURQ_TRACE_ENABLED 0
#else
#define TURQ_TRACE_ENABLED 1
#endif

#if TURQ_TRACE_ENABLED
/// Emits a TraceEvent (given as designated initializers) to the ambient
/// tracer. The initializer list is only evaluated when a tracer is
/// installed, so call sites cost one load+branch in the common (off) case.
#define TURQ_TRACE_EVENT(...)                                              \
  do {                                                                     \
    if (::turq::trace::Tracer* turq_tracer_ = ::turq::trace::current()) {  \
      turq_tracer_->emit(::turq::trace::TraceEvent{__VA_ARGS__});          \
    }                                                                      \
  } while (0)
#else
#define TURQ_TRACE_EVENT(...) \
  do {                        \
  } while (0)
#endif

inline bool active() {
#if TURQ_TRACE_ENABLED
  return current() != nullptr;
#else
  return false;
#endif
}

/// Bumps a named counter in the ambient tracer's registry (no-op when
/// tracing is off or compiled out). Always-on counters live in the
/// components' own Stats structs instead, exported once per repetition.
inline void count(const char* name, std::uint64_t delta = 1) {
#if TURQ_TRACE_ENABLED
  if (Tracer* t = current()) t->metrics().counter(name).add(delta);
#else
  (void)name;
  (void)delta;
#endif
}

/// Records an observation into a named histogram in the ambient tracer's
/// registry, creating it with `bounds` on first use.
inline void observe(const char* name, std::initializer_list<double> bounds,
                    double x) {
#if TURQ_TRACE_ENABLED
  if (Tracer* t = current()) t->metrics().histogram(name, bounds).observe(x);
#else
  (void)name;
  (void)bounds;
  (void)x;
#endif
}

}  // namespace turq::trace
