#include "probes.hpp"

namespace perfbench {

using turq::trace::Kind;

void FigureSink::on_event(const turq::trace::TraceEvent& e) {
  switch (e.kind) {
    case Kind::kRepBegin:
      ++reps;
      enqueue_at_.clear();  // frame ids restart with every medium
      break;
    case Kind::kRepEnd:
      sim_ns += static_cast<std::uint64_t>(e.at);
      break;
    case Kind::kFrameEnqueue:
      ++enqueued;
      enqueue_at_[e.frame] = e.at;
      break;
    case Kind::kFrameSuperseded:
      ++superseded;
      enqueue_at_.erase(e.frame);
      break;
    case Kind::kFrameTxStart: {
      // Retries and collisions start the same frame again; only its first
      // start ends the MAC wait.
      const auto it = enqueue_at_.find(e.frame);
      if (it != enqueue_at_.end()) {
        mac_wait_ms.push_back(turq::to_milliseconds(e.at - it->second));
        enqueue_at_.erase(it);
      }
      break;
    }
    case Kind::kCoinFlip:
      ++coin_flips;
      break;
    case Kind::kDecide:
      ++decides;
      decide_phase_sum += e.phase;
      break;
    case Kind::kCryptoOp:
      verified_messages += e.bytes;
      break;
    default:
      break;
  }
}

std::uint64_t FigureSink::counter(const char* name) const {
  const auto& counters = metrics_.counters();
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second.value();
}

}  // namespace perfbench
