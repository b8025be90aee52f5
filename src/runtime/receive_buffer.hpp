// The modeled OS receive buffer of a process that has not started yet.
//
// A datagram can reach a process before its propose(): the host's socket
// holds it until the application reads. Every protocol here models that the
// same way, so they share this one buffer: before start() each datagram is
// copied (the caller's view dies with the handler call) and kept in arrival
// order; start() hands them back in that order; after halt() (a crash)
// nothing is kept or handed back.
#pragma once

#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"

namespace turq::runtime {

class ReceiveBuffer {
 public:
  /// True when the caller should handle the datagram now: after start()
  /// and before halt(). Before start() it is buffered instead.
  bool admit(ProcessId src, BytesView payload) {
    if (halted_) return false;
    if (started_) return true;
    queued_.emplace_back(src, Bytes(payload.begin(), payload.end()));
    return false;
  }

  /// Starts delivery and replays the buffered datagrams, in arrival order,
  /// through `deliver(src, payload)`; it may call admit() and halt().
  template <typename Deliver>
  void start(Deliver&& deliver) {
    started_ = true;
    std::vector<std::pair<ProcessId, Bytes>> queued;
    queued.swap(queued_);
    for (auto& [src, payload] : queued) deliver(src, BytesView(payload));
  }

  /// Drops what is buffered and admits nothing from now on.
  void halt() {
    halted_ = true;
    queued_.clear();
  }

 private:
  bool started_ = false;
  bool halted_ = false;
  std::vector<std::pair<ProcessId, Bytes>> queued_;
};

}  // namespace turq::runtime
