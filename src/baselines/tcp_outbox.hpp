// Outgoing messages batched per event turn over the reliable channels
// (writev-style): every message a process queues while it handles one
// event goes out at the end of that turn, one send_many per peer, so one
// reaction's burst shares TCP segments. Without it every tiny message of
// Bracha's reliable broadcast becomes its own MAC frame and the shared
// channel collapses at n = 16; Crain's BV/AUX bursts batch the same way.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/types.hpp"
#include "net/reliable_channel.hpp"
#include "runtime/runtime.hpp"

namespace turq::baselines {

class TcpOutbox {
 public:
  /// `rt` and `transport` must outlive the outbox.
  TcpOutbox(runtime::Runtime& rt, net::TcpHost& transport)
      : rt_(rt), transport_(transport) {}

  TcpOutbox(const TcpOutbox&) = delete;
  TcpOutbox& operator=(const TcpOutbox&) = delete;

  /// Queues `payload` for every process 0..n-1 (itself included) and, once
  /// per turn, schedules the zero-delay flush.
  void send_to_all(std::uint32_t n, const Bytes& payload) {
    for (ProcessId dst = 0; dst < n; ++dst) pending_[dst].push_back(payload);
    if (!flush_scheduled_) {
      flush_scheduled_ = true;
      rt_.schedule(0, [this] { flush(); });
    }
  }

  /// Drops whatever is queued; nothing is sent from now on (crash).
  void close() {
    closed_ = true;
    pending_.clear();
  }

 private:
  void flush() {
    flush_scheduled_ = false;
    if (closed_) return;
    std::map<ProcessId, std::vector<Bytes>> batch;
    batch.swap(pending_);
    for (auto& [dst, messages] : batch) transport_.send_many(dst, messages);
  }

  runtime::Runtime& rt_;
  net::TcpHost& transport_;
  std::map<ProcessId, std::vector<Bytes>> pending_;
  bool flush_scheduled_ = false;
  bool closed_ = false;
};

}  // namespace turq::baselines
