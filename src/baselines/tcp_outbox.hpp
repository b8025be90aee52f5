// Outgoing messages batched per event turn over the reliable channels
// (writev-style): every message a process queues while it handles one
// event goes out at the end of that turn, one burst per peer, so one
// reaction's burst shares TCP segments. Without it every tiny message of
// Bracha's reliable broadcast becomes its own MAC frame and the shared
// channel collapses at n = 16; Crain's BV/AUX bursts batch the same way.
//
// Every message goes to the whole group, so a turn's burst is the same for
// every destination: it is staged once, as framed bytes in one buffer
// reused across turns, and handed to TcpHost::send_framed per destination.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "net/reliable_channel.hpp"
#include "runtime/runtime.hpp"

namespace turq::baselines {

class TcpOutbox {
 public:
  /// Sends to processes 0..n-1; `rt` and `transport` must outlive the
  /// outbox.
  TcpOutbox(runtime::Runtime& rt, net::TcpHost& transport, std::uint32_t n)
      : rt_(rt), transport_(transport), n_(n) {}

  TcpOutbox(const TcpOutbox&) = delete;
  TcpOutbox& operator=(const TcpOutbox&) = delete;

  /// Queues `payload` for every process (itself included) and, once per
  /// turn, schedules the zero-delay flush.
  void send_to_all(BytesView payload) {
    net::TcpHost::append_framed(framed_, payload);
    ++count_;
    if (!flush_scheduled_) {
      flush_scheduled_ = true;
      rt_.schedule(0, [this] { flush(); });
    }
  }

  /// Drops whatever is queued; nothing is sent from now on (crash).
  void close() {
    closed_ = true;
    framed_.clear();
    count_ = 0;
  }

 private:
  /// Sends the turn's burst to each process in id order, then empties it,
  /// keeping its capacity for the next turn.
  void flush() {
    flush_scheduled_ = false;
    if (closed_) return;
    for (ProcessId dst = 0; dst < n_; ++dst) {
      transport_.send_framed(dst, framed_, count_);
    }
    framed_.clear();
    count_ = 0;
  }

  runtime::Runtime& rt_;
  net::TcpHost& transport_;
  const std::uint32_t n_;
  Bytes framed_;  // this turn's messages, framed
  std::size_t count_ = 0;
  bool flush_scheduled_ = false;
  bool closed_ = false;
};

}  // namespace turq::baselines
