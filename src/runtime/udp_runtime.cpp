#include "runtime/udp_runtime.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/assert.hpp"
#include "common/logging.hpp"

namespace turq::runtime {

namespace {

/// Frame header on the wire: magic 'T''Q', version, sender id. Filters
/// stray datagrams (port scans, leftovers from earlier runs) cheaply.
constexpr std::uint8_t kMagic0 = 'T';
constexpr std::uint8_t kMagic1 = 'Q';
constexpr std::uint8_t kVersion = 1;
constexpr std::size_t kHeaderSize = 4;

SimTime monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<SimTime>(ts.tv_sec) * kSecond + ts.tv_nsec;
}

sockaddr_in to_sockaddr(const UdpEndpoint& ep) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  const int rc = inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr);
  TURQ_ASSERT_MSG(rc == 1, "peer host must be an IPv4 literal");
  return addr;
}

}  // namespace

UdpRuntime::UdpRuntime(std::uint64_t rng_seed, ChargePolicy policy)
    : policy_(policy), rng_root_(rng_seed) {
  epoll_fd_ = epoll_create1(0);
  TURQ_ASSERT_MSG(epoll_fd_ >= 0, "epoll_create1 failed");
  epoch_ = monotonic_ns();
}

UdpRuntime::~UdpRuntime() {
  for (auto& port : ports_) port->close();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

SimTime UdpRuntime::now() const { return monotonic_ns() - epoch_; }

TimerId UdpRuntime::schedule(SimDuration delay, Callback fn) {
  const TimerId id = next_timer_++;
  callbacks_.emplace(id, std::move(fn));
  heap_.push_back({now() + std::max<SimDuration>(delay, 0), ++timer_seq_, id});
  std::push_heap(heap_.begin(), heap_.end(), EntryAfter{});
  return id;
}

void UdpRuntime::cancel(TimerId id) {
  // Lazy deletion: the heap entry stays until popped; absence from the
  // callback map marks it dead.
  callbacks_.erase(id);
}

void UdpRuntime::charge(SimDuration duration) {
  if (policy_ == ChargePolicy::kSleep && duration > 0) {
    timespec ts{duration / kSecond, duration % kSecond};
    nanosleep(&ts, nullptr);
  }
}

void UdpRuntime::execute(SimDuration duration, Callback done) {
  // The real computation already happened on this thread; by default the
  // modeled cost is dropped and the continuation runs immediately. This is
  // safe against re-entry: datagrams are only delivered from the epoll
  // loop, never from inside a send.
  charge(duration);
  done();
}

Rng UdpRuntime::derive_rng(std::string_view tag, std::uint64_t index) const {
  return rng_root_.derive(tag, index);
}

SimDuration UdpRuntime::fire_due_timers(SimTime t) {
  while (!heap_.empty()) {
    const TimerEntry top = heap_.front();
    auto it = callbacks_.find(top.id);
    if (it == callbacks_.end()) {  // cancelled: drop the tombstone
      std::pop_heap(heap_.begin(), heap_.end(), EntryAfter{});
      heap_.pop_back();
      continue;
    }
    if (top.at > t) return top.at - t;
    std::pop_heap(heap_.begin(), heap_.end(), EntryAfter{});
    heap_.pop_back();
    Callback fn = std::move(it->second);
    callbacks_.erase(it);
    fn();
    if (stopped_) return -1;
  }
  return -1;
}

void UdpRuntime::run(const std::function<bool()>& done, SimDuration max_wait) {
  stopped_ = false;
  const SimTime deadline = max_wait > 0 ? now() + max_wait : 0;
  epoll_event events[16];
  while (!stopped_) {
    if (done && done()) return;
    SimDuration until_timer = fire_due_timers(now());
    if (stopped_ || (done && done())) return;
    if (deadline != 0 && now() >= deadline) return;

    // Wake for the next timer, and at least every 10 ms to re-check the
    // predicate/deadline even on a silent network.
    SimDuration wait = until_timer < 0 ? 10 * kMillisecond
                                       : std::min<SimDuration>(
                                             until_timer, 10 * kMillisecond);
    if (deadline != 0) {
      wait = std::min<SimDuration>(wait, std::max<SimDuration>(deadline - now(), 0));
    }
    const int timeout_ms =
        static_cast<int>((wait + kMillisecond - 1) / kMillisecond);
    const int ready =
        epoll_wait(epoll_fd_, events, 16, std::max(timeout_ms, 0));
    if (ready < 0) {
      if (errno == EINTR) continue;
      TURQ_ASSERT_MSG(false, "epoll_wait failed");
    }
    for (int i = 0; i < ready && !stopped_; ++i) {
      auto* port = static_cast<UdpPort*>(events[i].data.ptr);
      drain_socket(*port);
    }
  }
}

void UdpRuntime::drain_socket(UdpPort& port) {
  // Drain until EAGAIN: epoll readiness is level-triggered per poll, but a
  // broadcast burst queues many datagrams behind one readiness event —
  // stopping early would delay the rest by a full poll cycle and starve
  // timers. EINTR in particular must not abandon the drain: a signal
  // between datagrams would strand everything still queued.
  std::uint8_t buf[65536];
  bool read_any = false;
  while (port.fd_ >= 0) {
    const ssize_t got = recvfrom(port.fd_, buf, sizeof(buf), 0, nullptr, nullptr);
    if (got < 0) {
      if (errno == EINTR) continue;  // interrupted mid-drain: keep reading
      break;  // EAGAIN/EWOULDBLOCK (drained) or hard error: drop and carry on
    }
    read_any = true;
    if (got < static_cast<ssize_t>(kHeaderSize)) continue;
    if (buf[0] != kMagic0 || buf[1] != kMagic1 || buf[2] != kVersion) continue;
    const ProcessId src = buf[3];
    ++received_;
    if (port.handler_) {
      port.handler_(src, BytesView{buf + kHeaderSize,
                                   static_cast<std::size_t>(got) - kHeaderSize});
    }
  }
  if (read_any) ++wakeups_;
}

UdpRuntime::UdpPort& UdpRuntime::open_port(ProcessId self,
                                           std::uint16_t bind_port) {
  const int fd = socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  TURQ_ASSERT_MSG(fd >= 0, "socket() failed");
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const bool broadcast =
      setsockopt(fd, SOL_SOCKET, SO_BROADCAST, &one, sizeof(one)) == 0;
  // Consensus bursts at large n can spike past the default socket buffer;
  // ask for more (best effort, capped by net.core.rmem_max).
  const int rcvbuf = 4 * 1024 * 1024;
  setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(bind_port);
  int rc = bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  TURQ_ASSERT_MSG(rc == 0, "bind() failed — port already in use?");

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  rc = getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
  TURQ_ASSERT_MSG(rc == 0, "getsockname() failed");

  ports_.push_back(std::unique_ptr<UdpPort>(
      new UdpPort(*this, self, fd, ntohs(bound.sin_port), broadcast)));
  UdpPort& port = *ports_.back();

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = &port;
  rc = epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  TURQ_ASSERT_MSG(rc == 0, "epoll_ctl(ADD) failed");
  return port;
}

void UdpRuntime::set_peers(std::vector<UdpEndpoint> peers) {
  peers_ = std::move(peers);
}

void UdpRuntime::UdpPort::set_handler(net::DatagramHandler handler) {
  handler_ = std::move(handler);
}

void UdpRuntime::UdpPort::send(net::FramedPayload framed) {
  if (fd_ < 0) return;
  const BytesView payload = framed.payload();
  Bytes frame;
  frame.reserve(kHeaderSize + payload.size());
  frame.push_back(kMagic0);
  frame.push_back(kMagic1);
  frame.push_back(kVersion);
  frame.push_back(static_cast<std::uint8_t>(self_));
  frame.insert(frame.end(), payload.begin(), payload.end());
  for (const UdpEndpoint& peer : rt_.peers_) {
    const sockaddr_in addr = to_sockaddr(peer);
    const ssize_t rc =
        sendto(fd_, frame.data(), frame.size(), 0,
               reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    if (rc < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
        errno != ECONNREFUSED) {
      // ECONNREFUSED = peer not up yet (loopback ICMP); ticks retransmit.
      TURQ_WARN("sendto %s:%u failed: %s", peer.host.c_str(), peer.port,
                std::strerror(errno));
    }
  }
}

void UdpRuntime::UdpPort::close() {
  if (fd_ < 0) return;
  epoll_ctl(rt_.epoll_fd_, EPOLL_CTL_DEL, fd_, nullptr);
  ::close(fd_);
  fd_ = -1;
  handler_ = nullptr;
}

}  // namespace turq::runtime
