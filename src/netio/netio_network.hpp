#pragma once

#include <cstdint>
#include <functional>

#include "netio/reactor.hpp"

namespace dat::netio {

/// In-process network hosting many node sockets in one OS process — the
/// paper's "up to 64 DAT instances on each machine" — over a single Reactor
/// driven inline on the caller's thread. Every UDP path (UdpCluster, datd,
/// the admin client, the examples) runs on it, so all of them get epoll,
/// syscall batching and write coalescing without owning a thread. A
/// deployment uses more cores by running more processes, as in the paper.
class NetioNetwork {
 public:
  explicit NetioNetwork(const ReactorOptions& options = {});

  /// Binds a new UDP socket on 127.0.0.1 and returns its transport.
  /// `port` 0 lets the OS assign one (harness mode); a daemon passes its
  /// configured port so peers can find it across process restarts. Pinned
  /// ports are bound with SO_REUSEADDR, so a restarted daemon can rebind
  /// immediately even while stale sockets linger in the kernel.
  NetioTransport& add_node(std::uint16_t port = 0);

  /// Closes the node's socket and destroys its transport. Safe to call from
  /// a receive handler or timer of the same network: destruction is
  /// deferred to the end of the current pump iteration.
  void remove_node(net::Endpoint ep);

  /// Microseconds since the network was constructed (monotonic wall clock).
  [[nodiscard]] std::uint64_t now_us() const;

  /// Pumps I/O and timers for the given wall-clock duration.
  void run_for(std::uint64_t duration_us);

  /// Pumps while `keep_going()` is true, up to `max_us`. Returns true if
  /// the predicate turned false (i.e. the awaited condition was met).
  bool run_while(const std::function<bool()>& keep_going,
                 std::uint64_t max_us);

  [[nodiscard]] Reactor& reactor() noexcept { return reactor_; }
  [[nodiscard]] const Reactor& reactor() const noexcept { return reactor_; }

 private:
  Reactor reactor_;
};

}  // namespace dat::netio
