#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/endpoint.hpp"
#include "net/transport.hpp"
#include "netio/buffer_arena.hpp"
#include "netio/timer_wheel.hpp"
#include "obs/metrics.hpp"

struct sockaddr_in;  // <netinet/in.h>, included by reactor.cpp only

namespace dat::netio {

class Reactor;

/// Settings of one reactor. Writes are always coalesced per destination;
/// the defaults are the fast path (batched syscalls where the platform has
/// recvmmsg/sendmmsg — detected at configure time).
struct ReactorOptions {
  /// Drain and flush sockets with recvmmsg/sendmmsg where compiled in;
  /// false forces the portable one-datagram-per-syscall path, the only
  /// path on builds without mmsg.
  bool batch_syscalls = true;
  /// Receive buffer size and coalescing limit per datagram. The default
  /// covers the largest possible UDP payload; tests shrink it to exercise
  /// kernel truncation (MSG_TRUNC) handling.
  std::size_t max_datagram = 64 * 1024;
  /// Optional metrics registry. When set, the reactor publishes its I/O
  /// counters as dat_netio_*_total (a snapshot-time collector) and feeds
  /// the dat_netio_frames_per_datagram histogram. The registry must
  /// outlive the reactor.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Whether this build selected the recvmmsg/sendmmsg batched-syscall paths
/// at configure time (DAT_NETIO_HAVE_MMSG).
[[nodiscard]] bool mmsg_compiled() noexcept;

/// A reactor's I/O counters.
struct ReactorCounters {
  std::uint64_t epoll_waits = 0;
  std::uint64_t recv_syscalls = 0;
  std::uint64_t send_syscalls = 0;
  std::uint64_t datagrams_in = 0;
  std::uint64_t datagrams_out = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  /// Outbound datagrams that carried more than one coalesced frame.
  std::uint64_t coalesced_datagrams_out = 0;
  /// Inbound datagrams that were batch containers.
  std::uint64_t batch_datagrams_in = 0;
  std::uint64_t truncated_in = 0;
  std::uint64_t send_errors = 0;
};

/// Transport bound to one UDP socket hosted on a Reactor; created via
/// Reactor::add_socket(). Like every transport it belongs to the thread
/// that drives its reactor.
class NetioTransport final : public net::Transport {
 public:
  ~NetioTransport() override;

  NetioTransport(const NetioTransport&) = delete;
  NetioTransport& operator=(const NetioTransport&) = delete;

  [[nodiscard]] net::Endpoint local() const override { return self_; }
  void send(net::Endpoint to, const net::Message& msg) override;
  void set_receive_handler(ReceiveHandler handler) override {
    handler_ = std::move(handler);
  }
  net::TimerId set_timer(std::uint64_t delay_us,
                         std::function<void()> cb) override;
  void cancel_timer(net::TimerId id) override;
  [[nodiscard]] std::uint64_t now_us() const override;

 private:
  friend class Reactor;

  /// One outbound datagram being assembled (or queued) for `to`. A single
  /// frame stays raw; from the second frame on, the bytes are a batch
  /// container (net/frame.hpp).
  struct PendingDatagram {
    net::Endpoint to = net::kNullEndpoint;
    std::vector<std::uint8_t> bytes;
    unsigned frames = 0;
  };

  NetioTransport(Reactor& reactor, int fd, net::Endpoint self,
                 std::uint64_t reg_id);

  Reactor& reactor_;
  int fd_;
  net::Endpoint self_;
  std::uint64_t reg_id_;
  ReceiveHandler handler_;
  /// Write coalescer state: per-destination open datagrams plus the queue
  /// of datagrams ready for the next flush.
  std::unordered_map<net::Endpoint, PendingDatagram> open_;
  std::vector<PendingDatagram> outq_;
  bool flush_queued_ = false;
};

/// One epoll event loop, driven inline: the owner calls poll_once() from
/// its own thread (NetioNetwork wraps this into its run_for/run_while
/// surface). It hosts a set of UDP sockets, a buffer arena and a timer
/// wheel.
///
/// Receive path: epoll_wait -> recvmmsg bursts into arena buffers -> batch
/// split -> hardened Message::try_decode -> handler upcall. Send path:
/// frames coalesce per destination and every pending datagram of a socket
/// is flushed with one sendmmsg at the end of the loop iteration, so an
/// aggregation wave of k same-parent updates costs one syscall and one
/// packet instead of k of each.
class Reactor {
 public:
  explicit Reactor(const ReactorOptions& options);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Binds a new loopback UDP socket and registers it with this reactor.
  /// Port 0 asks the OS for one; a nonzero port is bound with SO_REUSEADDR
  /// so a restarted daemon can reclaim its address immediately.
  NetioTransport& add_socket(std::uint16_t port = 0);

  /// Unregisters and destroys the socket. Destruction is deferred to the
  /// end of the current loop iteration, so a handler may remove its own
  /// node.
  void remove_socket(net::Endpoint ep);

  /// Runs one loop iteration, blocking in epoll for at most max_wait_us.
  void poll_once(std::uint64_t max_wait_us);

  /// Timer surface shared by every socket on the reactor.
  net::TimerId set_timer(std::uint64_t delay_us, std::function<void()> cb);
  void cancel_timer(net::TimerId id);

  /// Microseconds since the reactor was constructed.
  [[nodiscard]] std::uint64_t now_us() const;

  [[nodiscard]] ReactorCounters counters() const noexcept { return stats_; }

 private:
  friend class NetioTransport;

  /// Opaque bag holding the preallocated recvmmsg/sendmmsg scratch arrays
  /// (mmsghdr/iovec/sockaddr vectors), kept out of the header so
  /// <sys/socket.h> internals stay in the .cpp.
  struct Scratch;

  void reap_graveyard();
  void enqueue_send(NetioTransport& t, net::Endpoint to,
                    const net::Message& msg);
  void seal_open_datagrams(NetioTransport& t);
  void flush_transport(NetioTransport& t);
  void flush_all();
  bool send_datagram(int fd, net::Endpoint to,
                     std::span<const std::uint8_t> bytes);
  void drain_fd(std::uint64_t reg_id);
  void dispatch_datagram(std::uint64_t reg_id, net::Endpoint src,
                         std::span<const std::uint8_t> dgram);
  void handle_inbound(std::uint64_t reg_id, const ::sockaddr_in& from,
                      std::size_t name_len, std::size_t msg_len,
                      bool kernel_truncated, const std::uint8_t* data);

  ReactorOptions options_;
  std::uint64_t t0_us_;
  ReactorCounters stats_;
  /// Coalescer batch-size histogram (frames per outbound datagram) when a
  /// metrics registry is attached; observed on the flush path.
  obs::Histogram* frames_per_datagram_ = nullptr;
  std::uint64_t metrics_collector_ = 0;
  int epoll_fd_ = -1;
  TimerWheel wheel_;
  BufferArena arena_;

  std::unordered_map<std::uint64_t, std::unique_ptr<NetioTransport>> sockets_;
  std::unordered_map<net::Endpoint, std::uint64_t> reg_of_;
  std::vector<std::unique_ptr<NetioTransport>> graveyard_;
  std::vector<NetioTransport*> flush_list_;
  std::uint64_t next_reg_id_ = 1;

  std::unique_ptr<Scratch> scratch_;
};

}  // namespace dat::netio
