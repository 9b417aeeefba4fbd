#include "netio/reactor.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <stdexcept>
#include <system_error>

#include "common/logging.hpp"
#include "net/frame.hpp"

namespace dat::netio {

namespace {

constexpr int kMaxEpollEvents = 64;
/// Datagrams drained per recvmmsg call.
constexpr unsigned kRecvBatch = 32;
/// Datagrams per sendmmsg call.
constexpr unsigned kSendBatch = 64;
/// Requested SO_RCVBUF per socket (the kernel caps it at rmem_max).
constexpr int kSoRcvbuf = 1 << 22;
/// Timer wheel granularity and size.
constexpr std::uint64_t kTimerTickUs = 1024;
constexpr std::size_t kTimerSlots = 256;

std::uint64_t steady_now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

// Thread-safe strerror replacement (::strerror is concurrency-mt-unsafe).
std::string errno_message(int err) {
  return std::error_code(err, std::generic_category()).message();
}

}  // namespace

bool mmsg_compiled() noexcept {
#if DAT_NETIO_HAVE_MMSG
  return true;
#else
  return false;
#endif
}

struct Reactor::Scratch {
  /// Log-level gates cached once per loop iteration: the drop/error paths
  /// can fire at line rate under an adversarial flood, so they must not pay
  /// even the macro's atomic level load per datagram.
  bool log_debug = false;
  bool log_warn = true;

  /// Wire encoding of the message being sent (enqueue_send); capacity
  /// sticks at the largest frame seen, so steady-state sends never
  /// allocate.
  std::vector<std::uint8_t> encode_buf;

  /// Receive slots, one datagram each; slot 0 doubles as the buffer of the
  /// portable single-datagram path.
  std::vector<std::vector<std::uint8_t>> bufs;
  std::vector<sockaddr_in> addrs;
#if DAT_NETIO_HAVE_MMSG
  std::vector<iovec> iovecs;
  std::vector<mmsghdr> hdrs;
  std::vector<sockaddr_in> send_addrs;
  std::vector<iovec> send_iovecs;
  std::vector<mmsghdr> send_hdrs;
#endif
};

// ---------------------------------------------------------------- transport

NetioTransport::NetioTransport(Reactor& reactor, int fd, net::Endpoint self,
                               std::uint64_t reg_id)
    : reactor_(reactor), fd_(fd), self_(self), reg_id_(reg_id) {}

NetioTransport::~NetioTransport() {
  if (fd_ >= 0) ::close(fd_);
}

void NetioTransport::send(net::Endpoint to, const net::Message& msg) {
  reactor_.enqueue_send(*this, to, msg);
}

net::TimerId NetioTransport::set_timer(std::uint64_t delay_us,
                                       std::function<void()> cb) {
  return reactor_.set_timer(delay_us, std::move(cb));
}

void NetioTransport::cancel_timer(net::TimerId id) {
  reactor_.cancel_timer(id);
}

std::uint64_t NetioTransport::now_us() const { return reactor_.now_us(); }

// ------------------------------------------------------------------ reactor

Reactor::Reactor(const ReactorOptions& options)
    : options_(options),
      t0_us_(steady_now_us()),
      wheel_(kTimerTickUs, kTimerSlots),
      arena_(options.max_datagram),
      scratch_(std::make_unique<Scratch>()) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw_errno("epoll_create1");

  Scratch& s = *scratch_;
  s.log_debug = Logger::instance().enabled(LogLevel::kDebug);
  s.log_warn = Logger::instance().enabled(LogLevel::kWarn);
  s.bufs.resize(kRecvBatch);
  for (auto& buf : s.bufs) buf.resize(options_.max_datagram);
  s.addrs.resize(kRecvBatch);
#if DAT_NETIO_HAVE_MMSG
  s.iovecs.resize(kRecvBatch);
  s.hdrs.resize(kRecvBatch);
  s.send_addrs.resize(kSendBatch);
  s.send_iovecs.resize(kSendBatch);
  s.send_hdrs.resize(kSendBatch);
#endif

  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& registry = *options_.metrics;
    frames_per_datagram_ = &registry.histogram("dat_netio_frames_per_datagram");
    metrics_collector_ = registry.add_collector(
        [this](obs::MetricsSnapshot& out) {
          const ReactorCounters& c = stats_;
          const auto add = [&](const char* name, std::uint64_t value) {
            obs::Sample sample;
            sample.name = name;
            sample.type = obs::MetricType::kCounter;
            sample.value = static_cast<double>(value);
            out.samples.push_back(std::move(sample));
          };
          add("dat_netio_epoll_waits_total", c.epoll_waits);
          add("dat_netio_recv_syscalls_total", c.recv_syscalls);
          add("dat_netio_send_syscalls_total", c.send_syscalls);
          add("dat_netio_datagrams_in_total", c.datagrams_in);
          add("dat_netio_datagrams_out_total", c.datagrams_out);
          add("dat_netio_frames_in_total", c.frames_in);
          add("dat_netio_frames_out_total", c.frames_out);
          add("dat_netio_coalesced_datagrams_out_total",
              c.coalesced_datagrams_out);
          add("dat_netio_batch_datagrams_in_total", c.batch_datagrams_in);
          add("dat_netio_truncated_in_total", c.truncated_in);
          add("dat_netio_send_errors_total", c.send_errors);
        });
  }
}

Reactor::~Reactor() {
  if (options_.metrics != nullptr && metrics_collector_ != 0) {
    options_.metrics->remove_collector(metrics_collector_);
  }
  sockets_.clear();
  graveyard_.clear();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

std::uint64_t Reactor::now_us() const { return steady_now_us() - t0_us_; }

NetioTransport& Reactor::add_socket(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
  if (fd < 0) throw_errno("socket");
  // Best-effort: the kernel silently caps at net.core.rmem_max.
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &kSoRcvbuf, sizeof kSoRcvbuf);
  if (port != 0) {
    // A pinned port belongs to a daemon restarting in place: let the new
    // socket rebind even while the dead incarnation's socket lingers.
    const int one = 1;
    if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one) < 0) {
      ::close(fd);
      throw_errno("setsockopt(SO_REUSEADDR)");
    }
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);  // 0 → OS-assigned
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    throw_errno("bind");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    ::close(fd);
    throw_errno("getsockname");
  }
  const net::Endpoint ep = net::make_udp_endpoint(ntohl(addr.sin_addr.s_addr),
                                                  ntohs(addr.sin_port));
  const std::uint64_t reg_id = next_reg_id_++;
  std::unique_ptr<NetioTransport> transport(
      new NetioTransport(*this, fd, ep, reg_id));
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = reg_id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    throw_errno("epoll_ctl(add socket)");
  }
  NetioTransport* raw = transport.get();
  sockets_.emplace(reg_id, std::move(transport));
  reg_of_.emplace(ep, reg_id);
  return *raw;
}

void Reactor::remove_socket(net::Endpoint ep) {
  const auto rit = reg_of_.find(ep);
  if (rit == reg_of_.end()) return;
  const std::uint64_t reg_id = rit->second;
  reg_of_.erase(rit);
  const auto sit = sockets_.find(reg_id);
  if (sit == sockets_.end()) return;
  NetioTransport* t = sit->second.get();
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, t->fd_, nullptr);
  std::erase(flush_list_, t);
  // Unsent coalesced datagrams of a removed node are dropped, like the
  // in-kernel queue of a closed socket. Destruction is deferred so the
  // caller may be this very transport's handler.
  graveyard_.push_back(std::move(sit->second));
  sockets_.erase(sit);
}

void Reactor::reap_graveyard() { graveyard_.clear(); }

net::TimerId Reactor::set_timer(std::uint64_t delay_us,
                                std::function<void()> cb) {
  return wheel_.schedule(now_us() + delay_us, std::move(cb));
}

void Reactor::cancel_timer(net::TimerId id) { wheel_.cancel(id); }

// -------------------------------------------------------------- send path

void Reactor::enqueue_send(NetioTransport& t, net::Endpoint to,
                           const net::Message& msg) {
  std::vector<std::uint8_t>& frame = scratch_->encode_buf;
  msg.encode_into(frame);
  ++t.counters_.messages_sent;
  t.counters_.bytes_sent += frame.size();

  auto [it, inserted] = t.open_.try_emplace(to);
  NetioTransport::PendingDatagram& pd = it->second;
  if (pd.frames > 0) {
    // Seal the open datagram if this frame would overflow it.
    const std::size_t projected =
        pd.frames == 1
            ? net::kBatchHeaderBytes + 2 * net::kBatchFrameOverheadBytes +
                  pd.bytes.size() + frame.size()
            : pd.bytes.size() + net::kBatchFrameOverheadBytes + frame.size();
    if (projected > options_.max_datagram) {
      t.outq_.push_back(std::move(pd));
      pd = NetioTransport::PendingDatagram{};
    }
  }
  if (pd.frames == 0) {
    // A lone frame travels raw — zero container overhead until a second
    // frame for the same destination shows up.
    pd.to = to;
    pd.bytes = arena_.acquire();
    pd.bytes.assign(frame.begin(), frame.end());
    pd.frames = 1;
  } else if (pd.frames == 1) {
    std::vector<std::uint8_t> packed = arena_.acquire();
    net::begin_batch(packed);
    net::append_batch_frame(packed, pd.bytes);
    net::append_batch_frame(packed, frame);
    arena_.release(std::move(pd.bytes));
    pd.bytes = std::move(packed);
    pd.frames = 2;
  } else {
    net::append_batch_frame(pd.bytes, frame);
    ++pd.frames;
  }

  if (!t.flush_queued_) {
    t.flush_queued_ = true;
    flush_list_.push_back(&t);
  }
}

void Reactor::seal_open_datagrams(NetioTransport& t) {
  for (auto& [to, pd] : t.open_) {
    if (pd.frames > 0) t.outq_.push_back(std::move(pd));
  }
  t.open_.clear();
}

bool Reactor::send_datagram(int fd, net::Endpoint to,
                            std::span<const std::uint8_t> bytes) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(net::endpoint_ipv4(to));
  addr.sin_port = htons(net::endpoint_port(to));
  ssize_t n = 0;
  do {
    n = ::sendto(fd, bytes.data(), bytes.size(), 0,
                 reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
    ++stats_.send_syscalls;
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    // UDP is fire-and-forget; log and move on (RpcManager retries).
    const int err = errno;
    ++stats_.send_errors;
    if (scratch_->log_debug) {
      DAT_LOG_DEBUG("netio", "sendto " << net::endpoint_to_string(to)
                                       << " failed: " << errno_message(err));
    }
    return false;
  }
  return true;
}

void Reactor::flush_transport(NetioTransport& t) {
  seal_open_datagrams(t);
  t.flush_queued_ = false;
  if (t.outq_.empty()) return;
  Scratch& s = *scratch_;

  const auto account_sent = [&](const NetioTransport::PendingDatagram& dg) {
    ++stats_.datagrams_out;
    stats_.frames_out += dg.frames;
    if (dg.frames > 1) {
      ++stats_.coalesced_datagrams_out;
    }
    if (frames_per_datagram_ != nullptr) {
      frames_per_datagram_->observe(dg.frames);
    }
  };

#if DAT_NETIO_HAVE_MMSG
  if (options_.batch_syscalls) {
    std::size_t next = 0;
    while (next < t.outq_.size()) {
      const unsigned n = static_cast<unsigned>(
          std::min<std::size_t>(kSendBatch, t.outq_.size() - next));
      for (unsigned i = 0; i < n; ++i) {
        const NetioTransport::PendingDatagram& dg = t.outq_[next + i];
        sockaddr_in& addr = s.send_addrs[i];
        addr = sockaddr_in{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(net::endpoint_ipv4(dg.to));
        addr.sin_port = htons(net::endpoint_port(dg.to));
        s.send_iovecs[i] = iovec{
            const_cast<std::uint8_t*>(dg.bytes.data()), dg.bytes.size()};
        s.send_hdrs[i] = mmsghdr{};
        s.send_hdrs[i].msg_hdr.msg_name = &addr;
        s.send_hdrs[i].msg_hdr.msg_namelen = sizeof addr;
        s.send_hdrs[i].msg_hdr.msg_iov = &s.send_iovecs[i];
        s.send_hdrs[i].msg_hdr.msg_iovlen = 1;
      }
      int sent = 0;
      do {
        sent = ::sendmmsg(t.fd_, s.send_hdrs.data(), n, 0);
        ++stats_.send_syscalls;
      } while (sent < 0 && errno == EINTR);
      if (sent <= 0) {
        // The head datagram was refused; drop it and keep the rest moving.
        const int err = errno;
        ++stats_.send_errors;
        if (s.log_debug) {
          DAT_LOG_DEBUG("netio",
                        "sendmmsg to "
                            << net::endpoint_to_string(t.outq_[next].to)
                            << " failed: " << errno_message(err));
        }
        next += 1;
        continue;
      }
      for (unsigned i = 0; i < static_cast<unsigned>(sent); ++i) {
        account_sent(t.outq_[next + i]);
      }
      next += static_cast<std::size_t>(sent);
    }
    for (auto& dg : t.outq_) arena_.release(std::move(dg.bytes));
    t.outq_.clear();
    return;
  }
#endif
  // Portable fallback: one sendto per datagram (coalescing still collapses
  // frames, so this path alone already divides packet count).
  for (auto& dg : t.outq_) {
    if (send_datagram(t.fd_, dg.to, dg.bytes)) account_sent(dg);
    arena_.release(std::move(dg.bytes));
  }
  t.outq_.clear();
}

void Reactor::flush_all() {
  // flush_transport clears flush_queued_; swap first so sends enqueued by
  // error paths during the flush re-queue cleanly for the next round.
  std::vector<NetioTransport*> list;
  list.swap(flush_list_);
  for (NetioTransport* t : list) flush_transport(*t);
}

// ------------------------------------------------------------ receive path

void Reactor::handle_inbound(std::uint64_t reg_id, const sockaddr_in& from,
                             std::size_t name_len, std::size_t msg_len,
                             bool kernel_truncated, const std::uint8_t* data) {
  const auto it = sockets_.find(reg_id);
  if (it == sockets_.end()) return;
  NetioTransport& t = *it->second;
  if (name_len < sizeof(sockaddr_in) || from.sin_family != AF_INET) {
    if (scratch_->log_warn) {
      DAT_LOG_WARN("netio", "dropping datagram with non-IPv4 source address");
    }
    return;
  }
  const net::Endpoint src = net::make_udp_endpoint(
      ntohl(from.sin_addr.s_addr), ntohs(from.sin_port));
  ++stats_.datagrams_in;
  t.counters_.bytes_received += msg_len;
  if (kernel_truncated || msg_len > options_.max_datagram) {
    ++t.counters_.truncated_datagrams;
    ++stats_.truncated_in;
    if (scratch_->log_warn) {
      DAT_LOG_WARN("netio", "dropping truncated "
                                << msg_len << "-byte datagram from "
                                << net::endpoint_to_string(src)
                                << " (buffer is " << options_.max_datagram
                                << " bytes)");
    }
    return;
  }
  dispatch_datagram(reg_id, src, std::span<const std::uint8_t>(data, msg_len));
}

void Reactor::dispatch_datagram(std::uint64_t reg_id, net::Endpoint src,
                                std::span<const std::uint8_t> dgram) {
  // Between frames the registration is re-resolved: a handler may remove
  // this node (the object stays alive in the graveyard until the end of the
  // iteration, but its remaining frames must be dropped).
  const auto dispatch_frame = [&](std::span<const std::uint8_t> frame) {
    const auto it = sockets_.find(reg_id);
    if (it == sockets_.end()) return;
    NetioTransport& t = *it->second;
    net::Message::DecodeResult decoded = net::Message::try_decode(frame);
    if (!decoded.ok()) {
      ++t.counters_.decode_errors;
      if (scratch_->log_warn) {
        DAT_LOG_WARN("netio", "dropping malformed frame from "
                                  << net::endpoint_to_string(src) << ": "
                                  << decoded.error.to_string());
      }
      return;
    }
    ++t.counters_.messages_received;
    ++stats_.frames_in;
    if (t.handler_) t.handler_(src, decoded.value());
  };

  if (net::is_batch_datagram(dgram)) {
    ++stats_.batch_datagrams_in;
    const auto container_error = net::split_batch(dgram, dispatch_frame);
    if (container_error) {
      const auto it = sockets_.find(reg_id);
      if (it != sockets_.end()) ++it->second->counters_.decode_errors;
      if (scratch_->log_warn) {
        DAT_LOG_WARN("netio", "dropping malformed batch tail from "
                                  << net::endpoint_to_string(src) << ": "
                                  << container_error->to_string());
      }
    }
    return;
  }
  dispatch_frame(dgram);
}

void Reactor::drain_fd(std::uint64_t reg_id) {
  Scratch& s = *scratch_;
  for (;;) {
    const auto it = sockets_.find(reg_id);
    if (it == sockets_.end()) return;  // removed by a handler mid-drain
    const int fd = it->second->fd_;

#if DAT_NETIO_HAVE_MMSG
    if (options_.batch_syscalls) {
      constexpr unsigned batch = kRecvBatch;
      for (unsigned i = 0; i < batch; ++i) {
        s.iovecs[i] = iovec{s.bufs[i].data(), s.bufs[i].size()};
        s.hdrs[i] = mmsghdr{};
        s.hdrs[i].msg_hdr.msg_name = &s.addrs[i];
        s.hdrs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
        s.hdrs[i].msg_hdr.msg_iov = &s.iovecs[i];
        s.hdrs[i].msg_hdr.msg_iovlen = 1;
      }
      const int n = ::recvmmsg(fd, s.hdrs.data(), batch,
                               MSG_DONTWAIT | MSG_TRUNC, nullptr);
      ++stats_.recv_syscalls;
      if (n < 0) {
        const int err = errno;
        if (err == EAGAIN || err == EWOULDBLOCK) return;
        if (err == EINTR) continue;
        if (err == ECONNREFUSED) {
          // Deferred ICMP port-unreachable from an earlier send to a dead
          // peer; it does not affect this socket's ability to receive.
          continue;
        }
        if (scratch_->log_warn) {
          DAT_LOG_WARN("netio", "recvmmsg failed: " << errno_message(err));
        }
        return;
      }
      for (int i = 0; i < n; ++i) {
        handle_inbound(reg_id, s.addrs[i], s.hdrs[i].msg_hdr.msg_namelen,
                       s.hdrs[i].msg_len,
                       (s.hdrs[i].msg_hdr.msg_flags & MSG_TRUNC) != 0,
                       s.bufs[i].data());
      }
      if (n < static_cast<int>(batch)) return;  // socket drained
      continue;
    }
#endif
    // Portable fallback: one recvfrom per datagram.
    sockaddr_in from{};
    socklen_t from_len = sizeof from;
    const ssize_t n =
        ::recvfrom(fd, s.bufs[0].data(), s.bufs[0].size(),
                   MSG_DONTWAIT | MSG_TRUNC,
                   reinterpret_cast<sockaddr*>(&from), &from_len);
    ++stats_.recv_syscalls;
    if (n < 0) {
      const int err = errno;
      if (err == EAGAIN || err == EWOULDBLOCK) return;
      if (err == EINTR || err == ECONNREFUSED) continue;
      if (scratch_->log_warn) {
        DAT_LOG_WARN("netio", "recvfrom failed: " << errno_message(err));
      }
      return;
    }
    handle_inbound(reg_id, from, from_len, static_cast<std::size_t>(n),
                   static_cast<std::size_t>(n) > s.bufs[0].size(),
                   s.bufs[0].data());
  }
}

// -------------------------------------------------------------- event loop

void Reactor::poll_once(std::uint64_t max_wait_us) {
  // Refresh the cached log gates once per iteration instead of per datagram.
  scratch_->log_debug = Logger::instance().enabled(LogLevel::kDebug);
  scratch_->log_warn = Logger::instance().enabled(LogLevel::kWarn);
  // Sends made between iterations leave before the loop parks in epoll.
  flush_all();
  reap_graveyard();

  // Timers run only after the sockets are read: a timer that came due
  // while the loop was stalled must see the datagrams that queued in the
  // same stall (a parent's epoch firing before its children's queued
  // updates would time every child out). An overdue timer therefore turns
  // the wait into a non-blocking poll rather than running first.
  int timeout_ms = 0;
  if (!wheel_.has_due(now_us())) {
    std::uint64_t wait_us = max_wait_us;
    if (!wheel_.empty()) {
      // Bound the sleep to one wheel tick so due timers are observed with
      // at most a tick of slack.
      wait_us = std::min(wait_us, kTimerTickUs);
    }
    timeout_ms =
        static_cast<int>(std::min<std::uint64_t>(wait_us / 1000 + 1, 100));
  }

  epoll_event events[kMaxEpollEvents];
  const int ready =
      ::epoll_wait(epoll_fd_, events, kMaxEpollEvents, timeout_ms);
  ++stats_.epoll_waits;
  if (ready < 0) {
    if (errno == EINTR) return;
    throw_errno("epoll_wait");
  }
  for (int i = 0; i < ready; ++i) drain_fd(events[i].data.u64);
  wheel_.advance(now_us());
  flush_all();
  reap_graveyard();
}

}  // namespace dat::netio
