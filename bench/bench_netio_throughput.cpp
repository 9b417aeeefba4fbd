// Throughput of the netio epoll reactor on the paper's loopback testbed
// shape: 64 live instances in one process, on one NetioNetwork pumped
// inline, each holding a window of echo RPCs against its ring neighbor.
// Reports msgs/sec, syscalls/msg and p50/p99 RPC latency for two rows, both
// with write coalescing: netio-batched (recvmmsg/sendmmsg) and
// netio-portable (one recvfrom/sendto per datagram), then writes the table
// to BENCH_netio.json (see bench/json_out.hpp).
//
// Usage: bench_netio_throughput [--quick] [--nodes N] [--seconds S]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "json_out.hpp"
#include "net/rpc.hpp"
#include "netio/netio_network.hpp"

namespace {

using namespace dat;

struct NodeCtx {
  net::Transport* transport = nullptr;
  std::unique_ptr<net::RpcManager> rpc;
  net::Endpoint peer = net::kNullEndpoint;
  std::uint64_t completed = 0;
  std::vector<std::uint64_t> latencies_us;
};

struct RunResult {
  std::string name;
  bool batch_syscalls = false;
  double elapsed_s = 0;
  std::uint64_t completed = 0;   ///< echo round trips in the window
  double msgs_per_sec = 0;       ///< request+response frames per second
  double syscalls_per_msg = 0;
  double p50_us = 0;
  double p99_us = 0;
  std::uint64_t syscalls = 0;
  std::uint64_t datagrams_out = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t coalesced_datagrams_out = 0;
};

net::RpcOptions bench_rpc_options() {
  net::RpcOptions options;
  options.timeout_us = 5'000'000;  // loopback: losses are scheduler stalls
  options.attempts = 1;            // no retransmissions polluting the counts
  return options;
}

/// Issues one echo call and re-issues from its completion, keeping the
/// node's window full until `stop` is raised.
void issue(NodeCtx& ctx, const bool& stop) {
  const std::uint64_t start = ctx.transport->now_us();
  net::Writer body;
  body.u64(start);
  ctx.rpc->call(
      ctx.peer, "echo", body,
      [&ctx, &stop, start](net::RpcStatus status, net::Reader&) {
        if (stop) return;
        if (status == net::RpcStatus::kOk) {
          ctx.latencies_us.push_back(ctx.transport->now_us() - start);
          ++ctx.completed;
        }
        issue(ctx, stop);
      },
      bench_rpc_options());
}

std::vector<std::unique_ptr<NodeCtx>> make_ring(
    const std::vector<net::Transport*>& transports) {
  std::vector<std::unique_ptr<NodeCtx>> ctxs;
  ctxs.reserve(transports.size());
  for (net::Transport* t : transports) {
    auto ctx = std::make_unique<NodeCtx>();
    ctx->transport = t;
    ctx->rpc = std::make_unique<net::RpcManager>(*t);
    ctx->rpc->register_method(
        "echo", [](net::Endpoint, net::Reader& req, net::Writer& reply) {
          reply.u64(req.u64());
        });
    ctx->latencies_us.reserve(1 << 16);
    ctxs.push_back(std::move(ctx));
  }
  for (std::size_t i = 0; i < ctxs.size(); ++i) {
    ctxs[i]->peer = transports[(i + 1) % transports.size()]->local();
  }
  return ctxs;
}

RunResult run_netio(const char* name, bool batch_syscalls, std::size_t nodes,
                    unsigned window, std::uint64_t duration_us) {
  RunResult result;
  result.name = name;
  result.batch_syscalls = batch_syscalls;

  netio::NetioNetwork network(
      netio::ReactorOptions{.batch_syscalls = batch_syscalls});
  std::vector<net::Transport*> transports;
  transports.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    transports.push_back(&network.add_node());
  }
  auto ctxs = make_ring(transports);

  bool stop = false;
  for (auto& ctx : ctxs) {
    for (unsigned w = 0; w < window; ++w) issue(*ctx, stop);
  }
  const netio::ReactorCounters before = network.reactor().counters();
  const std::uint64_t t0 = network.now_us();
  network.run_for(duration_us);
  const std::uint64_t elapsed_us = network.now_us() - t0;
  const netio::ReactorCounters after = network.reactor().counters();
  stop = true;

  result.elapsed_s = static_cast<double>(elapsed_us) / 1e6;
  result.datagrams_out = after.datagrams_out - before.datagrams_out;
  result.frames_out = after.frames_out - before.frames_out;
  result.coalesced_datagrams_out =
      after.coalesced_datagrams_out - before.coalesced_datagrams_out;
  result.syscalls = (after.epoll_waits - before.epoll_waits) +
                    (after.recv_syscalls - before.recv_syscalls) +
                    (after.send_syscalls - before.send_syscalls);

  std::vector<std::uint64_t> latencies;
  for (const auto& ctx : ctxs) {
    result.completed += ctx->completed;
    latencies.insert(latencies.end(), ctx->latencies_us.begin(),
                     ctx->latencies_us.end());
  }
  const double msgs = 2.0 * static_cast<double>(result.completed);  // req+resp
  result.msgs_per_sec = result.elapsed_s > 0 ? msgs / result.elapsed_s : 0;
  result.syscalls_per_msg =
      msgs > 0 ? static_cast<double>(result.syscalls) / msgs : 0;
  std::sort(latencies.begin(), latencies.end());
  if (!latencies.empty()) {
    result.p50_us = static_cast<double>(latencies[latencies.size() / 2]);
    result.p99_us =
        static_cast<double>(latencies[latencies.size() * 99 / 100]);
  }
  return result;
}

void print_row(const RunResult& r) {
  std::printf("%-16s %12.0f msgs/s  %6.2f syscalls/msg  p50 %7.0f us  "
              "p99 %7.0f us  (%llu round trips)\n",
              r.name.c_str(), r.msgs_per_sec, r.syscalls_per_msg, r.p50_us,
              r.p99_us, static_cast<unsigned long long>(r.completed));
}

benchjson::Object to_json(const RunResult& r) {
  benchjson::Object o;
  o.put("name", r.name)
      .put("batch_syscalls", r.batch_syscalls)
      .put("elapsed_s", r.elapsed_s)
      .put("round_trips", r.completed)
      .put("msgs_per_sec", r.msgs_per_sec)
      .put("syscalls_per_msg", r.syscalls_per_msg)
      .put("p50_us", r.p50_us)
      .put("p99_us", r.p99_us)
      .put("syscalls", r.syscalls)
      .put("datagrams_out", r.datagrams_out)
      .put("frames_out", r.frames_out)
      .put("coalesced_datagrams_out", r.coalesced_datagrams_out);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t nodes = 64;
  double seconds = 2.0;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      nodes = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      seconds = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--nodes N] [--seconds S]\n", argv[0]);
      return 2;
    }
  }
  if (quick) seconds = std::min(seconds, 0.4);
  const auto duration_us = static_cast<std::uint64_t>(seconds * 1e6);
  constexpr unsigned kWindow = 16;

  std::printf("netio throughput: %zu nodes, window %u, %.1fs per row, "
              "mmsg %s\n\n",
              nodes, kWindow, seconds,
              netio::mmsg_compiled() ? "compiled" : "unavailable");

  std::vector<benchjson::Object> rows;
  for (const auto& [name, batch] :
       {std::pair{"netio-batched", true}, std::pair{"netio-portable", false}}) {
    const RunResult r = run_netio(name, batch, nodes, kWindow, duration_us);
    print_row(r);
    rows.push_back(to_json(r));
  }

  benchjson::Object config;
  config.put("nodes", static_cast<std::uint64_t>(nodes))
      .put("window", kWindow)
      .put("seconds_per_row", seconds)
      .put("quick", quick)
      .put("mmsg_compiled", netio::mmsg_compiled());
  benchjson::Object root;
  root.put("suite", "netio_throughput")
      .put("config", config)
      .put("results", rows);
  const std::string path = benchjson::write_suite("netio", root);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
