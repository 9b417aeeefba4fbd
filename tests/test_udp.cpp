// UDP sockets on the netio network and a small real-socket overlay on
// loopback. Wall-clock bounded: kept to a handful of nodes so the whole file
// runs in seconds.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "chord/node.hpp"
#include "net/rpc.hpp"
#include "netio/netio_network.hpp"

namespace {

using namespace dat;
using namespace dat::net;
using netio::NetioNetwork;

TEST(UdpEndpoint, PackUnpack) {
  const Endpoint ep = make_udp_endpoint(0x7F000001, 8080);
  EXPECT_EQ(endpoint_ipv4(ep), 0x7F000001u);
  EXPECT_EQ(endpoint_port(ep), 8080u);
  EXPECT_EQ(endpoint_to_string(ep), "127.0.0.1:8080");
  EXPECT_NE(ep, kNullEndpoint);
}

TEST(UdpNetworkTest, BindsDistinctLoopbackPorts) {
  NetioNetwork network;
  auto& a = network.add_node();
  auto& b = network.add_node();
  EXPECT_NE(a.local(), b.local());
  EXPECT_EQ(endpoint_ipv4(a.local()), 0x7F000001u);
  EXPECT_NE(endpoint_port(a.local()), 0u);
}

TEST(UdpNetworkTest, DatagramRoundTrip) {
  NetioNetwork network;
  auto& a = network.add_node();
  auto& b = network.add_node();
  std::string got;
  Endpoint from = kNullEndpoint;
  b.set_receive_handler([&](Endpoint src, const Message& m) {
    from = src;
    got = m.method;
  });
  Message msg;
  msg.method = "hello";
  msg.kind = MessageKind::kOneWay;
  a.send(b.local(), msg);
  network.run_while([&] { return got.empty(); }, 2'000'000);
  EXPECT_EQ(got, "hello");
  EXPECT_EQ(from, a.local());
  EXPECT_EQ(a.counters().messages_sent, 1u);
  EXPECT_EQ(b.counters().messages_received, 1u);
}

TEST(UdpNetworkTest, TimersFireRoughlyOnTime) {
  NetioNetwork network;
  auto& a = network.add_node();
  bool fired = false;
  std::uint64_t at = 0;
  const std::uint64_t start = network.now_us();
  a.set_timer(50'000, [&] {
    fired = true;
    at = network.now_us();
  });
  network.run_while([&] { return !fired; }, 2'000'000);
  ASSERT_TRUE(fired);
  EXPECT_GE(at - start, 49'000u);
  EXPECT_LE(at - start, 500'000u);  // generous: CI machines stall
}

TEST(UdpNetworkTest, CancelledTimerDoesNotFire) {
  NetioNetwork network;
  auto& a = network.add_node();
  bool fired = false;
  const auto id = a.set_timer(30'000, [&] { fired = true; });
  a.cancel_timer(id);
  network.run_for(80'000);
  EXPECT_FALSE(fired);
}

TEST(UdpNetworkTest, RpcOverRealSockets) {
  NetioNetwork network;
  auto& ta = network.add_node();
  auto& tb = network.add_node();
  RpcManager client(ta);
  RpcManager server(tb);
  server.register_method("add", [](Endpoint, Reader& req, Writer& reply) {
    reply.u64(req.u64() + req.u64());
  });
  std::uint64_t result = 0;
  Writer body;
  body.u64(20);
  body.u64(22);
  client.call(tb.local(), "add", body, [&](RpcStatus s, Reader& r) {
    ASSERT_EQ(s, RpcStatus::kOk);
    result = r.u64();
  });
  network.run_while([&] { return result == 0; }, 2'000'000);
  EXPECT_EQ(result, 42u);
}

TEST(UdpNetworkTest, RpcTimeoutAgainstClosedPort) {
  NetioNetwork network;
  auto& ta = network.add_node();
  auto& dead = network.add_node();
  const Endpoint dead_ep = dead.local();
  network.remove_node(dead_ep);  // port closed; datagrams vanish (ICMP aside)

  RpcManager client(ta);
  RpcOptions options;
  options.timeout_us = 50'000;
  options.attempts = 2;
  RpcStatus status = RpcStatus::kOk;
  bool done = false;
  client.call(dead_ep, "ping", Writer{},
              [&](RpcStatus s, Reader&) {
                status = s;
                done = true;
              },
              options);
  network.run_while([&] { return !done; }, 3'000'000);
  ASSERT_TRUE(done);
  EXPECT_EQ(status, RpcStatus::kTimeout);
}

TEST(UdpChord, SmallRingFormsOverLoopback) {
  constexpr std::size_t kNodes = 5;
  const IdSpace space(24);
  NetioNetwork network;
  chord::NodeOptions options;
  options.stabilize_interval_us = 30'000;
  options.fix_fingers_interval_us = 10'000;
  options.rpc.timeout_us = 150'000;

  std::vector<std::unique_ptr<chord::Node>> nodes;
  auto& first = network.add_node();
  nodes.push_back(std::make_unique<chord::Node>(space, first, options, 1));
  nodes.front()->create();
  for (std::size_t i = 1; i < kNodes; ++i) {
    auto& transport = network.add_node();
    nodes.push_back(
        std::make_unique<chord::Node>(space, transport, options, 10 + i));
    bool joined = false;
    nodes.back()->join(first.local(), [&](bool ok) { joined = ok; });
    ASSERT_TRUE(network.run_while([&] { return !joined; }, 5'000'000))
        << "join " << i << " timed out";
  }
  // Wait for convergence against the ground-truth ring.
  std::vector<Id> ids;
  for (const auto& node : nodes) ids.push_back(node->id());
  const chord::RingView ring(space, ids);
  const bool converged = network.run_while(
      [&] {
        for (const auto& node : nodes) {
          if (!node->converged_against(ring)) return true;
        }
        return false;
      },
      20'000'000);
  EXPECT_TRUE(converged);

  // A lookup from each node lands on the ground-truth successor.
  const Id key = 0x123456;
  const Id expected = ring.successor(key);
  for (const auto& node : nodes) {
    chord::NodeRef found;
    bool done = false;
    node->find_successor(key, [&](RpcStatus s, chord::NodeRef n) {
      done = true;
      ASSERT_EQ(s, RpcStatus::kOk);
      found = n;
    });
    network.run_while([&] { return !done; }, 5'000'000);
    EXPECT_EQ(found.id, expected);
  }
  for (auto& node : nodes) node->leave();
}

}  // namespace
