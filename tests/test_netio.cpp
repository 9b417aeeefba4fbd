// The netio subsystem itself: timer wheel, buffer arena, batch frame
// container, coalesced send/decode, kernel truncation, receive-before-timer
// ordering and the reactor's exported metrics.

#include "netio/reactor.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/frame.hpp"
#include "net/rpc.hpp"
#include "netio/buffer_arena.hpp"
#include "netio/netio_network.hpp"
#include "netio/timer_wheel.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace dat;
using namespace dat::netio;

net::Message one_way(std::string method, std::vector<std::uint8_t> body = {}) {
  net::Message msg;
  msg.method = std::move(method);
  msg.kind = net::MessageKind::kOneWay;
  msg.body = std::move(body);
  return msg;
}

// ----------------------------------------------------------- timer wheel

TEST(TimerWheelTest, FiresInDeadlineOrderAcrossSlots) {
  TimerWheel wheel(1'000, 8);  // tiny wheel: 60ms spans many revolutions
  std::vector<int> order;
  wheel.schedule(60'000, [&] { order.push_back(3); });
  wheel.schedule(5'000, [&] { order.push_back(1); });
  wheel.schedule(20'000, [&] { order.push_back(2); });
  wheel.advance(100'000);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, FutureRevolutionStaysParked) {
  TimerWheel wheel(1'000, 8);
  bool fired = false;
  wheel.schedule(9'500, [&] { fired = true; });  // slot collides with tick 1
  wheel.advance(2'000);
  EXPECT_FALSE(fired);  // visited its slot one revolution early
  wheel.advance(9'000);
  EXPECT_FALSE(fired);
  wheel.advance(10'000);
  EXPECT_TRUE(fired);
}

TEST(TimerWheelTest, CancelledEntryNeverFires) {
  TimerWheel wheel(1'000, 64);
  bool fired = false;
  const net::TimerId id = wheel.schedule(5'000, [&] { fired = true; });
  wheel.cancel(id);
  wheel.advance(50'000);
  EXPECT_FALSE(fired);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, CallbackMayCancelALaterEntryInTheSameBatch) {
  TimerWheel wheel(1'000, 64);
  bool second_fired = false;
  net::TimerId second = 0;
  second = wheel.schedule(6'000, [&] { second_fired = true; });
  wheel.schedule(5'000, [&] { wheel.cancel(second); });
  wheel.advance(50'000);  // both entries are due in this single advance
  EXPECT_FALSE(second_fired);
}

TEST(TimerWheelTest, PastDeadlineFiresOnNextAdvance) {
  TimerWheel wheel(1'000, 64);
  wheel.advance(30'000);
  bool fired = false;
  wheel.schedule(10'000, [&] { fired = true; });  // already in the past
  wheel.advance(31'000);
  EXPECT_TRUE(fired);
}

// --------------------------------------------------------- buffer arena

TEST(BufferArenaTest, RecyclesInsteadOfReallocating) {
  BufferArena arena(1024);
  auto a = arena.acquire();
  auto b = arena.acquire();
  EXPECT_EQ(arena.allocated(), 2u);
  a.push_back(7);
  arena.release(std::move(a));
  arena.release(std::move(b));
  EXPECT_EQ(arena.pooled(), 2u);
  auto c = arena.acquire();
  EXPECT_TRUE(c.empty());  // recycled buffers come back cleared
  EXPECT_GE(c.capacity(), 1024u);
  EXPECT_EQ(arena.allocated(), 2u);  // no new allocation
}

// ------------------------------------------------------- batch container

TEST(BatchFrameTest, RoundTripsMultipleFrames) {
  const std::vector<std::uint8_t> f1 = one_way("a").encode();
  const std::vector<std::uint8_t> f2 = one_way("bb", {9, 9}).encode();
  std::vector<std::uint8_t> batch;
  net::begin_batch(batch);
  net::append_batch_frame(batch, f1);
  net::append_batch_frame(batch, f2);
  ASSERT_TRUE(net::is_batch_datagram(batch));
  // A single raw frame must never look like a batch (its first byte is a
  // MessageKind, far from the 0xB7 magic).
  EXPECT_FALSE(net::is_batch_datagram(f1));

  std::vector<std::vector<std::uint8_t>> frames;
  const auto error = net::split_batch(
      batch, [&](std::span<const std::uint8_t> frame) {
        frames.emplace_back(frame.begin(), frame.end());
      });
  EXPECT_FALSE(error.has_value());
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], f1);
  EXPECT_EQ(frames[1], f2);
}

TEST(BatchFrameTest, TruncatedTailReportsErrorButKeepsEarlierFrames) {
  const std::vector<std::uint8_t> f1 = one_way("ok").encode();
  const std::vector<std::uint8_t> f2 = one_way("cut").encode();
  std::vector<std::uint8_t> batch;
  net::begin_batch(batch);
  net::append_batch_frame(batch, f1);
  net::append_batch_frame(batch, f2);
  batch.resize(batch.size() - 3);  // chop into the last frame
  int delivered = 0;
  const auto error = net::split_batch(
      batch, [&](std::span<const std::uint8_t>) { ++delivered; });
  EXPECT_EQ(delivered, 1);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, net::DecodeErrorCode::kTruncated);
}

// ------------------------------------------------------ inline reactor

TEST(NetioNetworkTest, CoalescesAWaveIntoFewerDatagrams) {
  NetioNetwork network;
  auto& a = network.add_node();
  auto& b = network.add_node();
  int received = 0;
  b.set_receive_handler([&](net::Endpoint, const net::Message&) {
    ++received;
  });
  constexpr int kWave = 10;
  // All sends happen before the next poll, like a DAT node emitting its
  // child updates in one epoch timer: the coalescer packs them into one
  // batch datagram for the shared destination.
  for (int i = 0; i < kWave; ++i) a.send(b.local(), one_way("update"));
  ASSERT_TRUE(
      network.run_while([&] { return received < kWave; }, 2'000'000));
  EXPECT_EQ(received, kWave);
  const ReactorCounters counters = network.reactor().counters();
  EXPECT_EQ(counters.frames_out, static_cast<std::uint64_t>(kWave));
  EXPECT_LT(counters.datagrams_out, static_cast<std::uint64_t>(kWave));
  EXPECT_GE(counters.coalesced_datagrams_out, 1u);
  EXPECT_EQ(counters.batch_datagrams_in, counters.coalesced_datagrams_out);
}

TEST(NetioNetworkTest, RpcRoundTripOverReactor) {
  NetioNetwork network;
  auto& ta = network.add_node();
  auto& tb = network.add_node();
  net::RpcManager client(ta);
  net::RpcManager server(tb);
  server.register_method(
      "add", [](net::Endpoint, net::Reader& req, net::Writer& reply) {
        reply.u64(req.u64() + req.u64());
      });
  std::uint64_t result = 0;
  net::Writer body;
  body.u64(20);
  body.u64(22);
  client.call(tb.local(), "add", body,
              [&](net::RpcStatus s, net::Reader& r) {
                ASSERT_EQ(s, net::RpcStatus::kOk);
                result = r.u64();
              });
  ASSERT_TRUE(network.run_while([&] { return result == 0; }, 2'000'000));
  EXPECT_EQ(result, 42u);
}

TEST(NetioNetworkTest, KernelTruncationIsCountedAndDropped) {
  ReactorOptions options;
  options.max_datagram = 512;  // shrink so a legal UDP payload truncates
  NetioNetwork network(options);
  auto& a = network.add_node();
  auto& b = network.add_node();
  int received = 0;
  std::string last;
  b.set_receive_handler([&](net::Endpoint, const net::Message& m) {
    ++received;
    last = m.method;
  });
  a.send(b.local(), one_way("big", std::vector<std::uint8_t>(2'000)));
  a.send(b.local(), one_way("small"));
  ASSERT_TRUE(network.run_while([&] { return last != "small"; }, 2'000'000));
  EXPECT_EQ(received, 1);  // the oversized datagram was dropped, not decoded
  EXPECT_EQ(b.counters().truncated_datagrams, 1u);
  EXPECT_EQ(b.counters().decode_errors, 0u);
  EXPECT_EQ(network.reactor().counters().truncated_in, 1u);
}

TEST(NetioNetworkTest, QueuedDatagramsRunBeforeOverdueTimers) {
  // A loop that stalls past a timer deadline must still read the datagrams
  // that queued during the stall before it runs the timer: a DAT parent's
  // epoch would otherwise fire while every child update still sits in the
  // socket buffer, and the children would look expired.
  NetioNetwork sender_net;
  NetioNetwork receiver_net;
  auto& sender = sender_net.add_node();
  auto& receiver = receiver_net.add_node();
  std::vector<std::string> order;
  receiver.set_receive_handler(
      [&](net::Endpoint, const net::Message&) { order.emplace_back("recv"); });
  receiver.set_timer(5'000, [&] { order.emplace_back("timer"); });

  sender.send(receiver.local(), one_way("update"));
  sender_net.reactor().poll_once(0);  // flush the datagram onto the wire
  ASSERT_EQ(sender_net.reactor().counters().datagrams_out, 1u);

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  receiver_net.reactor().poll_once(0);
  EXPECT_EQ(order, (std::vector<std::string>{"recv", "timer"}));
}
TEST(NetioNetworkTest, MmsgKnobFallsBackCleanly) {
  // Whatever the platform compiled in, the portable path must deliver.
  ReactorOptions options;
  options.batch_syscalls = false;
  NetioNetwork network(options);
  auto& a = network.add_node();
  auto& b = network.add_node();
  int received = 0;
  b.set_receive_handler(
      [&](net::Endpoint, const net::Message&) { ++received; });
  for (int i = 0; i < 4; ++i) a.send(b.local(), one_way("plain"));
  ASSERT_TRUE(network.run_while([&] { return received < 4; }, 2'000'000));
  const ReactorCounters counters = network.reactor().counters();
  EXPECT_GE(counters.coalesced_datagrams_out, 1u);  // coalescing still on
}

TEST(NetioNetworkTest, ExportedMetricsEqualTheCounters) {
  obs::MetricsRegistry registry;
  NetioNetwork network(ReactorOptions{.max_datagram = 512,
                                      .metrics = &registry});
  auto& a = network.add_node();
  auto& b = network.add_node();
  int received = 0;
  b.set_receive_handler(
      [&](net::Endpoint, const net::Message&) { ++received; });
  a.set_receive_handler(
      [&](net::Endpoint, const net::Message&) { ++received; });
  // A coalesced wave, a lone raw frame back, and one datagram over the
  // receive buffer, so the batch, raw and truncation counters all move.
  constexpr int kWave = 12;
  for (int i = 0; i < kWave; ++i) a.send(b.local(), one_way("update"));
  b.send(a.local(), one_way("ack"));
  a.send(b.local(), one_way("big", std::vector<std::uint8_t>(2'000)));
  ASSERT_TRUE(network.run_while(
      [&] {
        return received < kWave + 1 ||
               network.reactor().counters().truncated_in == 0;
      },
      2'000'000));

  const ReactorCounters c = network.reactor().counters();
  ASSERT_EQ(c.truncated_in, 1u);
  ASSERT_GE(c.coalesced_datagrams_out, 1u);
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  const std::vector<std::pair<std::string, std::uint64_t>> expected = {
      {"dat_netio_epoll_waits_total", c.epoll_waits},
      {"dat_netio_recv_syscalls_total", c.recv_syscalls},
      {"dat_netio_send_syscalls_total", c.send_syscalls},
      {"dat_netio_datagrams_in_total", c.datagrams_in},
      {"dat_netio_datagrams_out_total", c.datagrams_out},
      {"dat_netio_frames_in_total", c.frames_in},
      {"dat_netio_frames_out_total", c.frames_out},
      {"dat_netio_coalesced_datagrams_out_total", c.coalesced_datagrams_out},
      {"dat_netio_batch_datagrams_in_total", c.batch_datagrams_in},
      {"dat_netio_truncated_in_total", c.truncated_in},
      {"dat_netio_send_errors_total", c.send_errors},
  };
  for (const auto& [name, value] : expected) {
    const obs::Sample* sample = snapshot.find(name);
    ASSERT_NE(sample, nullptr) << name;
    EXPECT_EQ(sample->type, obs::MetricType::kCounter) << name;
    EXPECT_EQ(sample->value, static_cast<double>(value)) << name;
  }

  std::size_t netio_counters = 0;
  for (const obs::Sample& sample : snapshot.samples) {
    if (!sample.name.starts_with("dat_netio_")) continue;
    for (const auto& [key, value] : sample.labels) {
      EXPECT_NE(key, "shard") << sample.name;
    }
    if (sample.name.ends_with("_total")) ++netio_counters;
  }
  EXPECT_EQ(netio_counters, expected.size());  // no series beyond the fields

  const obs::Sample* batch_sizes =
      snapshot.find("dat_netio_frames_per_datagram");
  ASSERT_NE(batch_sizes, nullptr);
  EXPECT_EQ(batch_sizes->type, obs::MetricType::kHistogram);
  EXPECT_EQ(batch_sizes->count, c.datagrams_out);
  EXPECT_EQ(batch_sizes->sum, c.frames_out);
}

TEST(ReactorTest, MmsgCompileStateIsReported) {
  // Smoke-check the configure-time detection is wired through; on Linux CI
  // this is true, and the portable fallback is covered above either way.
  (void)mmsg_compiled();
}

}  // namespace
