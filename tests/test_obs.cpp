// Tests of the obs telemetry layer: registry semantics and thread safety,
// log2 histogram bucket boundaries, snapshot roll-up algebra, the
// flight-recorder span ring, trace propagation through the RPC wire
// extension (including old<->new frame compatibility), the exporters, and
// an end-to-end acceptance test that exports one aggregation wave climbing
// the sim-cluster DAT tree as Chrome trace-event JSON and validates the
// span chain against the tree's ground-truth edges.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "harness/sim_cluster.hpp"
#include "net/rpc.hpp"
#include "net/sim_transport.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace {

using namespace dat;

// -- metrics registry --------------------------------------------------------

TEST(MetricsRegistryTest, CounterGaugeHistogramBasics) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("events_total");
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);

  obs::Gauge& g = reg.gauge("depth");
  g.set(7);
  g.add(-3);
  EXPECT_EQ(g.value(), 4);

  obs::Histogram& h = reg.histogram("latency_us");
  h.observe(100);
  h.observe(200);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.sum(), 300u);
}

TEST(MetricsRegistryTest, FindOrCreateReturnsSameInstrument) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("x_total", {{"node", "1"}});
  obs::Counter& b = reg.counter("x_total", {{"node", "1"}});
  obs::Counter& other = reg.counter("x_total", {{"node", "2"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
  // Label order must not matter.
  obs::Counter& ab = reg.counter("y_total", {{"a", "1"}, {"b", "2"}});
  obs::Counter& ba = reg.counter("y_total", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&ab, &ba);
}

TEST(MetricsRegistryTest, TypeMismatchThrows) {
  obs::MetricsRegistry reg;
  reg.counter("thing");
  EXPECT_THROW(reg.gauge("thing"), std::logic_error);
  EXPECT_THROW(reg.histogram("thing"), std::logic_error);
}

TEST(MetricsRegistryTest, CollectorsContributeAtSnapshotTime) {
  obs::MetricsRegistry reg;
  std::uint64_t external = 5;
  const std::uint64_t id = reg.add_collector([&](obs::MetricsSnapshot& out) {
    obs::Sample s;
    s.name = "external_total";
    s.value = static_cast<double>(external);
    out.samples.push_back(std::move(s));
  });
  EXPECT_DOUBLE_EQ(reg.snapshot().value_or_zero("external_total"), 5.0);
  external = 9;
  EXPECT_DOUBLE_EQ(reg.snapshot().value_or_zero("external_total"), 9.0);
  reg.remove_collector(id);
  EXPECT_EQ(reg.snapshot().find("external_total"), nullptr);
}

// TSan-targeted: concurrent increments on shared instruments, racing
// instrument creation and snapshots. Totals must come out exact.
TEST(MetricsRegistryTest, ConcurrentIncrementsAndSnapshots) {
  obs::MetricsRegistry reg;
  obs::Counter& shared = reg.counter("shared_total");
  obs::Histogram& hist = reg.histogram("shared_hist");
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      obs::Counter& own =
          reg.counter("per_thread_total", {{"t", std::to_string(t)}});
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        shared.inc();
        own.inc();
        hist.observe(i & 0xfff);
        if ((i & 0x3fff) == 0) {
          (void)reg.snapshot();  // racing reads must be clean
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(shared.value(), kThreads * kPerThread);
  EXPECT_EQ(hist.count(), kThreads * kPerThread);
  const obs::MetricsSnapshot snap = reg.snapshot();
  double per_thread_sum = 0;
  for (const obs::Sample& s : snap.samples) {
    if (s.name == "per_thread_total") per_thread_sum += s.value;
  }
  EXPECT_DOUBLE_EQ(per_thread_sum, kThreads * kPerThread);
}

// -- histogram bucket boundaries ---------------------------------------------

TEST(HistogramTest, BucketBoundaries) {
  using H = obs::Histogram;
  EXPECT_EQ(H::bucket_index(0), 0u);
  EXPECT_EQ(H::bucket_index(1), 0u);
  EXPECT_EQ(H::bucket_index(2), 1u);
  EXPECT_EQ(H::bucket_index(3), 2u);
  for (std::size_t k = 2; k < 63; ++k) {
    const std::uint64_t p = std::uint64_t{1} << k;
    EXPECT_EQ(H::bucket_index(p), k) << "2^" << k;
    EXPECT_EQ(H::bucket_index(p - 1), k) << "2^" << k << " - 1";
    EXPECT_EQ(H::bucket_index(p + 1), k + 1) << "2^" << k << " + 1";
  }
  // Values above 2^63 land in the +Inf bucket (index 64).
  EXPECT_EQ(H::bucket_index(std::uint64_t{1} << 63), 63u);
  EXPECT_EQ(H::bucket_index((std::uint64_t{1} << 63) + 1), 64u);
  EXPECT_EQ(H::bucket_index(~std::uint64_t{0}), 64u);
  static_assert(H::kBuckets == 65);
  EXPECT_EQ(H::bucket_upper(0), 1u);
  EXPECT_EQ(H::bucket_upper(10), 1024u);
}

TEST(HistogramTest, ObserveCountsIntoTheRightBucket) {
  obs::Histogram h;
  h.observe(0);
  h.observe(1);
  h.observe(2);
  h.observe(1024);
  h.observe(1025);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(10), 1u);
  EXPECT_EQ(h.bucket_count(11), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 2052u);
}

// -- snapshot roll-up algebra ------------------------------------------------

TEST(MetricsSnapshotTest, MergeWithLabelAndRollup) {
  obs::MetricsRegistry node0;
  obs::MetricsRegistry node1;
  node0.counter("updates_total").inc(3);
  node1.counter("updates_total").inc(4);
  node0.histogram("hops").observe(2);
  node1.histogram("hops").observe(5);

  obs::MetricsSnapshot cluster;
  cluster.merge(node0.snapshot().with_label("node", "0"));
  cluster.merge(node1.snapshot().with_label("node", "1"));

  const obs::Sample* s0 = cluster.find("updates_total", {{"node", "0"}});
  ASSERT_NE(s0, nullptr);
  EXPECT_DOUBLE_EQ(s0->value, 3.0);

  const obs::MetricsSnapshot total = cluster.rollup("node");
  const obs::Sample* all = total.find("updates_total");
  ASSERT_NE(all, nullptr);
  EXPECT_TRUE(all->labels.empty());
  EXPECT_DOUBLE_EQ(all->value, 7.0);
  const obs::Sample* hops = total.find("hops");
  ASSERT_NE(hops, nullptr);
  EXPECT_EQ(hops->count, 2u);
  EXPECT_EQ(hops->sum, 7u);

  // Fleet scale: many labelled snapshots sharing (name, labels) keys, merged
  // twice over. Every series must sum exactly once per input and keep the
  // order of its first appearance — what a linear-search merge produces.
  constexpr int kNodes = 64;
  constexpr int kKeys = 16;
  obs::MetricsSnapshot fleet;
  std::vector<obs::Sample> expected;
  for (int pass = 0; pass < 2; ++pass) {
    for (int n = 0; n < kNodes; ++n) {
      obs::MetricsRegistry reg;
      for (int k = 0; k < kKeys; ++k) {
        reg.counter("msgs_total", {{"key", std::to_string(k)}}).inc(n + 1);
        reg.histogram("lat_us", {{"key", std::to_string(k)}}).observe(n);
      }
      const obs::MetricsSnapshot part =
          reg.snapshot().with_label("rack", std::to_string(n % 4));
      fleet.merge(part);
      for (const obs::Sample& in : part.samples) {
        const auto it = std::find_if(
            expected.begin(), expected.end(), [&](const obs::Sample& e) {
              return e.name == in.name && e.type == in.type &&
                     e.labels == in.labels;
            });
        if (it == expected.end()) {
          expected.push_back(in);
        } else {
          it->value += in.value;
          it->count += in.count;
          it->sum += in.sum;
        }
      }
    }
  }
  ASSERT_EQ(fleet.samples.size(), expected.size());
  EXPECT_EQ(fleet.samples.size(), static_cast<std::size_t>(2 * kKeys * 4));
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(fleet.samples[i].name, expected[i].name) << i;
    EXPECT_EQ(fleet.samples[i].labels, expected[i].labels) << i;
    EXPECT_DOUBLE_EQ(fleet.samples[i].value, expected[i].value) << i;
    EXPECT_EQ(fleet.samples[i].count, expected[i].count) << i;
    EXPECT_EQ(fleet.samples[i].sum, expected[i].sum) << i;
  }
  const obs::MetricsSnapshot by_key = fleet.rollup("rack");
  ASSERT_EQ(by_key.samples.size(), static_cast<std::size_t>(2 * kKeys));
  const obs::Sample* key3 = by_key.find("msgs_total", {{"key", "3"}});
  ASSERT_NE(key3, nullptr);
  EXPECT_DOUBLE_EQ(key3->value, 2.0 * kNodes * (kNodes + 1) / 2);
}

TEST(MetricsSnapshotTest, KindMismatchKeepsSeriesSeparate) {
  // The same name as a counter in one registry and a gauge in another must
  // NOT sum together: merge keys on (name, type, labels).
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  a.counter("depth").inc(3);
  b.gauge("depth").set(10);

  obs::MetricsSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  std::size_t depth_series = 0;
  for (const obs::Sample& s : merged.samples) {
    if (s.name == "depth") {
      ++depth_series;
      EXPECT_DOUBLE_EQ(s.value,
                       s.type == obs::MetricType::kCounter ? 3.0 : 10.0);
    }
  }
  EXPECT_EQ(depth_series, 2u);
}

TEST(MetricsSnapshotTest, WithLabelOverwritesACollidingKey) {
  obs::MetricsRegistry reg;
  reg.counter("x_total", {{"node", "999"}, {"shard", "2"}}).inc(1);
  const obs::MetricsSnapshot stamped =
      reg.snapshot().with_label("node", "3");
  const obs::Sample* s =
      stamped.find("x_total", {{"node", "3"}, {"shard", "2"}});
  ASSERT_NE(s, nullptr);
  // The stale node label is gone, not duplicated.
  EXPECT_EQ(s->labels.size(), 2u);
  EXPECT_EQ(stamped.find("x_total", {{"node", "999"}, {"shard", "2"}}),
            nullptr);
}

TEST(MetricsSnapshotTest, MergeResizesDifferingHistogramBuckets) {
  // Hand-built samples with unequal bucket vectors (the shape a mixed-epoch
  // fleet produces): merge must resize and add bucket-wise, in both orders.
  obs::Sample small;
  small.name = "lat";
  small.type = obs::MetricType::kHistogram;
  small.buckets = {1, 2};
  small.count = 3;
  small.sum = 5;
  obs::Sample big = small;
  big.buckets = {0, 1, 0, 7};
  big.count = 8;
  big.sum = 100;

  obs::MetricsSnapshot left;
  left.samples = {small};
  obs::MetricsSnapshot right;
  right.samples = {big};
  left.merge(right);
  ASSERT_EQ(left.samples.size(), 1u);
  EXPECT_EQ(left.samples[0].buckets,
            (std::vector<std::uint64_t>{1, 3, 0, 7}));
  EXPECT_EQ(left.samples[0].count, 11u);

  obs::MetricsSnapshot reversed;
  reversed.samples = {big};
  obs::MetricsSnapshot addend;
  addend.samples = {small};
  reversed.merge(addend);
  EXPECT_EQ(reversed.samples[0].buckets, left.samples[0].buckets);
}

TEST(MetricsSnapshotTest, RollupSumsDuplicateLabelValues) {
  // Two samples that become identical once the dropped key is gone, plus
  // one that never had it — all three must land in one coherent snapshot.
  obs::MetricsRegistry n0;
  obs::MetricsRegistry n1;
  obs::MetricsRegistry shared;
  n0.counter("msgs_total").inc(1);
  n1.counter("msgs_total").inc(2);
  shared.counter("msgs_total").inc(10);  // no node label at all

  obs::MetricsSnapshot cluster;
  cluster.merge(n0.snapshot().with_label("node", "0"));
  cluster.merge(n1.snapshot().with_label("node", "1"));
  cluster.merge(shared.snapshot());
  const obs::MetricsSnapshot total = cluster.rollup("node");
  const obs::Sample* all = total.find("msgs_total");
  ASSERT_NE(all, nullptr);
  EXPECT_DOUBLE_EQ(all->value, 13.0);
  EXPECT_EQ(total.samples.size(), 1u);
}

// -- flight recorder ---------------------------------------------------------

TEST(FlightRecorderTest, RingOverwritesOldestAndKeepsOrder) {
  obs::FlightRecorder rec(1, /*capacity=*/4);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    obs::Span s;
    s.trace_id = 9;
    s.span_id = i;
    s.name = "s";
    rec.record(s);
  }
  EXPECT_EQ(rec.recorded(), 6u);
  const std::vector<obs::Span> spans = rec.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans.front().span_id, 3u);  // oldest surviving
  EXPECT_EQ(spans.back().span_id, 6u);
  EXPECT_EQ(rec.spans_for(9).size(), 4u);
  EXPECT_TRUE(rec.spans_for(8).empty());
}

TEST(FlightRecorderTest, IdsAreDeterministicPerSeedAndNeverZero) {
  obs::FlightRecorder a(42);
  obs::FlightRecorder b(42);
  obs::FlightRecorder c(43);
  std::vector<std::uint64_t> ids_a;
  std::vector<std::uint64_t> ids_b;
  bool any_differs_from_c = false;
  for (int i = 0; i < 64; ++i) {
    ids_a.push_back(a.new_span_id());
    ids_b.push_back(b.new_span_id());
    if (ids_a.back() != c.new_span_id()) any_differs_from_c = true;
    EXPECT_NE(ids_a.back(), 0u);
  }
  EXPECT_EQ(ids_a, ids_b);
  EXPECT_TRUE(any_differs_from_c);
}

TEST(TraceContextTest, ScopeNestsAndRestores) {
  obs::TraceContext ctx;
  EXPECT_FALSE(ctx.active());
  {
    obs::TraceContext::Scope outer(ctx, 1, 10);
    EXPECT_TRUE(ctx.active());
    EXPECT_EQ(ctx.trace_id(), 1u);
    {
      obs::TraceContext::Scope inner(ctx, 2, 20);
      EXPECT_EQ(ctx.trace_id(), 2u);
      EXPECT_EQ(ctx.span_id(), 20u);
    }
    EXPECT_EQ(ctx.trace_id(), 1u);
    EXPECT_EQ(ctx.span_id(), 10u);
  }
  EXPECT_FALSE(ctx.active());
}

// -- wire extension: trace round-trip and frame compatibility ----------------

net::Message sample_message() {
  net::Message msg;
  msg.kind = net::MessageKind::kOneWay;
  msg.request_id = 7;
  msg.method = "dat.update";
  net::Writer w;
  w.u64(0xdeadbeef);
  msg.body = w.take();
  return msg;
}

TEST(WireTraceTest, TraceRoundTripsThroughTheWire) {
  net::Message msg = sample_message();
  msg.trace = net::WireTrace{0x1111222233334444ULL, 0x5555666677778888ULL};
  const auto wire = msg.encode();
  const net::Message decoded = net::Message::decode(wire);
  ASSERT_TRUE(decoded.trace.has_value());
  EXPECT_EQ(*decoded.trace, *msg.trace);
  EXPECT_EQ(decoded.method, msg.method);
  EXPECT_EQ(decoded.body, msg.body);
}

TEST(WireTraceTest, UntracedEncodingIsByteIdenticalToTheOldFormat) {
  const net::Message msg = sample_message();
  // The pre-extension format, built by hand.
  net::Writer w;
  w.u8(static_cast<std::uint8_t>(msg.kind));
  w.u64(msg.request_id);
  w.str(msg.method);
  w.bytes(msg.body);
  EXPECT_EQ(msg.encode(), w.take());
}

TEST(WireTraceTest, OldDecoderViewStillRejectsTrailingGarbage) {
  auto wire = sample_message().encode();
  const std::size_t frame_end = wire.size();
  wire.push_back(0xaa);
  try {
    (void)net::Message::decode(wire);
    FAIL() << "trailing garbage must be rejected";
  } catch (const net::CodecError& e) {
    EXPECT_EQ(e.error().code, net::DecodeErrorCode::kTrailingBytes);
    EXPECT_EQ(e.error().offset, frame_end);
  }
  // 0x00 is not the extension marker either.
  wire.back() = 0x00;
  EXPECT_THROW((void)net::Message::decode(wire), net::CodecError);
}

TEST(WireTraceTest, UnknownExtensionTagsAreSkipped) {
  auto wire = sample_message().encode();
  wire.push_back(net::kFrameExtMagic);
  wire.push_back(0x7f);  // unknown tag
  wire.push_back(2);
  wire.push_back(0xab);
  wire.push_back(0xcd);
  const net::Message decoded = net::Message::decode(wire);
  EXPECT_FALSE(decoded.trace.has_value());
  EXPECT_EQ(decoded.method, "dat.update");

  // A trace record after an unknown one is still found.
  net::Message traced = sample_message();
  traced.trace = net::WireTrace{1, 2};
  auto traced_wire = sample_message().encode();
  traced_wire.push_back(net::kFrameExtMagic);
  traced_wire.push_back(0x7f);
  traced_wire.push_back(1);
  traced_wire.push_back(0xee);
  traced_wire.push_back(net::kFrameExtTraceTag);
  traced_wire.push_back(16);
  for (int i = 0; i < 8; ++i) traced_wire.push_back(i == 0 ? 1 : 0);  // LE 1
  for (int i = 0; i < 8; ++i) traced_wire.push_back(i == 0 ? 2 : 0);  // LE 2
  const net::Message d2 = net::Message::decode(traced_wire);
  ASSERT_TRUE(d2.trace.has_value());
  EXPECT_EQ(d2.trace->trace_id, 1u);
  EXPECT_EQ(d2.trace->span_id, 2u);
}

TEST(WireTraceTest, TruncatedExtensionIsRejectedAsTruncated) {
  auto wire = sample_message().encode();
  wire.push_back(net::kFrameExtMagic);
  wire.push_back(net::kFrameExtTraceTag);
  wire.push_back(16);
  wire.push_back(0x01);  // only 1 of 16 payload bytes
  try {
    (void)net::Message::decode(wire);
    FAIL() << "truncated extension must be rejected";
  } catch (const net::CodecError& e) {
    EXPECT_EQ(e.error().code, net::DecodeErrorCode::kTruncated);
  }
}

// -- rpc propagation ---------------------------------------------------------

TEST(RpcTraceTest, AmbientTraceCrossesTheWireAndScopesTheHandler) {
  sim::Engine engine(7);
  net::SimNetwork network(engine);
  net::SimTransport& client_t = network.add_node();
  net::SimTransport& server_t = network.add_node();
  // Telemetry outlives the managers: ~RpcManager unregisters its collector,
  // so the registries must still be alive at that point.
  obs::NodeTelemetry client_tel(1);
  obs::NodeTelemetry server_tel(2);
  net::RpcManager client(client_t);
  net::RpcManager server(server_t);
  client.set_telemetry(&client_tel);
  server.set_telemetry(&server_tel);

  std::uint64_t seen_trace = 0;
  std::uint64_t seen_span = 0;
  server.register_method("probe", [&](net::Endpoint, net::Reader&,
                                      net::Writer& reply) {
    seen_trace = server_tel.trace.trace_id();
    seen_span = server_tel.trace.span_id();
    reply.u64(1);
  });

  std::uint64_t response_trace = 0;
  {
    const obs::TraceContext::Scope scope(client_tel.trace, 0xabc, 0xdef);
    client.call(server_t.local(), "probe", net::Writer{},
                [&](net::RpcStatus st, net::Reader&) {
                  ASSERT_EQ(st, net::RpcStatus::kOk);
                  // The reply echoes the request's trace, so the response
                  // callback runs under the originating trace too.
                  response_trace = client_tel.trace.trace_id();
                });
  }
  engine.run();
  EXPECT_EQ(seen_trace, 0xabcu);
  EXPECT_EQ(seen_span, 0xdefu);
  EXPECT_EQ(response_trace, 0xabcu);
  // Contexts unwound after dispatch on both sides.
  EXPECT_FALSE(client_tel.trace.active());
  EXPECT_FALSE(server_tel.trace.active());
}

// -- exporters ----------------------------------------------------------------

TEST(ExportTest, PrometheusTextFormat) {
  obs::MetricsRegistry reg;
  reg.counter("dat_events_total", {{"node", "3"}}).inc(12);
  reg.histogram("dat_hops").observe(3);
  const std::string text = obs::to_prometheus(reg.snapshot());
  EXPECT_NE(text.find("# TYPE dat_events_total counter"), std::string::npos);
  EXPECT_NE(text.find("dat_events_total{node=\"3\"} 12"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dat_hops histogram"), std::string::npos);
  EXPECT_NE(text.find("dat_hops_bucket{le=\""), std::string::npos);
  EXPECT_NE(text.find("dat_hops_sum 3"), std::string::npos);
  EXPECT_NE(text.find("dat_hops_count 1"), std::string::npos);
}

TEST(ExportTest, JsonDocumentCarriesSchemaAndSamples) {
  obs::MetricsRegistry reg;
  reg.counter("dat_events_total").inc(2);
  const std::string json = obs::to_json(reg.snapshot());
  EXPECT_NE(json.find("\"schema\":\"dat.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"dat_events_total\""), std::string::npos);
  EXPECT_EQ(obs::render(reg.snapshot(), obs::ExportFormat::kJson), json);
}

// -- acceptance: one aggregation wave as a Chrome trace ----------------------

TEST(AggregationWaveTest, WaveChainMatchesTreeEdgesAndExportsChromeTrace) {
  harness::ClusterOptions options;
  options.seed = 11;
  harness::SimCluster cluster(24, std::move(options));
  ASSERT_TRUE(cluster.wait_converged(600'000'000));

  const Id key = cluster.start_aggregate_everywhere(
      "cpu-usage", core::AggregateKind::kAvg, chord::RoutingScheme::kBalanced,
      [](std::size_t slot) -> core::DatNode::LocalValueFn {
        return [slot] { return static_cast<double>(slot); };
      });
  const std::uint64_t epoch_us = cluster.dat(0).options().epoch_us;
  cluster.run_for(10 * epoch_us);

  // Index every span of every node, and find the root slot.
  struct Located {
    std::size_t slot = 0;
    obs::Span span;
  };
  std::map<std::uint64_t, Located> by_span_id;
  const Id root_id = cluster.ring_view().successor(key);
  std::size_t root_slot = cluster.slot_count();
  std::uint64_t trace_id = 0;
  for (std::size_t i = 0; i < cluster.slot_count(); ++i) {
    if (!cluster.is_live(i)) continue;
    for (const obs::Span& span :
         cluster.node(i).telemetry().recorder.spans()) {
      by_span_id[span.span_id] = {i, span};
    }
    if (cluster.node(i).id() == root_id) root_slot = i;
  }
  ASSERT_LT(root_slot, cluster.slot_count());
  for (const obs::Span& span :
       cluster.node(root_slot).telemetry().recorder.spans()) {
    if (span.key == key && std::strcmp(span.name, "dat.aggregate") == 0) {
      trace_id = span.trace_id;  // most recent completed wave
    }
  }
  ASSERT_NE(trace_id, 0u) << "root recorded no completed aggregation wave";

  // Walk the wave chain from the root's aggregate span down to the leaf's
  // first send. Every recv->send hop must be a ground-truth DAT tree edge:
  // the sender's dat_parent is the node that recorded the receive.
  const obs::Span* cursor = nullptr;
  for (const obs::Span& span :
       cluster.node(root_slot).telemetry().recorder.spans_for(trace_id)) {
    if (std::strcmp(span.name, "dat.aggregate") == 0) cursor = &by_span_id.at(span.span_id).span;
  }
  ASSERT_NE(cursor, nullptr);
  std::size_t cursor_slot = root_slot;
  unsigned chain_len = 1;
  unsigned tree_hops = 0;
  while (cursor->parent_span_id != 0) {
    const auto it = by_span_id.find(cursor->parent_span_id);
    ASSERT_NE(it, by_span_id.end())
        << "dangling parent span 0x" << std::hex << cursor->parent_span_id;
    const Located& parent = it->second;
    EXPECT_EQ(parent.span.trace_id, trace_id);
    if (std::strcmp(cursor->name, "dat.update.recv") == 0) {
      // Cross-node link: the parent is the child's send span, and the DAT
      // tree must agree that we are that child's parent.
      EXPECT_STREQ(parent.span.name, "dat.update.send");
      EXPECT_NE(parent.slot, cursor_slot);
      const auto tree_parent =
          cluster.node(parent.slot).dat_parent(key, chord::RoutingScheme::kBalanced);
      ASSERT_TRUE(tree_parent.has_value());
      EXPECT_EQ(tree_parent->id, cluster.node(cursor_slot).id())
          << "span chain hop disagrees with the DAT tree edge";
      ++tree_hops;
    } else {
      // Same-node link (aggregate->recv or send->recv).
      EXPECT_EQ(parent.slot, cursor_slot);
    }
    cursor_slot = parent.slot;
    cursor = &it->second.span;
    ++chain_len;
  }
  // The chain bottom is a leaf's send: fresh trace, no parent.
  EXPECT_STREQ(cursor->name, "dat.update.send");
  const auto leaf_children = cluster.dat(cursor_slot).child_count(key);
  EXPECT_EQ(leaf_children, 0u) << "wave origin should be a tree leaf";
  EXPECT_GE(tree_hops, 1u);
  EXPECT_GE(chain_len, 3u);  // leaf send -> root recv -> root aggregate

  // Export the wave as Chrome trace-event JSON and spot-check structure.
  std::vector<obs::NodeSpans> nodes;
  for (std::size_t i = 0; i < cluster.slot_count(); ++i) {
    if (!cluster.is_live(i)) continue;
    nodes.push_back(obs::NodeSpans{"node-" + std::to_string(i), i,
                                   cluster.node(i).telemetry().recorder.spans()});
  }
  const std::string doc = obs::to_chrome_trace(nodes, trace_id);
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"dat.aggregate\""), std::string::npos);
  EXPECT_NE(doc.find("\"dat.update.send\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"s\""), std::string::npos);  // flow arrows
  EXPECT_NE(doc.find("\"ph\":\"f\""), std::string::npos);

  // And the metrics layer saw the wave too, up through the cluster roll-up.
  const obs::MetricsSnapshot rolled =
      cluster.telemetry_snapshot().rollup("node");
  EXPECT_GT(rolled.value_or_zero("dat_tree_updates_sent_total"), 0.0);
  EXPECT_GT(rolled.value_or_zero("dat_tree_updates_received_total"), 0.0);
  EXPECT_GT(rolled.value_or_zero("dat_tree_epochs_total"), 0.0);
  EXPECT_GT(rolled.value_or_zero("dat_chord_lookups_total"), 0.0);
  const obs::Sample* staleness = rolled.find("dat_tree_child_staleness_us");
  ASSERT_NE(staleness, nullptr);
  EXPECT_GT(staleness->count, 0u);
}

}  // namespace
