#pragma once

#include <atomic>
#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace dat::obs {

/// Sorted key/value label set of one metric instrument (Prometheus-style
/// dimensions, e.g. {{"key", "0x1a2b"}, {"node", "3"}}).
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Canonicalizes a label set: sorted by key so that two logically equal
/// sets compare equal regardless of construction order.
[[nodiscard]] Labels canonical_labels(Labels labels);

enum class MetricType : std::uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };

[[nodiscard]] const char* to_string(MetricType type) noexcept;

/// Monotonic event counter. Increment is one relaxed atomic add — safe from
/// any thread, cheap enough for per-datagram hot paths.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous signed value (queue depths, child counts, liveness flags).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    value_.fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Log2-bucketed histogram of non-negative integer samples (latencies in
/// microseconds, sizes in bytes, batch sizes). Bucket i holds samples with
/// value <= 2^i; the last bucket is the +Inf overflow. observe() is two
/// relaxed atomic adds plus a bit_width — no locks, no allocation.
class Histogram {
 public:
  /// Buckets 2^0 .. 2^63 plus +Inf.
  static constexpr std::size_t kBuckets = 65;

  void observe(std::uint64_t v) noexcept {
    counts_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  /// Index of the bucket that counts `v`: the smallest i with v <= 2^i
  /// (0 and 1 both land in bucket 0; 2^k -> k; 2^k + 1 -> k + 1; anything
  /// above 2^63 overflows into the +Inf bucket).
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t v) noexcept {
    if (v <= 1) return 0;
    return std::bit_width(v - 1);
  }

  /// Upper bound of bucket i (inclusive); the last bucket has no bound.
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t i) noexcept {
    return std::uint64_t{1} << (i < 64 ? i : 63);
  }

  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const noexcept {
    return counts_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const noexcept;

  /// Estimated q-quantile (q in [0, 1]) of the observed distribution; a
  /// point-in-time read of the buckets fed to quantile_from_buckets().
  [[nodiscard]] double quantile(double q) const noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<std::uint64_t> sum_{0};
};

/// Estimated q-quantile of a log2-bucketed count vector (the layout produced
/// by Histogram and carried by Sample::buckets): bucket 0 spans [0, 1],
/// bucket i spans (2^(i-1), 2^i], and ranks interpolate linearly inside the
/// containing bucket. The +Inf bucket is clamped to its 2^63 lower bound,
/// and an empty distribution reads as 0.
[[nodiscard]] double quantile_from_buckets(
    std::span<const std::uint64_t> buckets, double q) noexcept;

/// Plain-value reading of one instrument at snapshot time. Counters and
/// gauges use `value`; histograms use `buckets`/`sum`/`count`.
struct Sample {
  std::string name;
  MetricType type = MetricType::kCounter;
  Labels labels;
  double value = 0.0;
  std::vector<std::uint64_t> buckets;  ///< per-bucket (non-cumulative) counts
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  /// Estimated q-quantile of a histogram sample's buckets (0 when this is
  /// not a histogram or nothing was observed).
  [[nodiscard]] double quantile(double q) const noexcept {
    return quantile_from_buckets(buckets, q);
  }
};

/// Point-in-time reading of a whole registry (or a merge of several). The
/// unit every exporter consumes, and the unit cluster roll-ups are built
/// from: merge() sums same-(name, labels) samples, with_label() stamps a
/// dimension (e.g. node=) onto every sample, rollup() drops a dimension and
/// re-merges — turning per-node snapshots into cluster totals.
struct MetricsSnapshot {
  std::vector<Sample> samples;

  /// Appends `other`, summing into any existing sample with the same name,
  /// type and labels (counters/histograms add; gauges add, which makes a
  /// roll-up gauge the cluster total). New series keep first-seen order.
  /// Lookups go through an index that persists across calls, so merging n
  /// snapshots costs time linear in their total size. The index follows
  /// samples appended between merges; a sample whose name, type or labels
  /// are rewritten in place after a merge is not re-keyed.
  void merge(const MetricsSnapshot& other);

  /// Adds (or overwrites) one label on every sample.
  [[nodiscard]] MetricsSnapshot with_label(const std::string& key,
                                           const std::string& value) const;

  /// Drops a label key everywhere and merges the now-identical series:
  /// rollup("node") collapses per-node samples into cluster-wide sums.
  [[nodiscard]] MetricsSnapshot rollup(const std::string& drop_key) const;

  /// First sample matching `name` (and `labels` when given); nullptr if
  /// absent.
  [[nodiscard]] const Sample* find(const std::string& name) const;
  [[nodiscard]] const Sample* find(const std::string& name,
                                   const Labels& labels) const;

  /// Value of a counter/gauge sample, 0.0 when absent.
  [[nodiscard]] double value_or_zero(const std::string& name) const;

  /// Values of every sample named `name`, keyed by its value of `label_key`
  /// (samples lacking that label are skipped; duplicate label values sum).
  /// Splits per-dimension series back out of a snapshot — e.g. the lb load
  /// collector reading dat_tree_children{key=...} per aggregate key.
  [[nodiscard]] std::vector<std::pair<std::string, double>> values_by_label(
      const std::string& name, const std::string& label_key) const;

 private:
  /// merge()'s lookup index: series hash -> position in `samples`, covering
  /// samples[0, indexed_).
  std::unordered_multimap<std::size_t, std::size_t> index_;
  std::size_t indexed_ = 0;
};

/// Lock-light metrics registry: one per node (plus one per cluster for
/// shared infrastructure like the netio shards). Instrument creation takes
/// a mutex once; the returned references stay valid for the registry's
/// lifetime (deque storage, instruments never move), so hot paths hold the
/// pointer and pay only relaxed atomics. Existing counter structs
/// (RpcStats, TrafficCounters, ReactorCounters, the DAT aggregation table)
/// join the registry as collectors — callbacks that contribute samples at
/// snapshot time, making them registry views without touching their own
/// hot paths.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. Type mismatches on an existing name+labels throw
  /// std::logic_error (two layers disagreeing about a metric is a bug).
  Counter& counter(const std::string& name, Labels labels = {});
  Gauge& gauge(const std::string& name, Labels labels = {});
  Histogram& histogram(const std::string& name, Labels labels = {});

  /// Snapshot-time sample source; returns an id for remove_collector.
  /// Collectors run under the registry mutex — keep them cheap and never
  /// re-enter the registry from inside one.
  using Collector = std::function<void(MetricsSnapshot&)>;
  std::uint64_t add_collector(Collector collector);
  void remove_collector(std::uint64_t id);

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  struct Instrument {
    std::string name;
    MetricType type = MetricType::kCounter;
    Labels labels;
    // Exactly one is live, selected by `type`; kept side by side instead of
    // a variant so the atomics never move.
    Counter counter;
    Gauge gauge;
    Histogram histogram;
  };

  Instrument& find_or_create(const std::string& name, Labels labels,
                             MetricType type);

  mutable std::mutex mutex_;
  std::deque<Instrument> instruments_;
  std::map<std::string, std::size_t> index_;  // canonical key -> deque index
  std::map<std::uint64_t, Collector> collectors_;
  std::uint64_t next_collector_id_ = 1;
};

}  // namespace dat::obs
