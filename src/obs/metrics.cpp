#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace dat::obs {

namespace {

/// Canonical map key for one instrument: name + sorted labels, with
/// separators that cannot appear in Prometheus-legal metric names.
std::string series_key(const std::string& name, const Labels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

/// Hash of a sample's series identity (name, type, labels).
std::size_t series_hash(const Sample& s) {
  const std::hash<std::string> h;
  std::size_t seed = h(s.name) ^ static_cast<std::size_t>(s.type);
  const auto mix = [&seed](std::size_t v) {
    seed ^= v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
  };
  for (const auto& [k, v] : s.labels) {
    mix(h(k));
    mix(h(v));
  }
  return seed;
}

}  // namespace

Labels canonical_labels(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

const char* to_string(MetricType type) noexcept {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "unknown";
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& c : counts_) total += c.load(std::memory_order_relaxed);
  return total;
}

double Histogram::quantile(double q) const noexcept {
  std::array<std::uint64_t, kBuckets> counts{};
  for (std::size_t i = 0; i < kBuckets; ++i) {
    counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return quantile_from_buckets(counts, q);
}

double quantile_from_buckets(std::span<const std::uint64_t> buckets,
                             double q) noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t c : buckets) total += c;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const double next = cumulative + static_cast<double>(buckets[i]);
    if (next >= target) {
      const double lower =
          i == 0 ? 0.0
                 : static_cast<double>(Histogram::bucket_upper(i - 1));
      const double upper = static_cast<double>(Histogram::bucket_upper(i));
      const double fraction =
          (target - cumulative) / static_cast<double>(buckets[i]);
      return lower + fraction * (upper - lower);
    }
    cumulative = next;
  }
  return static_cast<double>(Histogram::bucket_upper(buckets.size() - 1));
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  if (indexed_ > samples.size()) {  // samples were dropped: re-index all
    index_.clear();
    indexed_ = 0;
  }
  for (; indexed_ < samples.size(); ++indexed_) {
    index_.emplace(series_hash(samples[indexed_]), indexed_);
  }
  for (const Sample& in : other.samples) {
    const std::size_t hash = series_hash(in);
    Sample* out = nullptr;
    const auto [first, last] = index_.equal_range(hash);
    for (auto it = first; it != last; ++it) {
      Sample& s = samples[it->second];
      if (s.name == in.name && s.type == in.type && s.labels == in.labels) {
        out = &s;
        break;
      }
    }
    if (out == nullptr) {
      index_.emplace(hash, samples.size());
      samples.push_back(in);
      indexed_ = samples.size();
      continue;
    }
    out->value += in.value;
    out->count += in.count;
    out->sum += in.sum;
    if (out->buckets.size() < in.buckets.size()) {
      out->buckets.resize(in.buckets.size(), 0);
    }
    for (std::size_t i = 0; i < in.buckets.size(); ++i) {
      out->buckets[i] += in.buckets[i];
    }
  }
}

MetricsSnapshot MetricsSnapshot::with_label(const std::string& key,
                                            const std::string& value) const {
  MetricsSnapshot out;
  out.samples.reserve(samples.size());
  for (Sample s : samples) {
    std::erase_if(s.labels, [&](const auto& kv) { return kv.first == key; });
    s.labels.emplace_back(key, value);
    s.labels = canonical_labels(std::move(s.labels));
    out.samples.push_back(std::move(s));
  }
  return out;
}

MetricsSnapshot MetricsSnapshot::rollup(const std::string& drop_key) const {
  MetricsSnapshot stripped;
  stripped.samples = samples;
  for (Sample& s : stripped.samples) {
    std::erase_if(s.labels,
                  [&](const auto& kv) { return kv.first == drop_key; });
  }
  MetricsSnapshot out;
  out.merge(stripped);  // sums the series that became identical
  return out;
}

const Sample* MetricsSnapshot::find(const std::string& name) const {
  for (const Sample& s : samples) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const Sample* MetricsSnapshot::find(const std::string& name,
                                    const Labels& labels) const {
  const Labels wanted = canonical_labels(labels);
  for (const Sample& s : samples) {
    if (s.name == name && s.labels == wanted) return &s;
  }
  return nullptr;
}

double MetricsSnapshot::value_or_zero(const std::string& name) const {
  const Sample* s = find(name);
  return s != nullptr ? s->value : 0.0;
}

std::vector<std::pair<std::string, double>> MetricsSnapshot::values_by_label(
    const std::string& name, const std::string& label_key) const {
  std::map<std::string, double> by_value;
  for (const Sample& s : samples) {
    if (s.name != name) continue;
    for (const auto& [k, v] : s.labels) {
      if (k == label_key) {
        by_value[v] += s.value;
        break;
      }
    }
  }
  return {by_value.begin(), by_value.end()};
}

Counter& MetricsRegistry::counter(const std::string& name, Labels labels) {
  return find_or_create(name, std::move(labels), MetricType::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, Labels labels) {
  return find_or_create(name, std::move(labels), MetricType::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name, Labels labels) {
  return find_or_create(name, std::move(labels), MetricType::kHistogram)
      .histogram;
}

MetricsRegistry::Instrument& MetricsRegistry::find_or_create(
    const std::string& name, Labels labels, MetricType type) {
  Labels canonical = canonical_labels(std::move(labels));
  const std::string key = series_key(name, canonical);
  const std::scoped_lock lock(mutex_);
  if (const auto it = index_.find(key); it != index_.end()) {
    Instrument& existing = instruments_[it->second];
    if (existing.type != type) {
      throw std::logic_error("metric '" + name + "' re-registered as " +
                             to_string(type) + ", was " +
                             to_string(existing.type));
    }
    return existing;
  }
  Instrument& inst = instruments_.emplace_back();
  inst.name = name;
  inst.type = type;
  inst.labels = std::move(canonical);
  index_.emplace(key, instruments_.size() - 1);
  return inst;
}

std::uint64_t MetricsRegistry::add_collector(Collector collector) {
  const std::scoped_lock lock(mutex_);
  const std::uint64_t id = next_collector_id_++;
  collectors_.emplace(id, std::move(collector));
  return id;
}

void MetricsRegistry::remove_collector(std::uint64_t id) {
  const std::scoped_lock lock(mutex_);
  collectors_.erase(id);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  const std::scoped_lock lock(mutex_);
  out.samples.reserve(instruments_.size());
  for (const Instrument& inst : instruments_) {
    Sample s;
    s.name = inst.name;
    s.type = inst.type;
    s.labels = inst.labels;
    switch (inst.type) {
      case MetricType::kCounter:
        s.value = static_cast<double>(inst.counter.value());
        break;
      case MetricType::kGauge:
        s.value = static_cast<double>(inst.gauge.value());
        break;
      case MetricType::kHistogram: {
        s.buckets.resize(Histogram::kBuckets);
        for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
          s.buckets[i] = inst.histogram.bucket_count(i);
          s.count += s.buckets[i];
        }
        s.sum = inst.histogram.sum();
        s.value = static_cast<double>(s.count);
        break;
      }
    }
    out.samples.push_back(std::move(s));
  }
  for (const auto& [id, collect] : collectors_) collect(out);
  return out;
}

}  // namespace dat::obs
