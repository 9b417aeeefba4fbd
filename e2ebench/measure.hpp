#pragma once

// Measurement code of the benchmark, kept free of any cluster so that
// selftest.cpp can check it on synthetic inputs with known answers:
//  - the staleness encoding a leaf pushes and its decode at the root,
//  - the percentile rule used for every reported timing,
//  - the exact-sum oracle every SUM root and query answer is checked against.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "dat/aggregate.hpp"
#include "obs/metrics.hpp"

namespace e2ebench {

/// splitmix64: the benchmark's only source of randomness. Every generated
/// input (leaf phases, query origins, query kinds, keys) is drawn from a
/// stream seeded by --seed, so the same seed gives the same inputs.
class SeededRng {
 public:
  explicit SeededRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); bound > 0. The modulo bias is below 2^-40 for
  /// every bound the benchmark uses.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

// ---------------------------------------------------------------------------
// Staleness encoding.
//
// Every leaf of the staleness tree contributes, at each of its epochs, a
// kHistogram AggState with one count in slot (t / W) mod 65, where t is the
// sample time on the fleet clock and W the slot width. sum carries t, and
// min = max = t, so after any number of merges the root holds, per slot,
// how many leaves sampled in that slot, plus the exact mean, oldest and
// newest sample time. At a root epoch at time T each leaf's age decodes to
// the midpoint of its slot's interval (error at most W/2) provided every
// age is below 64 W; the exact oldest age (T - min) proves that, and the
// exact mean (T - sum/count) cross-checks the decode.

inline constexpr std::size_t kSlots = dat::obs::Histogram::kBuckets;

[[nodiscard]] inline dat::core::AggState staleness_leaf(std::uint64_t t_us,
                                                        std::uint64_t width_us) {
  std::vector<std::uint64_t> slots(kSlots, 0);
  slots[(t_us / width_us) % kSlots] = 1;
  dat::core::AggState s =
      dat::core::AggState::of_histogram(std::move(slots), static_cast<double>(t_us));
  s.min = static_cast<double>(t_us);
  s.max = static_cast<double>(t_us);
  return s;
}

struct StalenessDecode {
  bool ok = false;
  std::string error;            ///< why the decode was refused
  std::uint64_t leaves = 0;     ///< observations (root count)
  double mean_age_exact_us = 0;
  double mean_age_decoded_us = 0;
  double max_age_exact_us = 0;
};

/// Decodes one root value of the staleness tree taken at `root_us` and
/// appends every leaf's estimated age in microseconds to `ages_us`. Refuses
/// (ok = false, nothing appended) when the slot counts disagree with the
/// count, a sample lies in the future, the oldest age leaves the
/// unambiguous window, or the decode disagrees with the exact mean, oldest
/// or newest sample.
[[nodiscard]] inline StalenessDecode decode_staleness(
    const dat::core::AggState& root, std::uint64_t root_us,
    std::uint64_t width_us, std::vector<double>& ages_us) {
  StalenessDecode out;
  const auto fail = [&out](std::string why) {
    out.ok = false;
    out.error = std::move(why);
    return out;
  };
  if (root.hist.size() != kSlots) return fail("histogram has wrong slot count");
  std::uint64_t counted = 0;
  for (const std::uint64_t c : root.hist) counted += c;
  if (counted != root.count || root.count == 0) {
    return fail("slot counts do not add up to the count");
  }
  out.leaves = root.count;
  const double t_root = static_cast<double>(root_us);
  if (root.max > t_root) return fail("a sample is newer than the root epoch");
  const double w = static_cast<double>(width_us);
  out.max_age_exact_us = t_root - root.min;
  if (out.max_age_exact_us >= static_cast<double>(kSlots - 1) * w) {
    return fail("oldest sample is outside the unambiguous slot window");
  }
  out.mean_age_exact_us = t_root - root.sum / static_cast<double>(root.count);

  const std::uint64_t q = root_us / width_us;
  double age_sum = 0;
  double oldest_lo = 0, oldest_hi = 0;  // age interval of the oldest slot
  double newest_lo = 0, newest_hi = 0;  // age interval of the newest slot
  bool seen = false;
  const std::size_t first = ages_us.size();
  // Walk from the newest period backwards so "oldest" is the last one seen.
  for (std::uint64_t d = 0; d < kSlots; ++d) {
    if (d > q) break;
    const std::uint64_t p = q - d;
    const std::uint64_t c = root.hist[p % kSlots];
    if (c == 0) continue;
    const double t_lo = static_cast<double>(p * width_us);
    const double t_hi =
        std::min(static_cast<double>(p * width_us + width_us - 1), t_root);
    const double age = t_root - (t_lo + t_hi) / 2.0;
    for (std::uint64_t k = 0; k < c; ++k) ages_us.push_back(age);
    age_sum += age * static_cast<double>(c);
    if (!seen) {
      newest_lo = t_root - t_hi;
      newest_hi = t_root - t_lo;
      seen = true;
    }
    oldest_lo = t_root - t_hi;
    oldest_hi = t_root - t_lo;
  }
  const auto refuse = [&](std::string why) {
    ages_us.resize(first);
    return fail(std::move(why));
  };
  if (ages_us.size() - first != root.count) {
    return refuse("slots before the clock start hold samples");
  }
  out.mean_age_decoded_us = age_sum / static_cast<double>(root.count);
  if (std::abs(out.mean_age_decoded_us - out.mean_age_exact_us) > w / 2.0 + 1.0) {
    return refuse("decoded mean age disagrees with sum/count");
  }
  if (out.max_age_exact_us < oldest_lo || out.max_age_exact_us > oldest_hi) {
    return refuse("exact oldest age is not in the oldest slot");
  }
  const double min_age_exact = t_root - root.max;
  if (min_age_exact < newest_lo || min_age_exact > newest_hi) {
    return refuse("exact newest age is not in the newest slot");
  }
  out.ok = true;
  return out;
}

// ---------------------------------------------------------------------------
// Percentile rule.
//
// Timings are reported as the median plus the highest percentile that has
// at least ten samples beyond it; below forty samples only the median is a
// meaningful figure. Percentiles are nearest-rank on the sorted samples.

[[nodiscard]] inline std::size_t nearest_rank(double pct, std::size_t n) {
  const double r = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)), 1, n);
}

/// Highest of 50, 75, 90, 95, 99, 99.9 with at least ten samples beyond its
/// nearest rank; 50 when n < 40 (and 0 when n == 0).
[[nodiscard]] inline double highest_supported_percentile(std::size_t n) {
  if (n == 0) return 0;
  if (n < 40) return 50;
  double best = 50;
  for (const double p : {75.0, 90.0, 95.0, 99.0, 99.9}) {
    if (n - nearest_rank(p, n) >= 10) best = p;
  }
  return best;
}

/// Nearest-rank percentile of `samples` (sorted in place); 0 when empty.
[[nodiscard]] inline double percentile(std::vector<double>& samples, double pct) {
  if (samples.empty()) return 0;
  if (!std::is_sorted(samples.begin(), samples.end())) {
    std::sort(samples.begin(), samples.end());
  }
  return samples[nearest_rank(pct, samples.size()) - 1];
}

[[nodiscard]] inline double median_of(std::vector<double> samples) {
  return percentile(samples, 50);
}

/// Timing samples of the measured phase, kept per window. A reported figure
/// is the median over the windows of each window's percentile, as rates are
/// medians of per-window rates: outside load on the host during a few
/// windows then moves a few per-window figures rather than the whole pooled
/// distribution.
class WindowedSamples {
 public:
  void add(std::size_t window, double v) {
    if (window >= per_window_.size()) per_window_.resize(window + 1);
    per_window_[window].push_back(v);
  }

  /// Nearest-rank percentile `pct` of window `w` (0 when it has no samples).
  [[nodiscard]] double window_percentile(std::size_t w, double pct) {
    return w < per_window_.size() ? percentile(per_window_[w], pct) : 0;
  }

  /// Median over windows [0, windows) of each window's nearest-rank
  /// percentile `pct`, skipping empty windows (0 when all are empty).
  /// `fewest` gets the smallest sample count of a counted window.
  [[nodiscard]] double median_percentile(std::size_t windows, double pct,
                                         std::size_t& fewest) {
    std::vector<double> figures;
    fewest = 0;
    for (std::size_t w = 0; w < std::min(windows, per_window_.size()); ++w) {
      if (per_window_[w].empty()) continue;
      figures.push_back(percentile(per_window_[w], pct));
      const std::size_t n = per_window_[w].size();
      fewest = figures.size() == 1 ? n : std::min(fewest, n);
    }
    return figures.empty() ? 0 : median_of(std::move(figures));
  }

  /// Every sample of windows [0, windows), pooled.
  [[nodiscard]] std::vector<double> pooled(std::size_t windows) const {
    std::vector<double> out;
    for (std::size_t w = 0; w < std::min(windows, per_window_.size()); ++w) {
      out.insert(out.end(), per_window_[w].begin(), per_window_[w].end());
    }
    return out;
  }

 private:
  std::vector<std::vector<double>> per_window_;
};

// ---------------------------------------------------------------------------
// Exact-sum oracle.
//
// Leaf i of SUM tree t contributes (i + 1) * (t + 1): whole numbers, so any
// merge order of the doubles is exact while the total stays below 2^53, and
// a root value can be compared with ==. The oracle sums the live leaves'
// values in integers, apart from any merge the program does.

[[nodiscard]] inline std::uint64_t leaf_value(std::size_t slot, std::size_t tree) {
  return (static_cast<std::uint64_t>(slot) + 1) *
         (static_cast<std::uint64_t>(tree) + 1);
}

[[nodiscard]] inline double exact_sum(const std::vector<std::size_t>& live_slots,
                                      std::size_t tree) {
  std::uint64_t total = 0;
  for (const std::size_t slot : live_slots) total += leaf_value(slot, tree);
  return static_cast<double>(total);
}

/// True when `state` carries exactly the expected sum and leaf count.
[[nodiscard]] inline bool sum_matches(const dat::core::AggState& state,
                                      double expected_sum,
                                      std::uint64_t expected_count) {
  return state.count == expected_count && state.sum == expected_sum;
}

}  // namespace e2ebench
