// Self-tests of the benchmark's own measurement code on synthetic inputs
// with known answers: the staleness encode/decode (slot wrap-around, the
// window bound, the sum/count cross-check), the percentile rule, the
// windowed figures and the exact-sum oracle. Run with `e2ebench --selftest`
// (run.py --selftest).

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "measure.hpp"

namespace e2ebench {
namespace {

int g_failures = 0;
int g_checks = 0;

void check(bool ok, const std::string& what) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

using dat::core::AggState;

/// Merges the leaf states of `samples` in a scrambled order, as a tree would.
AggState merged_leaves(const std::vector<std::uint64_t>& samples, std::uint64_t w) {
  AggState acc;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const std::size_t j = (i * 7 + 3) % samples.size();  // samples.size() prime-ish
    acc.merge(staleness_leaf(samples[j], w));
  }
  return acc;
}

void test_leaf_encoding() {
  const AggState s = staleness_leaf(12'345, 100);
  check(s.hist.size() == kSlots, "leaf carries 65 slots");
  check(s.hist[(12'345 / 100) % kSlots] == 1 && s.count == 1, "leaf counts one in its slot");
  check(s.sum == 12'345 && s.min == 12'345 && s.max == 12'345, "leaf carries its time");
}

void test_decode_recovers_ages() {
  const std::uint64_t w = 1'000;
  const std::uint64_t t_root = 500'000;
  const std::vector<std::uint64_t> ages = {0, 1, 999, 1'000, 5'500, 20'000, 63'000, 63'999};
  std::vector<std::uint64_t> samples;
  for (const auto a : ages) samples.push_back(t_root - a);
  std::vector<double> out;
  const StalenessDecode dec = decode_staleness(merged_leaves({samples.begin(), samples.end()}, w),
                                               t_root, w, out);
  check(dec.ok, "decode accepts ages inside the window: " + dec.error);
  check(out.size() == ages.size(), "one decoded age per leaf");
  std::vector<double> truth(ages.begin(), ages.end());
  std::sort(truth.begin(), truth.end());
  std::sort(out.begin(), out.end());
  bool close = out.size() == truth.size();
  for (std::size_t i = 0; close && i < out.size(); ++i) {
    close = std::abs(out[i] - truth[i]) <= w / 2.0 + 0.5;
  }
  check(close, "every decoded age is within W/2 of the truth");
  check(dec.max_age_exact_us == 63'999, "exact oldest age from min");
  double mean = 0;
  for (const auto a : ages) mean += static_cast<double>(a);
  mean /= static_cast<double>(ages.size());
  check(std::abs(dec.mean_age_exact_us - mean) < 1e-6, "exact mean age from sum/count");
}

void test_decode_wraps_slots() {
  // The root's period q sits just past a multiple of 65, so the samples'
  // slots wrap from 64 back to 0.
  const std::uint64_t w = 10;
  const std::uint64_t q = 65 * 1'000 + 2;
  const std::uint64_t t_root = q * w + 7;
  std::vector<std::uint64_t> samples;
  for (std::uint64_t back = 0; back < 10; ++back) samples.push_back(t_root - back * w);
  std::vector<double> out;
  const StalenessDecode dec = decode_staleness(merged_leaves(samples, w), t_root, w, out);
  check(dec.ok, "decode handles slot wrap-around: " + dec.error);
  std::sort(out.begin(), out.end());
  bool close = out.size() == samples.size();
  for (std::size_t i = 0; close && i < out.size(); ++i) {
    close = std::abs(out[i] - static_cast<double>(i * w)) <= w / 2.0 + 0.5;
  }
  check(close, "wrapped ages decode to their true values");
}

void test_decode_refuses_window_overflow() {
  const std::uint64_t w = 100;
  const std::uint64_t t_root = 1'000'000;
  std::vector<double> out;
  // 64 W old: it would alias onto a newer slot.
  const StalenessDecode dec =
      decode_staleness(merged_leaves({t_root - 10, t_root - 64 * w}, w), t_root, w, out);
  check(!dec.ok && out.empty(), "an age of 64 W is refused, nothing appended");
}

void test_cross_checks() {
  const std::uint64_t w = 1'000;
  const std::uint64_t t_root = 200'000;
  std::vector<double> out;
  AggState s = merged_leaves({t_root - 3'000, t_root - 9'000, t_root - 15'000}, w);
  AggState bad_sum = s;
  bad_sum.sum -= 3 * 5'000.0;  // mean off by 5 slots, min/max untouched
  check(!decode_staleness(bad_sum, t_root, w, out).ok && out.empty(),
        "sum/count disagreeing with the slots is refused");
  AggState bad_count = s;
  bad_count.count += 1;
  check(!decode_staleness(bad_count, t_root, w, out).ok, "slot counts must add up to count");
  AggState bad_min = s;
  bad_min.min -= 20'000;
  check(!decode_staleness(bad_min, t_root, w, out).ok, "exact oldest must sit in the oldest slot");
  check(!decode_staleness(s, t_root - 4'000, w, out).ok, "a sample newer than the root is refused");
  check(decode_staleness(s, t_root, w, out).ok && out.size() == 3, "the untampered state decodes");
}

void test_percentile_rule() {
  check(highest_supported_percentile(0) == 0, "no samples, no percentile");
  check(highest_supported_percentile(39) == 50, "below 40 samples: median only");
  check(highest_supported_percentile(40) == 75, "40 samples support p75");
  check(highest_supported_percentile(999) == 95, "999 samples do not support p99");
  check(highest_supported_percentile(1000) == 99, "1000 samples support p99");
  check(highest_supported_percentile(9'999) == 99, "9999 samples do not support p99.9");
  check(highest_supported_percentile(10'000) == 99.9, "10000 samples support p99.9");
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  check(percentile(v, 50) == 50 && percentile(v, 99) == 99 && percentile(v, 100) == 100,
        "nearest-rank percentiles of 1..100");
  std::vector<double> one = {4.5};
  check(percentile(one, 99) == 4.5 && median_of({3, 1, 2}) == 2, "tiny sample sets");
  WindowedSamples win;
  for (const double x : {3.0, 1.0, 2.0}) win.add(0, x);  // window 0: p50 2
  for (const double x : {30.0, 10.0}) win.add(2, x);      // window 1 empty
  for (const double x : {5.0, 7.0, 6.0, 9.0}) win.add(3, x);
  win.add(4, 1000);  // beyond the windows asked for: left out
  std::size_t fewest = 0;
  check(win.median_percentile(4, 50, fewest) == 6 && fewest == 2,
        "windowed figure: median of per-window percentiles, empty windows skipped");
  check(win.pooled(4).size() == 9, "pooled samples stop at the last window asked for");
}

void test_exact_sum_oracle() {
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < 512; ++i) live.push_back(i);
  check(exact_sum(live, 0) == 512.0 * 513.0 / 2.0, "oracle: sum of i+1");
  check(exact_sum(live, 15) == 16.0 * 512.0 * 513.0 / 2.0, "oracle: tree t scales by t+1");
  check(exact_sum({0, 4, 9}, 1) == 2.0 * (1 + 5 + 10), "oracle over a subset of slots");
  // Any merge order of whole-number leaves gives the exact total.
  AggState forward, scrambled;
  for (std::size_t i = 0; i < live.size(); ++i) {
    forward.merge(AggState::of(static_cast<double>(leaf_value(i, 15))));
    const std::size_t j = (i * 97) % live.size();
    scrambled.merge(AggState::of(static_cast<double>(leaf_value(j, 15))));
  }
  check(sum_matches(forward, exact_sum(live, 15), 512) &&
            sum_matches(scrambled, exact_sum(live, 15), 512),
        "merged leaves equal the oracle exactly in any order");
  AggState off = forward;
  off.count -= 1;
  check(!sum_matches(off, exact_sum(live, 15), 512), "a missing leaf is caught");
  off = forward;
  off.sum += 1;
  check(!sum_matches(off, exact_sum(live, 15), 512), "a sum off by one is caught");
}

}  // namespace

int run_selftests() {
  test_leaf_encoding();
  test_decode_recovers_ages();
  test_decode_wraps_slots();
  test_decode_refuses_window_overflow();
  test_cross_checks();
  test_percentile_rule();
  test_exact_sum_oracle();
  std::printf("selftest: %d checks, %d failed\n", g_checks, g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace e2ebench
