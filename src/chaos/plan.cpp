#include "chaos/plan.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"

namespace dat::chaos {

const char* to_string(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kLeave:
      return "leave";
    case FaultKind::kRestart:
      return "restart";
    case FaultKind::kLossBurst:
      return "loss";
    case FaultKind::kLatencyBurst:
      return "latency";
    case FaultKind::kPartition:
      return "partition";
    case FaultKind::kHeal:
      return "heal";
    case FaultKind::kVerify:
      return "verify";
    case FaultKind::kRebalance:
      return "rebalance";
    case FaultKind::kSigabrt:
      return "sigabrt";
  }
  return "?";
}

bool targets_slot(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::kCrash:
    case FaultKind::kLeave:
    case FaultKind::kRestart:
    case FaultKind::kPartition:
    case FaultKind::kHeal:
    case FaultKind::kSigabrt:
      return true;
    case FaultKind::kLossBurst:
    case FaultKind::kLatencyBurst:
    case FaultKind::kVerify:
    case FaultKind::kRebalance:
      return false;
  }
  return false;
}

namespace {

bool is_burst(FaultKind k) noexcept {
  return k == FaultKind::kLossBurst || k == FaultKind::kLatencyBurst;
}

}  // namespace

std::string FaultEvent::describe() const {
  std::ostringstream oss;
  oss << "t=" << at_us / 1000 << "ms " << to_string(kind);
  if (targets_slot(kind)) oss << " slot=" << slot;
  if (is_burst(kind)) {
    oss << " x=" << magnitude << " for=" << duration_us / 1000 << "ms";
  }
  return oss.str();
}

ChaosPlan& ChaosPlan::crash(std::uint64_t at_us, std::size_t slot) {
  events.push_back({at_us, FaultKind::kCrash, slot, 0.0, 0});
  return *this;
}

ChaosPlan& ChaosPlan::leave(std::uint64_t at_us, std::size_t slot) {
  events.push_back({at_us, FaultKind::kLeave, slot, 0.0, 0});
  return *this;
}

ChaosPlan& ChaosPlan::restart(std::uint64_t at_us, std::size_t slot) {
  events.push_back({at_us, FaultKind::kRestart, slot, 0.0, 0});
  return *this;
}

ChaosPlan& ChaosPlan::loss_burst(std::uint64_t at_us, double rate,
                                 std::uint64_t duration_us) {
  events.push_back({at_us, FaultKind::kLossBurst, 0, rate, duration_us});
  return *this;
}

ChaosPlan& ChaosPlan::latency_burst(std::uint64_t at_us, double multiplier,
                                    std::uint64_t duration_us) {
  events.push_back(
      {at_us, FaultKind::kLatencyBurst, 0, multiplier, duration_us});
  return *this;
}

ChaosPlan& ChaosPlan::partition(std::uint64_t at_us, std::size_t slot) {
  events.push_back({at_us, FaultKind::kPartition, slot, 0.0, 0});
  return *this;
}

ChaosPlan& ChaosPlan::heal(std::uint64_t at_us, std::size_t slot) {
  events.push_back({at_us, FaultKind::kHeal, slot, 0.0, 0});
  return *this;
}

ChaosPlan& ChaosPlan::verify(std::uint64_t at_us) {
  events.push_back({at_us, FaultKind::kVerify, 0, 0.0, 0});
  return *this;
}

ChaosPlan& ChaosPlan::rebalance(std::uint64_t at_us) {
  events.push_back({at_us, FaultKind::kRebalance, 0, 0.0, 0});
  return *this;
}

ChaosPlan& ChaosPlan::sigabrt(std::uint64_t at_us, std::size_t slot) {
  events.push_back({at_us, FaultKind::kSigabrt, slot, 0.0, 0});
  return *this;
}

void ChaosPlan::sort_events() {
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at_us < b.at_us;
                   });
}

std::size_t ChaosPlan::phases() const {
  std::size_t n = 0;
  for (const FaultEvent& e : events) {
    if (e.kind == FaultKind::kVerify) ++n;
  }
  return n;
}

std::string ChaosPlan::to_spec() const {
  std::ostringstream oss;
  oss << "seed " << seed << "\n";
  oss << "nodes " << nodes << "\n";
  // Only a non-default assignment line is spelled out, keeping plans
  // without one round-tripping byte-identically.
  if (random_ids) oss << "assign random\n";
  for (const FaultEvent& e : events) {
    oss << e.at_us / 1000 << " " << to_string(e.kind);
    if (targets_slot(e.kind)) oss << " " << e.slot;
    if (is_burst(e.kind)) {
      oss << " " << e.magnitude << " " << e.duration_us / 1000;
    }
    oss << "\n";
  }
  return oss.str();
}

namespace {

[[noreturn]] void bad_line(const std::string& line, const char* why) {
  throw std::invalid_argument(std::string("ChaosPlan::parse: ") + why +
                              " in line: \"" + line + "\"");
}

/// Reads the next whitespace-separated field as an unsigned decimal: digits
/// only, so a sign (which the stream extractors and std::stoull would wrap
/// around) or a trailing letter is an error.
std::uint64_t next_u64(std::istringstream& fields, const std::string& line,
                       const char* what) {
  std::string token;
  std::uint64_t value = 0;
  if (fields >> token) {
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, value);
    if (ec == std::errc() && ptr == end) return value;
  }
  bad_line(line, what);
}

/// The kind spelled `verb` in a spec (the inverse of to_string).
bool kind_from(const std::string& verb, FaultKind& kind) {
  for (auto k = static_cast<int>(FaultKind::kCrash);
       k <= static_cast<int>(FaultKind::kSigabrt); ++k) {
    if (verb == to_string(static_cast<FaultKind>(k))) {
      kind = static_cast<FaultKind>(k);
      return true;
    }
  }
  return false;
}

/// Milliseconds to microseconds, rejecting values whose product wraps.
std::uint64_t ms_to_us(std::uint64_t ms, const std::string& line) {
  if (ms > std::numeric_limits<std::uint64_t>::max() / 1000) {
    bad_line(line, "time out of range");
  }
  return ms * 1000;
}

}  // namespace

ChaosPlan ChaosPlan::parse(std::string_view spec) {
  ChaosPlan plan;
  plan.events.clear();
  std::istringstream input{std::string(spec)};
  std::string line;
  bool seen_seed = false;
  bool seen_nodes = false;
  bool seen_assign = false;
  while (std::getline(input, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream fields(line);

    std::string head;
    fields >> head;
    if (head == "seed") {
      if (seen_seed) bad_line(line, "duplicate seed");
      seen_seed = true;
      plan.seed = next_u64(fields, line, "bad seed");
      continue;
    }
    if (head == "nodes") {
      if (seen_nodes) bad_line(line, "duplicate nodes");
      seen_nodes = true;
      plan.nodes = next_u64(fields, line, "bad node count");
      if (plan.nodes == 0) bad_line(line, "node count must be positive");
      continue;
    }
    if (head == "assign") {
      if (seen_assign) bad_line(line, "duplicate assign");
      seen_assign = true;
      std::string mode;
      if (!(fields >> mode)) bad_line(line, "missing assignment mode");
      if (mode == "random") plan.random_ids = true;
      else if (mode == "probed") plan.random_ids = false;
      else bad_line(line, "unknown assignment mode");
      continue;
    }

    std::istringstream time_field(head);
    const std::uint64_t at_us = ms_to_us(
        next_u64(time_field, line, "expected a millisecond timestamp"), line);

    std::string verb;
    if (!(fields >> verb)) bad_line(line, "missing event verb");
    FaultEvent event;
    event.at_us = at_us;
    if (!kind_from(verb, event.kind)) bad_line(line, "unknown event verb");
    if (targets_slot(event.kind)) {
      event.slot = next_u64(fields, line, "missing slot");
    }
    if (is_burst(event.kind)) {
      if (!(fields >> event.magnitude)) {
        bad_line(line, "expected <magnitude> <duration_ms>");
      }
      event.duration_us = ms_to_us(
          next_u64(fields, line, "expected <magnitude> <duration_ms>"), line);
      // The same ranges SimNetwork enforces, checked before any event runs.
      const double m = event.magnitude;
      if (event.kind == FaultKind::kLossBurst && !(m >= 0.0 && m < 1.0)) {
        bad_line(line, "loss rate must be in [0, 1)");
      }
      if (event.kind == FaultKind::kLatencyBurst &&
          !(m >= 0.0 && std::isfinite(m))) {
        bad_line(line, "latency multiplier must be finite and >= 0");
      }
    }
    plan.events.push_back(event);
  }
  // Victim slots can only be range-checked once the node count is final
  // (the `nodes` line may legally follow the events it governs).
  for (const FaultEvent& e : plan.events) {
    if (targets_slot(e.kind) && e.slot >= plan.nodes) {
      throw std::invalid_argument(
          "ChaosPlan::parse: slot " + std::to_string(e.slot) +
          " out of range for " + std::to_string(plan.nodes) +
          " nodes in event: \"" + e.describe() + "\"");
    }
  }
  plan.sort_events();
  return plan;
}

ChaosPlan ChaosPlan::load(const std::string& path, const std::string& campaign,
                          std::uint64_t seed, std::size_t nodes,
                          bool processes) {
  if (!path.empty()) {
    std::ifstream in(path);
    if (!in) throw std::invalid_argument("cannot open plan file " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return parse(text.str());
  }
  if (campaign == "canonical") {
    return processes ? process_canonical(seed, nodes) : canonical(seed, nodes);
  }
  if (campaign == "selfmon") {
    return processes ? process_selfmon(seed, nodes) : selfmon(seed, nodes);
  }
  if (campaign == "rebalance-skew") return rebalance_skew(seed, nodes);
  throw std::invalid_argument("unknown --campaign " + campaign);
}

ChaosPlan ChaosPlan::canonical(std::uint64_t seed, std::size_t nodes) {
  if (nodes < 4) {
    throw std::invalid_argument("ChaosPlan::canonical: need >= 4 nodes");
  }
  Rng rng(seed * 7919 + 17);
  // Distinct victim slots, excluding slot 0 so the verifier always has a
  // stable probe node (any slot may still crash in hand-written plans).
  const auto pick = [&](std::size_t avoid) {
    for (;;) {
      const auto slot = 1 + static_cast<std::size_t>(
                                rng.next_below(static_cast<std::uint64_t>(
                                    nodes - 1)));
      if (slot != avoid) return slot;
    }
  };
  const std::size_t crash_victim = pick(0);
  const std::size_t leave_victim = pick(crash_victim);
  // The leaver stays gone, so the partition must target someone else; the
  // crash victim has restarted by then and is fair game again.
  const std::size_t part_victim = pick(leave_victim);

  ChaosPlan plan;
  plan.seed = seed;
  plan.nodes = nodes;
  // Phase 1: abrupt crash, then the same slot restarts and rejoins.
  plan.crash(1'000'000, crash_victim);
  plan.verify(3'000'000);
  plan.restart(4'000'000, crash_victim);
  plan.verify(6'000'000);
  // Phase 2: graceful leave (stays gone).
  plan.leave(7'000'000, leave_victim);
  plan.verify(9'000'000);
  // Phase 3: 20% loss burst across the fabric.
  plan.loss_burst(10'000'000, 0.20, 2'000'000);
  plan.verify(13'000'000);
  // Phase 4: partition one node, then heal it.
  plan.partition(14'000'000, part_victim);
  plan.verify(16'000'000);
  plan.heal(17'000'000, part_victim);
  plan.verify(19'000'000);
  // Phase 5: 8x latency spike.
  plan.latency_burst(20'000'000, 8.0, 2'000'000);
  plan.verify(23'000'000);
  return plan;
}

namespace {

/// A Fisher-Yates shuffle of [1, nodes) drawn from `rng`: slot 0 (the
/// probe and bootstrap node) is never a victim.
std::vector<std::size_t> shuffled_victims(Rng rng, std::size_t nodes) {
  std::vector<std::size_t> victims(nodes - 1);
  for (std::size_t i = 0; i < victims.size(); ++i) victims[i] = i + 1;
  for (std::size_t i = victims.size(); i > 1; --i) {
    std::swap(victims[i - 1],
              victims[static_cast<std::size_t>(
                  rng.next_below(static_cast<std::uint64_t>(i)))]);
  }
  return victims;
}

}  // namespace

ChaosPlan ChaosPlan::process_canonical(std::uint64_t seed, std::size_t nodes) {
  if (nodes < 8) {
    throw std::invalid_argument("ChaosPlan::process_canonical: need >= 8 nodes");
  }
  // Slot 0 is the bootstrap seed every restarted daemon rejoins through, so
  // it is never a victim.
  const std::vector<std::size_t> victims =
      shuffled_victims(Rng(seed * 104729 + 31), nodes);
  const std::size_t kills = std::max<std::size_t>(1, nodes / 4);   // 25%
  const std::size_t terms = std::max<std::size_t>(1, nodes / 10);  // 10%
  const std::size_t restarts = std::max<std::size_t>(1, kills / 2);

  ChaosPlan plan;
  plan.seed = seed;
  plan.nodes = nodes;
  // Phase 1: baseline — the freshly booted fleet must converge and cover.
  plan.verify(3'000'000);
  // Phase 2: crash wave over 25% of the fleet, spread across ~2s.
  for (std::size_t i = 0; i < kills; ++i) {
    plan.crash(4'000'000 + i * (2'000'000 / kills), victims[i]);
  }
  plan.verify(15'000'000);
  // Phase 3: half the killed slots come back with bumped incarnations.
  for (std::size_t i = 0; i < restarts; ++i) {
    plan.restart(16'000'000 + i * (2'000'000 / restarts), victims[i]);
  }
  plan.verify(28'000'000);
  // Phase 4: leave wave over 10% — graceful drains whose aggregate
  // conservation the verifier checks.
  for (std::size_t i = 0; i < terms; ++i) {
    plan.leave(29'000'000 + i * (2'000'000 / terms), victims[kills + i]);
  }
  plan.verify(40'000'000);
  return plan;
}

ChaosPlan ChaosPlan::selfmon(std::uint64_t seed, std::size_t nodes) {
  if (nodes < 4) {
    throw std::invalid_argument("ChaosPlan::selfmon: need >= 4 nodes");
  }
  const std::vector<std::size_t> victims =
      shuffled_victims(Rng(seed * 52361 + 7), nodes);
  const std::size_t kills = std::max<std::size_t>(1, nodes / 4);  // 25%

  ChaosPlan plan;
  plan.seed = seed;
  plan.nodes = nodes;
  // Phase 1: baseline — the fleet monitors itself, every alert clear.
  plan.verify(3'000'000);
  // Phase 2: crash wave; the coverage alert must FIRE at the verify.
  for (std::size_t i = 0; i < kills; ++i) {
    plan.crash(4'000'000 + i * (1'000'000 / kills), victims[i]);
  }
  plan.verify(6'000'000);
  // Phase 3: every victim returns; the alert must CLEAR within the SLO.
  for (std::size_t i = 0; i < kills; ++i) {
    plan.restart(8'000'000 + i * (1'000'000 / kills), victims[i]);
  }
  plan.verify(11'000'000);
  return plan;
}

ChaosPlan ChaosPlan::process_selfmon(std::uint64_t seed, std::size_t nodes) {
  if (nodes < 8) {
    throw std::invalid_argument("ChaosPlan::process_selfmon: need >= 8 nodes");
  }
  const std::vector<std::size_t> victims =
      shuffled_victims(Rng(seed * 52361 + 7), nodes);
  const std::size_t kills = std::max<std::size_t>(1, nodes / 4);  // 25%

  ChaosPlan plan;
  plan.seed = seed;
  plan.nodes = nodes;
  // Phase 1: baseline.
  plan.verify(4'000'000);
  // Phase 2: kill wave. The first victim aborts — its crash handler writes
  // a postmortem dump the process fleet archives — and the rest crash.
  plan.sigabrt(5'000'000, victims[0]);
  for (std::size_t i = 1; i < kills; ++i) {
    plan.crash(5'000'000 + i * (2'000'000 / kills), victims[i]);
  }
  plan.verify(16'000'000);
  // Phase 3: all victims restart; the coverage alert must clear.
  for (std::size_t i = 0; i < kills; ++i) {
    plan.restart(17'000'000 + i * (2'000'000 / kills), victims[i]);
  }
  plan.verify(30'000'000);
  return plan;
}

ChaosPlan ChaosPlan::rebalance_skew(std::uint64_t seed, std::size_t nodes) {
  if (nodes < 8) {
    throw std::invalid_argument("ChaosPlan::rebalance_skew: need >= 8 nodes");
  }
  ChaosPlan plan;
  plan.seed = seed;
  plan.nodes = nodes;
  plan.random_ids = true;  // deploy unbalanced on purpose
  // Phase 1: baseline. The skewed deployment must still aggregate correctly
  // — and this is where the campaign measures the unbalanced branching the
  // rebalancer is about to repair.
  plan.verify(2'000'000);
  // Phase 2: activate the rebalancer (it consumes virtual time itself, one
  // measured round per epoch, up to the SLO budget; missing the SLO is a
  // violation), then verify that the repaired deployment still meets every
  // recovery check.
  plan.rebalance(4'000'000);
  plan.verify(4'100'000);
  return plan;
}

}  // namespace dat::chaos
