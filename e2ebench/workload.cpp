#include "workload.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "chord/ring_view.hpp"
#include "chord/types.hpp"
#include "dat/tree.hpp"
#include "harness/live_tree.hpp"
#include "harness/sim_cluster.hpp"
#include "harness/udp_cluster.hpp"
#include "measure.hpp"
#include "net/transport.hpp"
#include "netio/netio_network.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/selfmon.hpp"

namespace e2ebench {
namespace {

using dat::Id;
using dat::core::AggregateKind;
using dat::core::AggState;
using dat::chord::RoutingScheme;
using Clock = std::chrono::steady_clock;

constexpr RoutingScheme kScheme = RoutingScheme::kBalanced;

/// Make-up of one workload. The README's workload table mirrors this.
struct Spec {
  const char* name;
  bool simulated;
  std::size_t nodes;
  std::size_t sum_trees;     ///< SUM trees
  std::size_t stale_trees;   ///< staleness (histogram) trees
  std::uint64_t epoch_us;    ///< push period of every workload tree
  bool selfmon;
  unsigned clients;          ///< closed-loop requests kept outstanding
  std::uint64_t think_us;    ///< pause before a client's next request
  std::uint64_t slice_us;    ///< pump slice, fleet clock
  std::uint64_t check_us;    ///< root-history check period, fleet clock
  std::uint64_t round_us;    ///< sim: one window of virtual time
  double window_margin;      ///< staleness slot window over (height + 3) epochs
};

const Spec kSpecs[] = {
    {"sim-fleet", true, 512, 16, 8, 500'000, true, 4, 20'000, 500'000, 500'000,
     1'000'000, 1.25},
    // Not in BENCHMARK.json: under this write load its read probe spreads
    // beyond the read metrics' bounds from run to run (README).
    {"udp-push", false, 64, 40, 10, 50'000, false, 4, 4'000, 10'000, 200'000, 0, 2.5},
    {"udp-query", false, 64, 2, 4, 50'000, false, 4, 4'000, 10'000, 200'000, 0, 2.5},
};

const Spec& spec_of(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return s;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

// Independent random streams drawn from the one workload seed.
constexpr std::uint64_t kPhaseStream = 0x5048415345ull;
constexpr std::uint64_t kQueryStream = 0x5155455259ull;
constexpr std::uint64_t kLookupStream = 0x4C4F4F4Bull;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t process_cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ns = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(tv.tv_usec) * 1'000ull;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------------
// Spans of the traced run: one per call the benchmark makes into a layer,
// kept in memory and written as a Chrome trace when the run ends. With
// tracing off every call is a no-op.

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on), t0_(Clock::now()) {}

  [[nodiscard]] std::uint64_t now_us() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0_)
            .count());
  }
  /// A fresh request id; spans of one request share it as trace id.
  std::uint64_t new_id() { return ++last_id_; }

  void record(const char* name, std::uint64_t trace_id, std::uint64_t parent,
              std::uint64_t start_us, std::uint64_t end_us, std::uint64_t key = 0) {
    if (!on_) return;
    dat::obs::Span s;
    s.trace_id = trace_id;
    s.span_id = new_id();
    s.parent_span_id = parent;
    s.name = name;
    s.start_us = start_us;
    s.end_us = end_us;
    s.key = key;
    spans_.push_back(s);
  }

  /// Times `fn` as span `name` and returns its duration in seconds.
  template <typename Fn>
  double timed(const char* name, std::uint64_t trace_id, Fn&& fn) {
    const std::uint64_t start = now_us();
    const auto t0 = Clock::now();
    fn();
    const double s = seconds_since(t0);
    record(name, trace_id, 0, start, now_us());
    return s;
  }

  void write(const std::string& path) const {
    if (!on_ || path.empty()) return;
    std::ofstream out(path);
    out << dat::obs::to_chrome_trace({{"e2ebench", 1, spans_}});
    if (!out) throw std::runtime_error("cannot write trace file " + path);
  }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

 private:
  bool on_;
  Clock::time_point t0_;
  std::uint64_t last_id_ = 0;
  std::vector<dat::obs::Span> spans_;
};

// ---------------------------------------------------------------------------
// One deployment behind a narrow seam, so the measured phase, the checks
// and the query client are the same code on the simulator and on sockets.

struct Traffic {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

class Fleet {
 public:
  virtual ~Fleet() = default;
  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  [[nodiscard]] virtual std::size_t size() const = 0;
  [[nodiscard]] virtual const dat::IdSpace& space() const = 0;
  virtual dat::chord::Node& node(std::size_t i) = 0;
  virtual dat::core::DatNode& dat(std::size_t i) = 0;
  /// The clock every node's timers and root timestamps use: virtual time on
  /// the simulator, wall time since the network was built on sockets.
  virtual std::uint64_t clock_us() = 0;
  virtual void run_for(std::uint64_t us) = 0;
  virtual bool converge() = 0;
  [[nodiscard]] virtual dat::chord::RingView ring() const = 0;
  /// The cluster-wide roll-up the program exports.
  [[nodiscard]] virtual dat::obs::MetricsSnapshot telemetry_snapshot() const = 0;
  [[nodiscard]] virtual dat::netio::ReactorCounters reactor() const { return {}; }
  [[nodiscard]] virtual std::uint64_t sim_events() { return 0; }
  [[nodiscard]] virtual std::size_t sim_queue_len() { return 0; }

  [[nodiscard]] Traffic traffic() {
    Traffic t;
    for (std::size_t i = 0; i < size(); ++i) {
      const auto& c = node(i).rpc().transport().counters();
      t.messages += c.messages_sent;
      t.bytes += c.bytes_sent;
    }
    return t;
  }
};

class SimFleet final : public Fleet {
 public:
  SimFleet(const Spec& spec, std::uint64_t seed) {
    dat::harness::ClusterOptions o;
    o.seed = seed;
    o.dat.epoch_us = spec.epoch_us;
    o.with_selfmon = spec.selfmon;
    cluster_ = std::make_unique<dat::harness::SimCluster>(spec.nodes, std::move(o));
  }
  std::size_t size() const override { return cluster_->slot_count(); }
  const dat::IdSpace& space() const override { return cluster_->space(); }
  dat::chord::Node& node(std::size_t i) override { return cluster_->node(i); }
  dat::core::DatNode& dat(std::size_t i) override { return cluster_->dat(i); }
  std::uint64_t clock_us() override { return cluster_->engine().now(); }
  void run_for(std::uint64_t us) override { cluster_->run_for(us); }
  bool converge() override { return cluster_->wait_converged(600'000'000); }
  dat::chord::RingView ring() const override { return cluster_->ring_view(); }
  dat::obs::MetricsSnapshot telemetry_snapshot() const override {
    return cluster_->telemetry_snapshot();
  }
  std::uint64_t sim_events() override { return cluster_->engine().queue().fired(); }
  std::size_t sim_queue_len() override { return cluster_->engine().queue().size(); }
  dat::harness::SimCluster& cluster() { return *cluster_; }

 private:
  std::unique_ptr<dat::harness::SimCluster> cluster_;
};

class UdpFleet final : public Fleet {
 public:
  UdpFleet(const Spec& spec, std::uint64_t seed) {
    // The event-loop backend is netio: main() selects it for the whole
    // process before any cluster exists, and the cast below refuses any
    // other host network.
    dat::harness::UdpClusterOptions o;
    o.seed = seed;
    o.node.stabilize_interval_us = 30'000;
    o.dat.epoch_us = spec.epoch_us;
    cluster_ = std::make_unique<dat::harness::UdpCluster>(spec.nodes, o);
    netio_ = dynamic_cast<dat::netio::NetioNetwork*>(&cluster_->network());
    if (netio_ == nullptr) {
      throw std::runtime_error("UdpCluster is not hosted on netio::NetioNetwork");
    }
  }
  std::size_t size() const override { return cluster_->size(); }
  const dat::IdSpace& space() const override { return cluster_->space(); }
  dat::chord::Node& node(std::size_t i) override { return cluster_->node(i); }
  dat::core::DatNode& dat(std::size_t i) override { return cluster_->dat(i); }
  std::uint64_t clock_us() override { return cluster_->network().now_us(); }
  void run_for(std::uint64_t us) override { cluster_->run_for(us); }
  bool converge() override {
    if (!cluster_->wait_converged()) return false;
    cluster_->inject_d0_hints();
    return true;
  }
  dat::chord::RingView ring() const override { return cluster_->ring_view(); }
  dat::obs::MetricsSnapshot telemetry_snapshot() const override {
    return cluster_->telemetry_snapshot();
  }
  dat::netio::ReactorCounters reactor() const override {
    return netio_->reactor().counters();
  }

 private:
  std::unique_ptr<dat::harness::UdpCluster> cluster_;
  dat::netio::NetioNetwork* netio_ = nullptr;
};

// ---------------------------------------------------------------------------
// Deployment: a fleet with the workload's trees registered and warm.

struct Deployment {
  const Spec* spec = nullptr;
  std::vector<Id> keys;  ///< the SUM keys, then the staleness keys
  std::size_t n_sum = 0;  ///< number of SUM keys
  std::vector<dat::core::Tree> trees;
  std::vector<std::size_t> root_slot;  ///< per key
  std::vector<std::size_t> live;       ///< slots contributing a leaf value
  std::vector<Id> selfmon_keys;
  std::uint64_t width_us = 0;          ///< staleness slot width W
  unsigned max_height = 0;
  std::size_t max_children = 0;
  double boot_s = 0, converge_s = 0, register_s = 0, warmup_s = 0, setup_s = 0;
  /// Leaf sample times of the staleness tree, for the measured push period.
  std::vector<std::uint64_t> last_sample;
  double push_interval_sum_us = 0;
  std::uint64_t push_intervals = 0;
  /// Declared last so it is destroyed first: leaf closures reference the
  /// members above.
  std::unique_ptr<Fleet> fleet;

  [[nodiscard]] std::size_t sum_trees() const { return n_sum; }
  [[nodiscard]] bool is_staleness(std::size_t k) const { return k >= n_sum; }
  [[nodiscard]] Id stale_key() const { return keys[n_sum]; }

  void note_sample(std::size_t slot, std::uint64_t t) {
    if (last_sample[slot] != 0 && t > last_sample[slot]) {
      push_interval_sum_us += static_cast<double>(t - last_sample[slot]);
      ++push_intervals;
    }
    last_sample[slot] = t;
  }
  void reset_push_period() {
    push_interval_sum_us = 0;
    push_intervals = 0;
  }

  void register_leaf(std::size_t slot) {
    dat::core::DatNode& dn = fleet->dat(slot);
    for (std::size_t t = 0; t < sum_trees(); ++t) {
      const double v = static_cast<double>(leaf_value(slot, t));
      dn.start_aggregate(keys[t], AggregateKind::kSum, kScheme, [v] { return v; });
    }
    dat::net::Transport& clock = fleet->node(slot).rpc().transport();
    for (std::size_t k = n_sum; k < keys.size(); ++k) {
      const bool timed = k == n_sum;  // one tree gives the push period
      dn.start_aggregate_state(keys[k], AggregateKind::kHistogram, kScheme,
                               [this, slot, timed, &clock] {
                                 const std::uint64_t t = clock.now_us();
                                 if (timed) note_sample(slot, t);
                                 return staleness_leaf(t, width_us);
                               });
    }
  }
};

std::unique_ptr<Deployment> deploy(const Spec& spec, std::uint64_t seed,
                                   SpanLog& spans) {
  auto d = std::make_unique<Deployment>();
  d->spec = &spec;
  const std::uint64_t req = spans.new_id();
  const auto t0 = Clock::now();
  d->boot_s = spans.timed("harness.boot", req, [&] {
    if (spec.simulated) {
      d->fleet = std::make_unique<SimFleet>(spec, seed);
    } else {
      d->fleet = std::make_unique<UdpFleet>(spec, seed);
    }
  });
  Fleet& fleet = *d->fleet;
  bool converged = false;
  d->converge_s = spans.timed("harness.wait_converged", req,
                              [&] { converged = fleet.converge(); });
  if (!converged) throw std::runtime_error("the ring did not converge");

  const dat::chord::RingView ring = fleet.ring();
  std::unordered_map<Id, std::size_t> slot_of;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    slot_of[fleet.node(i).id()] = i;
    d->live.push_back(i);
  }
  d->n_sum = spec.sum_trees;
  for (std::size_t t = 0; t < spec.sum_trees + spec.stale_trees; ++t) {
    const std::string name =
        t < spec.sum_trees ? "e2ebench.sum." + std::to_string(t)
                           : "e2ebench.staleness." + std::to_string(t - spec.sum_trees);
    d->keys.push_back(dat::core::rendezvous_key(name, fleet.space()));
    d->trees.emplace_back(ring, d->keys.back(), kScheme);
    d->root_slot.push_back(slot_of.at(d->trees.back().root()));
    d->max_height = std::max(d->max_height, d->trees.back().height());
    d->max_children = std::max(d->max_children, d->trees.back().max_branching());
  }
  if (spec.selfmon) {
    for (const auto& series : dat::obs::SelfMonitor::default_series()) {
      d->selfmon_keys.push_back(dat::core::rendezvous_key(
          dat::obs::SelfMonitor::tree_name(series.name), fleet.space()));
    }
  }
  // Slot width: 64 slots cover the margin times (height + 3) epochs, which
  // bounds every leaf-to-root age (one epoch of waiting per level).
  const double window =
      spec.window_margin * static_cast<double>(d->max_height + 3) *
      static_cast<double>(spec.epoch_us);
  d->width_us = static_cast<std::uint64_t>(window / 64.0) + 1;
  d->last_sample.assign(fleet.size(), 0);

  // Every node registers its trees at a seeded phase within one epoch, as
  // independent hosts would, instead of all in lockstep.
  d->register_s = spans.timed("dat.register_trees", req, [&] {
    SeededRng rng(seed ^ kPhaseStream);
    for (const std::size_t slot : d->live) {
      const std::uint64_t phase = rng.below(spec.epoch_us);
      Deployment* dp = d.get();
      fleet.node(slot).rpc().transport().set_timer(
          phase, [dp, slot] { dp->register_leaf(slot); });
    }
    fleet.run_for(spec.epoch_us + spec.slice_us);
  });
  // Warm-up: every level of every tree has pushed a complete subtree.
  d->warmup_s = spans.timed("harness.warmup", req, [&] {
    fleet.run_for(static_cast<std::uint64_t>(d->max_height + 4) * spec.epoch_us);
  });
  d->setup_s = seconds_since(t0);
  std::fprintf(stderr,
               "e2ebench: %s set up in %.3f s (boot %.3f, converge %.3f, register %.3f, "
               "warm-up %.3f)\n",
               spec.name, d->setup_s, d->boot_s, d->converge_s, d->register_s, d->warmup_s);
  return d;
}

// ---------------------------------------------------------------------------
// Checks.

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::vector<std::string> errors;

  void wrong_output(std::string what) {
    ++wrong;
    if (errors.size() < 8) errors.push_back(std::move(what));
  }
};

/// The live DAT of every key (each node's own dat_parent) against the
/// core::Tree of the converged RingView: same parent for every node, and
/// the same shape statistics.
void check_live_trees(Deployment& d, Checks& checks) {
  Fleet& fleet = *d.fleet;
  for (std::size_t k = 0; k < d.keys.size(); ++k) {
    ++checks.attempted;
    const dat::core::Tree& tree = d.trees[k];
    std::vector<std::pair<Id, std::optional<Id>>> edges;
    bool parents_match = true;
    for (const std::size_t i : d.live) {
      const Id id = fleet.node(i).id();
      const auto parent = fleet.node(i).dat_parent(d.keys[k], kScheme);
      edges.emplace_back(id, parent ? std::optional<Id>(parent->id) : std::nullopt);
      const bool root = tree.is_root(id);
      if (root != !parent.has_value() || (parent && tree.parent(id) != parent->id)) {
        parents_match = false;
      }
    }
    auto* sim = dynamic_cast<SimFleet*>(&fleet);
    const dat::harness::LiveTreeStats live =
        sim != nullptr ? dat::harness::live_tree_stats(sim->cluster(), d.keys[k], kScheme)
                       : dat::harness::live_tree_stats(edges);
    const bool shape_match = live.nodes == tree.size() && live.roots == 1 &&
                             live.reaching_root == live.nodes &&
                             live.max_branching == tree.max_branching() &&
                             live.height == tree.height();
    if (!parents_match || !shape_match) {
      checks.wrong_output("live tree of key " + std::to_string(d.keys[k]) +
                          " differs from the RingView tree");
    }
  }
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Reads every root's history and checks each root epoch in the window.
struct RootChecker {
  std::uint64_t from_us = 0;
  std::vector<std::uint64_t> last_epoch;
  WindowedSamples ages_us;  ///< every leaf's age at every checked root epoch
  std::size_t window = 0;   ///< window the next decoded ages belong to
  std::uint64_t root_epochs = 0;
  std::uint64_t digest = 0xCBF29CE484222325ull;
  AggState sum_payload;    ///< a SUM root value, for the codec/merge batches
  AggState stale_payload;  ///< a staleness root value

  void check(Deployment& d, std::uint64_t upto_us, Checks& checks) {
    if (last_epoch.empty()) last_epoch.assign(d.keys.size(), 0);
    const std::uint64_t n = d.live.size();
    for (std::size_t k = 0; k < d.keys.size(); ++k) {
      // Only the RingView root may hold a root value: a node that took
      // itself for the root at its last epoch answers queries with the sum
      // of its own subtree.
      for (const std::size_t i : d.live) {
        if (i == d.root_slot[k] || !d.fleet->dat(i).latest(d.keys[k])) continue;
        const auto g = d.fleet->dat(i).latest(d.keys[k]);
        checks.wrong_output("slot " + std::to_string(i) + " holds a root value of tree " +
                            std::to_string(k) + " (" + std::to_string(g->state.count) +
                            " leaves); the root is slot " + std::to_string(d.root_slot[k]));
      }
      const auto history = d.fleet->dat(d.root_slot[k]).history(d.keys[k]);
      for (const auto& g : history) {
        if (g.updated_at_us < from_us || g.updated_at_us > upto_us) continue;
        if (g.epoch <= last_epoch[k]) continue;
        if (last_epoch[k] != 0 && g.epoch != last_epoch[k] + 1) {
          throw std::runtime_error("root history was read too rarely: epochs lost");
        }
        last_epoch[k] = g.epoch;
        ++checks.attempted;
        ++root_epochs;
        digest = fnv(fnv(fnv(digest, k), g.updated_at_us), bits_of(g.state.sum));
        if (!d.is_staleness(k)) {
          const double expected = exact_sum(d.live, k);
          if (!sum_matches(g.state, expected, n)) {
            checks.wrong_output("SUM tree " + std::to_string(k) + " epoch " +
                                std::to_string(g.epoch) + ": root " +
                                std::to_string(g.state.sum) + "/" +
                                std::to_string(g.state.count) + ", expected " +
                                std::to_string(expected) + "/" + std::to_string(n));
          }
          sum_payload = g.state;
          continue;
        }
        if (g.state.count != n) {
          checks.wrong_output("staleness tree epoch " + std::to_string(g.epoch) +
                              " counts " + std::to_string(g.state.count) +
                              " leaves, expected " + std::to_string(n));
          continue;
        }
        std::vector<double> ages;
        const StalenessDecode dec =
            decode_staleness(g.state, g.updated_at_us, d.width_us, ages);
        if (!dec.ok) {
          checks.wrong_output("staleness tree epoch " + std::to_string(g.epoch) +
                              ": " + dec.error);
        }
        for (const double a : ages) ages_us.add(window, a);
        stale_payload = g.state;
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Closed-loop query client: `clients` requests outstanding, each from a
// seeded random node to a seeded random SUM tree. Client 0 sends only
// on-demand collect_tree requests and the others only query_global, so
// about one request in four or five is a collect and no two collects
// overlap; overlapping collects slow each other, and how often they overlap
// follows the host's speed, which made the collect median unsteady
// (README, "Steadiness"). Each client draws from its own stream, so its
// requests depend on the seed alone. Every answer is checked against the
// exact sum.

class QueryClient {
 public:
  QueryClient(Deployment& d, std::uint64_t seed, SpanLog& spans, Checks& checks)
      : d_(d), spans_(spans), checks_(checks) {
    for (unsigned c = 0; c < d_.spec->clients; ++c) {
      rngs_.emplace_back(seed ^ kQueryStream ^ (static_cast<std::uint64_t>(c) << 40));
    }
  }

  void start(std::uint64_t window_end_us) {
    window_end_us_ = window_end_us;
    for (unsigned c = 0; c < d_.spec->clients; ++c) issue(c);
  }
  void close_window(std::uint64_t at_us) { window_end_us_ = at_us; }
  void stop() { stopped_ = true; }
  [[nodiscard]] unsigned outstanding() const noexcept { return outstanding_; }
  /// Requests still unanswered when the run ends count as failed.
  void abandon_outstanding() {
    checks_.failed += outstanding_;
    outstanding_ = 0;
  }

  WindowedSamples global_ms;
  WindowedSamples collect_ms;
  std::size_t window = 0;  ///< window the next completed request belongs to
  std::uint64_t completed_in_window = 0;
  std::uint64_t digest = 0xCBF29CE484222325ull;

 private:
  void issue(unsigned c) {
    Fleet& fleet = *d_.fleet;
    SeededRng& rng = rngs_[c];
    const std::size_t slot = d_.live[rng.below(d_.live.size())];
    const std::size_t tree = rng.below(d_.sum_trees());
    const bool collect = c == 0;
    const std::uint64_t start = fleet.clock_us();
    const std::uint64_t start_wall = spans_.now_us();
    const std::uint64_t req = spans_.new_id();
    ++outstanding_;
    ++checks_.attempted;
    const Id key = d_.keys[tree];
    if (collect) {
      fleet.dat(slot).collect_tree(
          key, [this, c, slot, tree, start, start_wall, req](const AggState& s) {
            done(c, slot, tree, start, start_wall, req, &s);
          });
    } else {
      fleet.dat(slot).query_global(
          key, [this, c, slot, tree, start, start_wall, req](
                   dat::net::RpcStatus st,
                   std::optional<dat::core::GlobalValue> g) {
            const bool ok = st == dat::net::RpcStatus::kOk && g.has_value();
            done(c, slot, tree, start, start_wall, req, ok ? &g->state : nullptr);
          });
    }
  }

  void done(unsigned c, std::size_t slot, std::size_t tree, std::uint64_t start,
            std::uint64_t start_wall, std::uint64_t req, const AggState* answer) {
    Fleet& fleet = *d_.fleet;
    const bool collect = c == 0;
    const std::uint64_t end = fleet.clock_us();
    --outstanding_;
    spans_.record(collect ? "dat.collect_tree" : "dat.query_global", req, 0,
                  start_wall, spans_.now_us(), d_.keys[tree]);
    if (answer == nullptr) {
      ++checks_.failed;
    } else {
      const double ms = static_cast<double>(end - start) / 1000.0;
      (collect ? collect_ms : global_ms).add(window, ms);
      if (end <= window_end_us_) ++completed_in_window;
      digest = fnv(fnv(digest, end - start), bits_of(answer->sum));
      if (!sum_matches(*answer, exact_sum(d_.live, tree), d_.live.size())) {
        checks_.wrong_output(std::string(collect ? "collect_tree" : "query_global") +
                             " on tree " + std::to_string(tree) + " answered " +
                             std::to_string(answer->sum) + "/" +
                             std::to_string(answer->count));
      }
    }
    if (stopped_) return;
    if (d_.spec->think_us == 0) {
      issue(c);
      return;
    }
    fleet.node(slot).rpc().transport().set_timer(d_.spec->think_us, [this, c] {
      if (!stopped_) issue(c);
    });
  }

  Deployment& d_;
  std::vector<SeededRng> rngs_;  ///< one stream per client
  SpanLog& spans_;
  Checks& checks_;
  unsigned outstanding_ = 0;
  bool stopped_ = false;
  std::uint64_t window_end_us_ = UINT64_MAX;
};

// ---------------------------------------------------------------------------
// Counter readings at the edges of the measured phase and of each window.

/// DAT child updates received, summed over every node and every tree in its
/// aggregation table (workload, selfmon and relay entries alike).
double updates_received(Fleet& fleet) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    dat::core::DatNode& dn = fleet.dat(i);
    for (const Id key : dn.active_keys()) total += dn.updates_received(key);
  }
  return static_cast<double>(total);
}

/// One window of the measured phase: the end-to-end rates are the medians
/// of the per-window rates, so a burst of outside load on the host moves a
/// few windows rather than the whole figure.
struct Window {
  double wall_s = 0;
  double cpu_ns = 0;
  double updates = 0;
  double completions = 0;
};

struct Reading {
  std::uint64_t cpu_ns = 0;
  std::uint64_t clock_us = 0;
  double updates = 0;
  double maintenance = 0;
  double retransmits = 0;
  double timeouts = 0;
  double parent_switches = 0;
  std::vector<std::uint64_t> child_staleness;  ///< histogram buckets
  std::vector<std::uint64_t> updates_in;       ///< per node, workload keys
  double selfmon_updates = 0;
  Traffic traffic;
  dat::netio::ReactorCounters reactor;
  std::uint64_t events = 0;
};

Reading read_counters(Deployment& d) {
  Fleet& fleet = *d.fleet;
  Reading r;
  r.clock_us = fleet.clock_us();
  r.events = fleet.sim_events();
  r.traffic = fleet.traffic();
  r.reactor = fleet.reactor();
  r.child_staleness.assign(kSlots, 0);
  r.updates = updates_received(fleet);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    for (const auto& s : fleet.node(i).telemetry().registry.snapshot().samples) {
      if (s.name == "dat_chord_maintenance_rpcs_total") r.maintenance += s.value;
      else if (s.name == "dat_rpc_retransmits_total") r.retransmits += s.value;
      else if (s.name == "dat_rpc_timeouts_total") r.timeouts += s.value;
      else if (s.name == "dat_tree_parent_switches_total") r.parent_switches += s.value;
      else if (s.name == "dat_tree_child_staleness_us") {
        for (std::size_t b = 0; b < s.buckets.size() && b < kSlots; ++b) {
          r.child_staleness[b] += s.buckets[b];
        }
      }
    }
    std::uint64_t in = 0;
    for (const Id key : d.keys) in += fleet.dat(i).updates_received(key);
    r.updates_in.push_back(in);
    for (const Id key : d.selfmon_keys) {
      r.selfmon_updates += static_cast<double>(fleet.dat(i).updates_received(key));
    }
  }
  r.cpu_ns = process_cpu_ns();  // last, so the readings above are outside
  return r;
}

// ---------------------------------------------------------------------------
// Timed layer batches of the traced run: the benchmark's own calls into the
// codec, AggState::merge and Node::dat_parent on the workload's payloads.

volatile std::uint64_t g_sink = 0;

template <typename Fn>
double ns_per_op(std::size_t ops, Fn&& batch) {
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    batch();
    samples.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
                      static_cast<double>(ops));
  }
  return median_of(samples);
}

dat::net::Message update_message(const Deployment& d, Id key, AggregateKind kind,
                                 const AggState& state) {
  dat::net::Writer w;
  w.u64(key);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u8(static_cast<std::uint8_t>(kScheme));
  dat::chord::write_node_ref(w, d.fleet->node(0).self());
  dat::core::write_agg_state(w, state);
  dat::net::Message m;
  m.kind = dat::net::MessageKind::kOneWay;
  m.method = "dat.update";
  m.body = w.take();
  m.trace = dat::net::WireTrace{1, 2};  // updates carry the wave's trace
  return m;
}

struct CodecTiming {
  double encode_ns = 0, decode_ns = 0, wire_bytes = 0;
};

CodecTiming time_codec(const Deployment& d, Id key, AggregateKind kind,
                       const AggState& state) {
  constexpr std::size_t kOps = 20'000;
  CodecTiming out;
  const dat::net::Message proto = update_message(d, key, kind, state);
  dat::net::Message msg = proto;
  std::vector<std::uint8_t> wire;
  proto.encode_into(wire);
  out.wire_bytes = static_cast<double>(wire.size());
  out.encode_ns = ns_per_op(kOps, [&] {
    for (std::size_t i = 0; i < kOps; ++i) {
      msg.body.clear();
      dat::net::Writer w(msg.body);
      w.u64(key);
      w.u8(static_cast<std::uint8_t>(kind));
      w.u8(static_cast<std::uint8_t>(kScheme));
      dat::chord::write_node_ref(w, d.fleet->node(0).self());
      dat::core::write_agg_state(w, state);
      msg.encode_into(wire);
      g_sink = g_sink + wire.size();
    }
  });
  out.decode_ns = ns_per_op(kOps, [&] {
    for (std::size_t i = 0; i < kOps; ++i) {
      auto decoded = dat::net::Message::try_decode(wire);
      if (!decoded.ok()) throw std::runtime_error("update payload failed to decode");
      dat::net::Reader r(decoded.value().body);
      g_sink = g_sink + r.u64() + r.u8() + r.u8();
      g_sink = g_sink + dat::chord::read_node_ref(r).id;
      g_sink = g_sink + dat::core::read_agg_state(r).count;
    }
  });
  return out;
}

double time_merge(const AggState& state) {
  constexpr std::size_t kOps = 100'000;
  return ns_per_op(kOps, [&] {
    AggState acc;
    for (std::size_t i = 0; i < kOps; ++i) acc.merge(state);
    g_sink = g_sink + acc.count;
  });
}

double time_dat_parent(Deployment& d) {
  std::size_t calls = 0;
  const double ns = ns_per_op(1, [&] {
    calls = 0;
    for (const std::size_t i : d.live) {
      for (const Id key : d.keys) {
        const auto p = d.fleet->node(i).dat_parent(key, kScheme);
        g_sink = g_sink + (p ? p->id : 0);
        ++calls;
      }
    }
  });
  return ns / static_cast<double>(calls);
}

struct LookupStats {
  std::vector<double> ms;
  double hops_sum = 0;
};

/// Closed loop of `count` find_successor lookups, 4 outstanding, seeded
/// origins and keys; every answer is checked against the RingView.
LookupStats run_lookups(Deployment& d, std::uint64_t seed, std::size_t count,
                        SpanLog& spans, Checks& checks) {
  Fleet& fleet = *d.fleet;
  const dat::chord::RingView ring = fleet.ring();
  LookupStats st;
  SeededRng rng(seed ^ kLookupStream);
  std::size_t issued = 0;
  unsigned outstanding = 0;
  std::function<void()> issue = [&] {
    if (issued == count) return;
    ++issued;
    ++outstanding;
    ++checks.attempted;
    const std::size_t slot = d.live[rng.below(d.live.size())];
    const Id key = rng.next() & fleet.space().mask();
    const std::uint64_t start = fleet.clock_us();
    const std::uint64_t start_wall = spans.now_us();
    const std::uint64_t req = spans.new_id();
    fleet.node(slot).find_successor_traced(
        key, [&, key, start, start_wall, req](dat::net::RpcStatus status,
                                              dat::chord::NodeRef ref, unsigned hops) {
          --outstanding;
          spans.record("chord.find_successor", req, 0, start_wall, spans.now_us(), key);
          if (status != dat::net::RpcStatus::kOk) {
            ++checks.failed;
          } else {
            st.ms.push_back(static_cast<double>(fleet.clock_us() - start) / 1000.0);
            st.hops_sum += hops;
            if (ref.id != ring.successor(key)) {
              checks.wrong_output("find_successor returned the wrong node");
            }
          }
          issue();
        });
  };
  for (int c = 0; c < 4; ++c) issue();
  const auto t0 = Clock::now();
  while (outstanding > 0 && seconds_since(t0) < 60) fleet.run_for(d.spec->slice_us / 10 + 1);
  checks.failed += outstanding;
  if (outstanding > 0) throw std::runtime_error("lookups did not complete");
  return st;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Appends the tail figure `name` at percentile `pct` and notes the sample
/// count; refuses a tail the samples cannot support.
void add_percentile(std::vector<Metric>& out, std::vector<std::string>& notes,
                    const char* name, std::vector<double>& samples, double pct) {
  const double supported = highest_supported_percentile(samples.size());
  if (supported < pct) {
    throw std::runtime_error(std::string(name) + ": " + std::to_string(samples.size()) +
                             " samples cannot support p" + fmt(pct) +
                             " (run longer)");
  }
  out.push_back({name, percentile(samples, pct), "ms"});
  notes.push_back(std::string(name) + ": p" + fmt(pct) + " of " +
                  std::to_string(samples.size()) + " samples (highest supported p" +
                  fmt(supported) + ")");
}

/// Appends `name`, the median over the run's windows of each window's
/// percentile `pct` (samples divided by `scale`), and notes the sample
/// counts; refuses a figure that some window's samples cannot support.
void add_windowed(std::vector<Metric>& out, std::vector<std::string>& notes,
                  const char* name, WindowedSamples& samples, std::size_t windows,
                  double pct, double scale) {
  std::size_t fewest = 0;
  const double value = samples.median_percentile(windows, pct, fewest) / scale;
  const double supported = highest_supported_percentile(fewest);
  if (supported < pct) {
    throw std::runtime_error(std::string(name) + ": a window of " + std::to_string(fewest) +
                             " samples cannot support p" + fmt(pct));
  }
  out.push_back({name, value, "ms"});
  notes.push_back(std::string(name) + ": median over " + std::to_string(windows) +
                  " windows of each window's p" + fmt(pct) + " (fewest samples in a window " +
                  std::to_string(fewest) + ", highest supported p" + fmt(supported) + ")");
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const Spec& s : kSpecs) v.emplace_back(s.name);
    return v;
  }();
  return names;
}

RunResult run_workload(const RunOptions& options) {
  const Spec& spec = spec_of(options.workload);
  SpanLog spans(options.trace);
  RunResult result;
  Checks checks;

  // One set-up per process: run.py repeats whole processes, and setup_s is
  // the median over them.
  const std::unique_ptr<Deployment> d = deploy(spec, options.seed, spans);
  Fleet& fleet = *d->fleet;
  check_live_trees(*d, checks);

  QueryClient client(*d, options.seed, spans, checks);
  RootChecker roots;
  const Reading before = read_counters(*d);
  roots.from_us = before.clock_us;
  d->reset_push_period();
  std::size_t queue_max = fleet.sim_queue_len();

  // Measured phase.
  const std::uint64_t measure_req = spans.new_id();
  const std::uint64_t measure_start = spans.now_us();
  const auto t0 = Clock::now();
  client.start(UINT64_MAX);
  std::uint64_t next_check = before.clock_us + spec.check_us;
  unsigned rounds = 0;
  // The simulator covers a fixed span of virtual time, one window per
  // second of --seconds, so every virtual-time result depends on the seed
  // alone; sockets measure --seconds of wall time.
  const unsigned target_rounds =
      spec.simulated ? static_cast<unsigned>(std::max(
                           1.0, std::round(options.seconds * 1e6 /
                                           static_cast<double>(spec.round_us))))
                     : 0;
  double longest_slice_s = 0;
  std::vector<Window> windows;
  Window mark{0, static_cast<double>(before.cpu_ns), before.updates, 0};
  const auto close_window = [&] {
    const Window now{seconds_since(t0), static_cast<double>(process_cpu_ns()),
                     updates_received(fleet),
                     static_cast<double>(client.completed_in_window)};
    windows.push_back({now.wall_s - mark.wall_s, now.cpu_ns - mark.cpu_ns,
                       now.updates - mark.updates, now.completions - mark.completions});
    mark = now;
    client.window = roots.window = windows.size();
  };
  for (;;) {
    const std::uint64_t slice_start = spans.now_us();
    const auto slice_t0 = Clock::now();
    fleet.run_for(spec.slice_us);
    longest_slice_s = std::max(longest_slice_s, seconds_since(slice_t0));
    spans.record("harness.pump_slice", measure_req, 0, slice_start, spans.now_us());
    queue_max = std::max(queue_max, fleet.sim_queue_len());
    const std::uint64_t now = fleet.clock_us();
    if (now >= next_check) {
      roots.check(*d, now, checks);
      next_check = now + spec.check_us;
    }
    // Windows: one round of virtual time on the simulator, one wall second
    // on sockets. The run ends on a window boundary.
    if (spec.simulated) {
      if ((now - before.clock_us) % spec.round_us != 0) continue;
      ++rounds;
      close_window();
      if (rounds >= target_rounds) break;
    } else if (seconds_since(t0) >= mark.wall_s + 1.0) {
      close_window();
      if (seconds_since(t0) >= options.seconds) break;
    }
  }
  const double wall_s = seconds_since(t0);
  const Reading after = read_counters(*d);
  spans.record("measure", measure_req, 0, measure_start, spans.now_us());
  client.close_window(after.clock_us);
  client.stop();
  const auto drain_t0 = Clock::now();
  while (client.outstanding() > 0 && seconds_since(drain_t0) < 20) {
    fleet.run_for(spec.slice_us);
  }
  client.abandon_outstanding();
  roots.window = windows.size() - 1;
  roots.check(*d, after.clock_us, checks);
  // Reads answered while draining may carry root values from after the
  // measured phase: check those root epochs too, outside every window.
  roots.window = windows.size();
  roots.check(*d, fleet.clock_us(), checks);

  const double updates = after.updates - before.updates;
  if (updates <= 0) throw std::runtime_error("no DAT updates arrived while measuring");
  const double push_period_ms =
      d->push_intervals > 0
          ? d->push_interval_sum_us / static_cast<double>(d->push_intervals) / 1000.0
          : 0;

  // Notes: what was measured, on how many samples.
  result.notes.push_back(
      "make-up: " + std::to_string(d->live.size()) + " nodes, " +
      std::to_string(d->sum_trees()) + " SUM trees + " +
      std::to_string(d->keys.size() - d->sum_trees()) + " staleness trees, epoch " +
      fmt(static_cast<double>(spec.epoch_us) / 1000.0) + " ms, selfmon " +
      (spec.selfmon ? "on" : "off") + ", " + std::to_string(spec.clients) +
      " closed-loop client(s), think " + fmt(static_cast<double>(spec.think_us) / 1000.0) +
      " ms" + (spec.simulated ? ", " + std::to_string(rounds) + " round(s) of " +
                                    fmt(static_cast<double>(spec.round_us) / 1e6) +
                                    " s virtual time"
                              : std::string()));
  result.notes.push_back("trees: max height " + std::to_string(d->max_height) +
                         ", max children " + std::to_string(d->max_children) +
                         ", staleness slot width " +
                         fmt(static_cast<double>(d->width_us) / 1000.0) + " ms");
  result.notes.push_back("measured: " + fmt(wall_s) + " s wall, " +
                         fmt(static_cast<double>(after.clock_us - before.clock_us) / 1e6) +
                         " s on the fleet clock, " + fmt(updates) + " updates, " +
                         std::to_string(roots.root_epochs) + " root epochs checked, " +
                         std::to_string(windows.size()) + " windows");
  // A child unheard from for child_ttl_epochs epochs is dropped from its
  // parent's merge, so on sockets a pump slice longer than that (the
  // process stalled) is the first suspect when a root value comes up short.
  if (!spec.simulated) result.notes.push_back(
      "longest pump slice: " + fmt(longest_slice_s * 1000.0) + " ms wall (slice " +
      fmt(static_cast<double>(spec.slice_us) / 1000.0) + " ms, child TTL " +
      fmt(static_cast<double>(dat::core::DatOptions{}.child_ttl_epochs * spec.epoch_us) /
          1000.0) +
      " ms)");
  std::string window_note = "window updates/s:";
  for (const Window& w : windows) window_note += " " + fmt(w.updates / w.wall_s);
  result.notes.push_back(window_note);
  std::string read_note = "window query_global p50 ms:";
  for (std::size_t w = 0; w < windows.size(); ++w) {
    read_note += " " + fmt(client.global_ms.window_percentile(w, 50));
  }
  result.notes.push_back(read_note);
  std::vector<std::string>& notes = result.notes;
  const double cpu_ns = static_cast<double>(after.cpu_ns - before.cpu_ns);
  const double bytes = static_cast<double>(after.traffic.bytes - before.traffic.bytes);
  if (!options.trace) {
    auto& m = result.end_to_end;
    m.push_back({"setup_s", d->setup_s, "s"});
    std::vector<double> rate, cost, qrate;
    for (const Window& w : windows) {
      rate.push_back(w.updates / w.wall_s);
      cost.push_back(w.cpu_ns / w.updates);
      qrate.push_back(w.completions / w.wall_s);
    }
    m.push_back({"updates_per_s", median_of(rate), "updates/s"});
    m.push_back({"cpu_ns_per_update", median_of(cost), "ns"});
    m.push_back({"bytes_per_update", bytes / updates, "B"});
    const std::size_t n = windows.size();
    add_windowed(m, notes, "staleness_p50_ms", roots.ages_us, n, 50, 1000.0);
    add_windowed(m, notes, "staleness_p99_ms", roots.ages_us, n, 99, 1000.0);
    m.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    m.push_back({"queries_per_s", median_of(qrate), "ops/s"});
    add_windowed(m, notes, "query_p50_ms", client.global_ms, n, 50, 1.0);
    // The read tail is reported but not gated: between seeds it spread by
    // about half its median on udp-query (README, "End-to-end metrics").
    std::vector<double> global = client.global_ms.pooled(n);
    const double tail = highest_supported_percentile(global.size());
    notes.push_back("query_global tail (not gated): p" + fmt(tail) + " " +
                    fmt(percentile(global, tail)) + " ms of " +
                    std::to_string(global.size()) + " samples");
    add_windowed(m, notes, "collect_p50_ms", client.collect_ms, n, 50, 1.0);
  } else {
    // Traced run: per-layer figures. A layer the workload does not run
    // reads 0 (no sim events on sockets, no syscalls on the simulator).
    auto& m = result.per_layer;
    const double events = static_cast<double>(after.events - before.events);
    const auto rc = [&](std::uint64_t dat::netio::ReactorCounters::*f) {
      return static_cast<double>(after.reactor.*f - before.reactor.*f);
    };
    m.push_back({"harness.boot_s", d->boot_s, "s"});
    m.push_back({"harness.converge_s", d->converge_s, "s"});
    m.push_back({"sim.events_per_update", events / updates, "count"});
    m.push_back({"sim.ns_per_event", events > 0 ? wall_s * 1e9 / events : 0, "ns"});
    m.push_back({"sim.queue_len_max", static_cast<double>(queue_max), "count"});
    m.push_back({"net.msgs_per_update",
                 static_cast<double>(after.traffic.messages - before.traffic.messages) /
                     updates,
                 "count"});
    const CodecTiming sum_codec = time_codec(*d, d->keys[0], AggregateKind::kSum,
                                             roots.sum_payload);
    const CodecTiming hist_codec = time_codec(*d, d->stale_key(),
                                              AggregateKind::kHistogram,
                                              roots.stale_payload);
    m.push_back({"net.update_encode_ns.sum", sum_codec.encode_ns, "ns"});
    m.push_back({"net.update_encode_ns.hist", hist_codec.encode_ns, "ns"});
    m.push_back({"net.update_decode_ns.sum", sum_codec.decode_ns, "ns"});
    m.push_back({"net.update_decode_ns.hist", hist_codec.decode_ns, "ns"});
    m.push_back({"net.update_wire_bytes.sum", sum_codec.wire_bytes, "B"});
    m.push_back({"net.update_wire_bytes.hist", hist_codec.wire_bytes, "B"});
    m.push_back({"net.rpc_retransmits", after.retransmits - before.retransmits, "count"});
    m.push_back({"net.rpc_timeouts", after.timeouts - before.timeouts, "count"});
    const double recv = rc(&dat::netio::ReactorCounters::recv_syscalls);
    const double send = rc(&dat::netio::ReactorCounters::send_syscalls);
    const double waits = rc(&dat::netio::ReactorCounters::epoll_waits);
    const double dgrams = rc(&dat::netio::ReactorCounters::datagrams_out);
    m.push_back({"netio.syscalls_per_update", (recv + send + waits) / updates, "count"});
    m.push_back({"netio.recv_syscalls_per_update", recv / updates, "count"});
    m.push_back({"netio.send_syscalls_per_update", send / updates, "count"});
    m.push_back({"netio.epoll_waits_per_update", waits / updates, "count"});
    m.push_back({"netio.frames_per_datagram",
                 dgrams > 0 ? rc(&dat::netio::ReactorCounters::frames_out) / dgrams : 0,
                 "count"});
    m.push_back({"chord.dat_parent_ns", time_dat_parent(*d), "ns"});
    LookupStats lookups = run_lookups(*d, options.seed, 2000, spans, checks);
    const double lookups_n = static_cast<double>(lookups.ms.size());
    add_percentile(m, notes, "chord.lookup_ms.p50", lookups.ms, 50);
    add_percentile(m, notes, "chord.lookup_ms.p99", lookups.ms, 99);
    m.push_back({"chord.lookup_hops_mean", lookups.hops_sum / lookups_n, "count"});
    m.push_back({"chord.maintenance_msgs_per_update",
                 (after.maintenance - before.maintenance) / updates, "count"});
    m.push_back({"dat.merge_ns.sum", time_merge(roots.sum_payload), "ns"});
    m.push_back({"dat.merge_ns.hist", time_merge(roots.stale_payload), "ns"});
    m.push_back({"dat.tree_height", static_cast<double>(d->max_height), "count"});
    std::vector<std::uint64_t> stale_delta(kSlots, 0);
    for (std::size_t b = 0; b < kSlots; ++b) {
      stale_delta[b] = after.child_staleness[b] - before.child_staleness[b];
    }
    m.push_back({"dat.child_staleness_us.p50",
                 dat::obs::quantile_from_buckets(stale_delta, 0.5), "us"});
    m.push_back({"dat.max_children", static_cast<double>(d->max_children), "count"});
    double in_max = 0, in_sum = 0;
    for (std::size_t i = 0; i < after.updates_in.size(); ++i) {
      const double in = static_cast<double>(after.updates_in[i] - before.updates_in[i]);
      in_max = std::max(in_max, in);
      in_sum += in;
    }
    const double in_mean = in_sum / static_cast<double>(after.updates_in.size());
    m.push_back({"dat.updates_in_max_over_mean", in_mean > 0 ? in_max / in_mean : 0,
                 "ratio"});
    m.push_back({"dat.parent_switches", after.parent_switches - before.parent_switches,
                 "count"});
    m.push_back({"dat.push_period_ms", push_period_ms, "ms"});
    // One call: on the 512-node fleet a roll-up takes tens of seconds.
    const std::uint64_t snap_start = spans.now_us();
    const auto ts = Clock::now();
    g_sink = g_sink + fleet.telemetry_snapshot().samples.size();
    m.push_back({"obs.snapshot_ms", seconds_since(ts) * 1000.0, "ms"});
    spans.record("obs.telemetry_snapshot", spans.new_id(), 0, snap_start, spans.now_us());
    m.push_back({"obs.selfmon_update_share",
                 (after.selfmon_updates - before.selfmon_updates) / updates, "ratio"});
    // The same end-to-end figures as an untraced run, for the overhead.
    notes.push_back("traced end-to-end: updates_per_s " + fmt(updates / wall_s) +
                    ", cpu_ns_per_update " + fmt(cpu_ns / updates) + ", spans " +
                    std::to_string(spans.size()));
  }

  if (spec.simulated) {
    std::vector<double> ages = roots.ages_us.pooled(windows.size());
    result.virtual_digest =
        "updates=" + fmt(updates) + " bytes=" + fmt(bytes) +
        " staleness_p50_us=" + fmt(percentile(ages, 50)) +
        " staleness_p99_us=" + fmt(percentile(ages, 99)) +
        " root_epochs=" + std::to_string(roots.root_epochs) +
        " roots=" + std::to_string(roots.digest) +
        " queries=" + std::to_string(client.digest);
  }

  // Explicit teardown while the client and checker are still alive: timers
  // and callbacks that fire during teardown must find them.
  d->fleet.reset();
  spans.write(options.trace_out);
  if (options.trace) notes.push_back("trace: " + std::to_string(spans.size()) +
                                     " spans written to " + options.trace_out);

  result.attempted = checks.attempted;
  result.failed = checks.failed;
  result.correct = checks.wrong == 0;
  for (const auto& e : checks.errors) notes.push_back("WRONG: " + e);
  return result;
}

}  // namespace e2ebench
