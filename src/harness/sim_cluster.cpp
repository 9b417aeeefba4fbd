#include "harness/sim_cluster.hpp"

#include <stdexcept>

#include "harness/invariants.hpp"

// Invariant checking at protocol step boundaries is compiled in only for
// DAT_CHECK_INVARIANTS builds (e.g. the asan-ubsan preset); release builds
// pay nothing. The assert_* methods themselves are always available.
#if DAT_CHECK_INVARIANTS
#define DAT_HARNESS_CHECK_LOCAL() assert_local_invariants()
#define DAT_HARNESS_CHECK_CONVERGED() assert_converged_invariants()
#else
#define DAT_HARNESS_CHECK_LOCAL() (void)0
#define DAT_HARNESS_CHECK_CONVERGED() (void)0
#endif

namespace dat::harness {

void install_default_schema(maan::Schema& schema) {
  schema.add({.name = "cpu-usage", .numeric = true, .lo = 0.0, .hi = 100.0});
  schema.add({.name = "cpu-speed", .numeric = true, .lo = 0.0, .hi = 10e9});
  schema.add({.name = "memory-size", .numeric = true, .lo = 0.0, .hi = 64e9});
  schema.add({.name = "disk-free", .numeric = true, .lo = 0.0, .hi = 100.0});
  schema.add({.name = "os", .numeric = false});
  schema.add({.name = "arch", .numeric = false});
}

SimCluster::SimCluster(std::size_t n, ClusterOptions options)
    : options_(std::move(options)),
      space_(options_.bits),
      next_seed_(options_.seed * 1000003 + 1) {
  if (n == 0) throw std::invalid_argument("SimCluster: n == 0");
  if (options_.with_selfmon && options_.selfmon.fleet_size == 0) {
    options_.selfmon.fleet_size = n;
  }
  install_default_schema(schema_);
  engine_ = std::make_unique<sim::Engine>(options_.seed,
                                          std::move(options_.latency));
  network_ = std::make_unique<net::SimNetwork>(*engine_);

  slots_.reserve(n);
  // First node creates the ring.
  {
    Slot slot;
    slot.transport = &network_->add_node();
    slot.node = std::make_unique<chord::Node>(space_, *slot.transport,
                                              options_.node, next_seed_++);
    slot.node->create();
    slot.live = true;
    attach_layers(slot);
    slots_.push_back(std::move(slot));
  }
  // The rest join sequentially with some settle time, as a real deployment
  // rolls out.
  for (std::size_t i = 1; i < n; ++i) {
    if (!add_node()) {
      throw std::runtime_error("SimCluster: bootstrap join failed at node " +
                               std::to_string(i));
    }
  }
  if (options_.inject_d0_hint) refresh_d0_hints();
  DAT_HARNESS_CHECK_LOCAL();
}

SimCluster::~SimCluster() {
  // Layered teardown: protocol objects before their transports.
  for (Slot& slot : slots_) {
    slot.selfmon.reset();
    slot.maan.reset();
    slot.dat.reset();
    slot.node.reset();
  }
}

void SimCluster::attach_layers(Slot& slot) {
  if (options_.with_dat) {
    slot.dat = std::make_unique<core::DatNode>(*slot.node, options_.dat);
  }
  if (options_.with_maan) {
    slot.maan =
        std::make_unique<maan::MaanNode>(*slot.node, schema_, options_.maan);
  }
  if (options_.with_selfmon && slot.dat) {
    slot.selfmon =
        std::make_unique<obs::SelfMonitor>(*slot.dat, options_.selfmon);
  }
}

void SimCluster::register_cluster_aggregates(Slot& slot, std::size_t slot_idx) {
  if (!slot.dat) return;
  for (const AggregateSpec& spec : cluster_aggregates_) {
    slot.dat->start_aggregate(
        spec.name, spec.kind, spec.scheme,
        spec.local_for ? spec.local_for(slot_idx)
                       : core::DatNode::LocalValueFn{},
        spec.epoch_us);
  }
}

Id SimCluster::start_aggregate_everywhere(std::string_view name,
                                          core::AggregateKind kind,
                                          chord::RoutingScheme scheme,
                                          LocalValueFactory local_for,
                                          std::uint64_t epoch_us) {
  if (!options_.with_dat) {
    throw std::logic_error(
        "SimCluster::start_aggregate_everywhere: DAT layer disabled");
  }
  cluster_aggregates_.push_back(
      {std::string(name), kind, scheme, std::move(local_for), epoch_us});
  const AggregateSpec& spec = cluster_aggregates_.back();
  Id key = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (!slot.live || !slot.dat) continue;
    key = slot.dat->start_aggregate(
        spec.name, spec.kind, spec.scheme,
        spec.local_for ? spec.local_for(i) : core::DatNode::LocalValueFn{},
        spec.epoch_us);
  }
  return key;
}

std::size_t SimCluster::live_count() const {
  std::size_t count = 0;
  for (const Slot& slot : slots_) {
    if (slot.live) ++count;
  }
  return count;
}

bool SimCluster::is_live(std::size_t slot) const {
  return slot < slots_.size() && slots_[slot].live;
}

chord::Node& SimCluster::node(std::size_t slot) {
  if (!is_live(slot)) throw std::out_of_range("SimCluster::node: dead slot");
  return *slots_[slot].node;
}

core::DatNode& SimCluster::dat(std::size_t slot) {
  if (!is_live(slot) || !slots_[slot].dat) {
    throw std::out_of_range("SimCluster::dat: dead slot or DAT disabled");
  }
  return *slots_[slot].dat;
}

maan::MaanNode& SimCluster::maan(std::size_t slot) {
  if (!is_live(slot) || !slots_[slot].maan) {
    throw std::out_of_range("SimCluster::maan: dead slot or MAAN disabled");
  }
  return *slots_[slot].maan;
}

obs::SelfMonitor* SimCluster::selfmon(std::size_t slot) {
  if (!is_live(slot)) return nullptr;
  return slots_[slot].selfmon.get();
}

chord::RingView SimCluster::ring_view() const {
  std::vector<Id> ids;
  ids.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    if (slot.live) ids.push_back(slot.node->id());
  }
  return {space_, std::move(ids)};
}

bool SimCluster::converged() const {
  const chord::RingView ring = ring_view();
  for (const Slot& slot : slots_) {
    if (slot.live && !slot.node->converged_against(ring)) return false;
  }
  DAT_HARNESS_CHECK_CONVERGED();
  return true;
}

bool SimCluster::wait_converged(std::uint64_t max_us) {
  const std::uint64_t deadline = engine_->now() + max_us;
  while (engine_->now() < deadline) {
    if (converged()) return true;
    engine_->advance_until(
        std::min<sim::SimTime>(deadline, engine_->now() + 500'000));
  }
  return false;
}

std::size_t SimCluster::lowest_live_slot() const {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].live) return i;
  }
  throw std::logic_error("SimCluster: no live nodes");
}

std::optional<std::size_t> SimCluster::add_node() {
  // A join can fail transiently when routing crosses a just-crashed node;
  // retry with a fresh transport, as a real deployment script would.
  for (int attempt = 0; attempt < 3; ++attempt) {
    if (const auto slot = try_add_node()) return slot;
  }
  return std::nullopt;
}

bool SimCluster::boot_into_slot(Slot& slot, std::size_t slot_idx,
                                std::optional<Id> forced_id) {
  const std::size_t bootstrap = lowest_live_slot();
  slot.transport = &network_->add_node();
  slot.node = std::make_unique<chord::Node>(space_, *slot.transport,
                                            options_.node, next_seed_++);
  bool joined = false;
  bool failed = false;
  slot.node->join(
      slots_[bootstrap].transport->local(),
      [&](bool ok) {
        joined = ok;
        failed = !ok;
      },
      forced_id);
  const std::uint64_t deadline = engine_->now() + 30'000'000;
  while (!joined && !failed && engine_->now() < deadline &&
         !engine_->idle()) {
    engine_->run_steps(256);
  }
  if (!joined) {
    // Destroy the node (which still references the transport) before the
    // transport itself.
    const net::Endpoint ep = slot.transport->local();
    slot.node.reset();
    slot.transport = nullptr;
    network_->remove_node(ep);
    return false;
  }
  engine_->run_until(engine_->now() + options_.join_settle_us);
  slot.live = true;
  attach_layers(slot);
  register_cluster_aggregates(slot, slot_idx);
  return true;
}

std::optional<std::size_t> SimCluster::try_add_node() {
  Slot slot;
  if (!boot_into_slot(slot, slots_.size())) return std::nullopt;
  slots_.push_back(std::move(slot));
  DAT_HARNESS_CHECK_LOCAL();
  return slots_.size() - 1;
}

bool SimCluster::restart_node(std::size_t slot_idx) {
  if (slot_idx >= slots_.size()) {
    throw std::out_of_range("SimCluster::restart_node: unknown slot");
  }
  if (slots_[slot_idx].live) {
    throw std::logic_error("SimCluster::restart_node: slot is live");
  }
  // A crash loses all protocol state; the restarted instance is a brand-new
  // node on a fresh transport that happens to reuse the slot index.
  for (int attempt = 0; attempt < 3; ++attempt) {
    if (boot_into_slot(slots_[slot_idx], slot_idx)) {
      if (options_.inject_d0_hint) refresh_d0_hints();
      DAT_HARNESS_CHECK_LOCAL();
      return true;
    }
  }
  return false;
}

bool SimCluster::migrate_node(std::size_t slot_idx, Id new_id) {
  if (!is_live(slot_idx)) {
    throw std::logic_error("SimCluster::migrate_node: slot not live");
  }
  if (live_count() < 2) {
    throw std::logic_error("SimCluster::migrate_node: last live node");
  }
  remove_node(slot_idx, /*graceful=*/true);
  new_id &= space_.mask();
  for (int attempt = 0; attempt < 3; ++attempt) {
    if (boot_into_slot(slots_[slot_idx], slot_idx, new_id)) {
      if (options_.inject_d0_hint) refresh_d0_hints();
      DAT_HARNESS_CHECK_LOCAL();
      return true;
    }
  }
  return false;
}

void SimCluster::remove_node(std::size_t slot_idx, bool graceful) {
  if (!is_live(slot_idx)) return;
  Slot& slot = slots_[slot_idx];
  if (graceful) {
    slot.node->leave();
  } else {
    slot.node->fail();
  }
  slot.live = false;
  const net::Endpoint ep = slot.transport->local();
  slot.selfmon.reset();
  slot.maan.reset();
  slot.dat.reset();
  slot.node.reset();
  network_->remove_node(ep);
  slot.transport = nullptr;
  DAT_HARNESS_CHECK_LOCAL();
}

void SimCluster::refresh_d0_hints() {
  const std::size_t n = live_count();
  for (Slot& slot : slots_) {
    if (slot.live) slot.node->set_d0_hint(space_.size(), n);
  }
}

void SimCluster::assert_local_invariants() const {
  InvariantReport report;
  for (const Slot& slot : slots_) {
    if (slot.live) check_node_structure(*slot.node, report);
  }
  require_ok(report, "SimCluster local invariants");
}

void SimCluster::assert_converged_invariants() const {
  InvariantReport report;
  const chord::RingView ring = ring_view();
  check_ring_structure(ring, report);
  for (const Slot& slot : slots_) {
    if (!slot.live) continue;
    check_node_structure(*slot.node, report);
    check_converged_node(*slot.node, ring, report);
  }
  // Sample rendezvous keys across the circle (including the wrap point)
  // under both routing schemes.
  const Id step = space_.size() / 4 ? space_.size() / 4 : 1;
  for (Id key = 0; key < space_.mask(); key += step) {
    check_dat_tree(ring, key, chord::RoutingScheme::kBalanced, report);
    check_dat_tree(ring, key, chord::RoutingScheme::kGreedy, report);
  }
  require_ok(report, "SimCluster converged invariants");
}

std::uint64_t SimCluster::total_maintenance_rpcs() const {
  std::uint64_t total = 0;
  for (const Slot& slot : slots_) {
    if (slot.live) total += slot.node->maintenance_rpcs();
  }
  return total;
}

obs::MetricsSnapshot SimCluster::telemetry_snapshot() const {
  obs::MetricsSnapshot all;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].live) continue;
    all.merge(slots_[i].node->telemetry().registry.snapshot().with_label(
        "node", std::to_string(i)));
  }
  return all;
}

}  // namespace dat::harness
