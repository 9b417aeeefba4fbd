#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/executor.hpp"
#include "datd/admin.hpp"

namespace dat::datd {

/// Knobs of one forked datd fleet.
struct ProcessFleetOptions {
  std::size_t nodes = 64;          ///< fleet size (>= 8 for process plans)
  std::uint16_t base_port = 9400;  ///< slot i binds 127.0.0.1:base_port+i
  std::string datd_path;           ///< path to the datd binary (required)
  std::uint64_t seed = 1;          ///< forwarded into per-slot rng seeds
  std::string aggregate = "cpu-usage";
  unsigned replicas = 2;
  std::uint64_t epoch_ms = 150;           ///< child push period
  std::uint64_t drain_deadline_ms = 5000; ///< child SIGTERM hard deadline
  std::uint64_t boot_timeout_ms = 60'000; ///< fleet-up SLO
  std::uint64_t verify_window_ms = 15'000;  ///< per-verify recovery SLO
  std::uint64_t verify_poll_ms = 250;
  /// Self-monitoring knobs forwarded to every child (--fleet-size is always
  /// the fleet's slot count).
  bool selfmon = true;
  std::uint64_t selfmon_epoch_ms = 500;
  /// Alert SLO: at every verify, the probe node's coverage alert must be
  /// firing iff slots are down. Needs selfmon.
  bool check_alerts = false;
  /// Children install crash postmortems here (empty = disabled); after a
  /// sigabrt victim dies the fleet archives its dump as
  /// postmortem-<pid>.json -> archived-postmortem-slot<i>-<pid>.json.
  std::string postmortem_dir;
};

/// Real datd daemons on loopback as a chaos fleet. start() forks one
/// daemon per slot (slot 0 bootstraps the ring, every other slot joins
/// through it) and waits until all have joined. Faults are signals: crash
/// is SIGKILL, leave is SIGTERM (a graceful drain whose exit code must be
/// 0), sigabrt is SIGABRT (the dump is archived), restart respawns the slot
/// with a bumped incarnation, rebalance asks every live daemon to
/// rebalance; the fleet cannot apply network faults. Time is the wall
/// clock. One SLO poll reads the fleet over admin RPCs:
///
///   health     every live daemon answers and reports a joined ring
///   identity   a restarted slot reports its new incarnation
///   ring       successor pointers of the live set form one cycle
///   coverage   some replica root's global counts exactly the live fleet
///   conserve   that global's sum equals the sum of live slots' values
///              (slot i contributes i+1) — a drained daemon's value left
///              the aggregate exactly once, a killed one's aged out
///   scrape     the metrics page serves dat_daemon_uptime_us
///   alerts     (check_alerts) the coverage alert fires iff slots are down
class ProcessFleet final : public chaos::Fleet {
 public:
  explicit ProcessFleet(ProcessFleetOptions options);
  ~ProcessFleet() override;  ///< SIGKILLs any child still running

  ProcessFleet(const ProcessFleet&) = delete;
  ProcessFleet& operator=(const ProcessFleet&) = delete;

  bool start(chaos::Executor& executor) override;
  void stop() override;
  [[nodiscard]] std::size_t slots() const override { return slots_.size(); }
  [[nodiscard]] bool live(std::size_t slot) const override {
    return slots_[slot].alive;
  }
  [[nodiscard]] std::uint64_t now_us() override;
  void advance(std::uint64_t us) override;
  bool apply(const chaos::FaultEvent& event,
             chaos::Executor& executor) override;
  [[nodiscard]] std::uint64_t settle_us() const override { return 0; }
  [[nodiscard]] std::uint64_t poll_us() const override {
    return options_.verify_poll_ms * 1000;
  }
  [[nodiscard]] chaos::Poll poll() override;

 private:
  struct Slot {
    long pid = -1;
    std::uint64_t incarnation = 0;
    bool alive = false;
    double value = 0.0;
  };

  [[nodiscard]] bool spawn(std::size_t slot, chaos::Executor& executor);
  /// Sends `sig` and reaps the child; returns the raw wait status.
  int kill_and_reap(std::size_t slot, int sig);
  void abort_crash(std::size_t slot, chaos::Executor& executor);
  void term_graceful(std::size_t slot, chaos::Executor& executor);
  [[nodiscard]] net::Endpoint slot_endpoint(std::size_t slot) const;

  ProcessFleetOptions options_;
  AdminClient admin_;
  std::vector<Slot> slots_;
};

}  // namespace dat::datd
