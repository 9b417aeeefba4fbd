#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "chaos/plan.hpp"
#include "obs/metrics.hpp"

namespace dat::chaos {

class Executor;

/// What one poll of a fleet's SLOs found.
struct Poll {
  std::size_t live = 0;
  /// Coverage the SLOs demand of a root (the reachable live population).
  std::size_t expected = 0;
  /// Coverage the roots reported.
  std::size_t observed = 0;
  /// State of the probe node's coverage alert, when the fleet checks it.
  std::optional<bool> alert_firing;
  /// Fleet-specific fields for the phase line, e.g. " roots=3".
  std::string detail;
  /// The first SLO that does not hold; empty when every SLO holds.
  std::string failing;
  /// How long after the settle `failing` may take to hold; 0 = at once.
  std::uint64_t window_us = 0;
};

/// Outcome of one verify phase (one kVerify event).
struct PhaseReport {
  std::size_t phase = 0;
  std::uint64_t at_us = 0;  ///< plan time of the verify event
  unsigned polls = 0;       ///< polls until the verdict
  /// Fleet time from the end of the settle to the verdict.
  std::uint64_t recovery_us = 0;
  Poll last;  ///< the poll that decided the verdict

  [[nodiscard]] bool ok() const { return last.failing.empty(); }
  /// The phase line of the event log, e.g.
  /// "t=3000ms phase=1 live=15 expected=15 coverage=19 polls=1 ... OK".
  [[nodiscard]] std::string describe() const;
};

struct Report {
  std::vector<PhaseReport> phases;
  /// One line per applied event, fleet action and phase verdict. On the
  /// simulator two same-seed runs produce identical logs.
  std::vector<std::string> event_log;
  std::vector<std::string> violations;
  /// True when ExecutorOptions::interrupted cut the plan short.
  bool interrupted = false;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  /// The chaos tools' exit code: 0 every SLO met, 1 violations,
  /// 130 interrupted.
  [[nodiscard]] int exit_code() const {
    if (interrupted) return 130;
    return ok() ? 0 : 1;
  }
};

/// The seam between the executor and what it runs a plan against: a
/// simulated cluster (SimFleet) or forked datd processes (ProcessFleet).
/// A fleet says how a fault is applied, how time passes and what one SLO
/// poll reads; the executor owns everything else.
class Fleet {
 public:
  virtual ~Fleet() = default;

  /// Brings the fleet up before the first event; false aborts the run
  /// (after recording why through the executor).
  virtual bool start(Executor& /*executor*/) { return true; }
  /// Tears the fleet down after the last event (or an abort).
  virtual void stop() {}

  [[nodiscard]] virtual std::size_t slots() const = 0;
  [[nodiscard]] virtual bool live(std::size_t slot) const = 0;

  /// Microseconds on the fleet's clock (virtual, or the steady wall clock).
  [[nodiscard]] virtual std::uint64_t now_us() = 0;
  /// Lets `us` pass: virtual run_for, or a sleep a pending signal cuts
  /// short.
  virtual void advance(std::uint64_t us) = 0;

  /// Applies one event other than kVerify. The executor has already checked
  /// that a slot event's target is live (dead for a restart). Returns false
  /// when the fleet cannot apply this kind of event.
  virtual bool apply(const FaultEvent& event, Executor& executor) = 0;

  /// Time the fleet settles before the first poll of a verify phase.
  [[nodiscard]] virtual std::uint64_t settle_us() const = 0;
  /// Gap between two polls of one verify phase.
  [[nodiscard]] virtual std::uint64_t poll_us() const = 0;
  /// Checks every SLO once.
  [[nodiscard]] virtual Poll poll() = 0;
};

struct ExecutorOptions {
  /// Checked before each event and between polls; returning true abandons
  /// the rest of the plan. The tools wire their SIGINT latch in here.
  std::function<bool()> interrupted;
  /// Echo every event-log line to stdout as it happens.
  bool verbose = false;
};

/// Runs a ChaosPlan against a fleet: sorts it, waits until each event is
/// due, applies it (a slot fault whose target is in the wrong state is a
/// recorded violation, as is a verify with no live slot), and at every
/// kVerify settles the fleet and polls all its SLOs until they hold or the
/// failing SLO's window runs out. Keeps the event log and the dat_chaos_*
/// metrics.
class Executor {
 public:
  Executor(Fleet& fleet, ChaosPlan plan, ExecutorOptions options = {});

  /// Runs the whole plan; may be called once.
  Report run();

  /// Appends a line to the event log.
  void note(const std::string& line);
  /// Records a violation and notes it.
  void violation(const std::string& line);
  /// Latches ExecutorOptions::interrupted; fleets check it inside long
  /// start-ups.
  [[nodiscard]] bool interrupted();

  /// Fault counts by kind, phases run and failed, polls and fleet time to
  /// recovery. Fleets may register their own series here (the sim
  /// rebalancer's dat_lb_*).
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }

 private:
  void apply(const FaultEvent& event);
  PhaseReport verify(const FaultEvent& event);

  Fleet& fleet_;
  ChaosPlan plan_;
  ExecutorOptions options_;
  Report report_;
  bool ran_ = false;

  obs::MetricsRegistry metrics_;
  obs::Counter* m_phases_ = nullptr;
  obs::Counter* m_phase_failures_ = nullptr;
  obs::Histogram* m_recovery_polls_ = nullptr;
  obs::Histogram* m_phase_duration_us_ = nullptr;
};

}  // namespace dat::chaos
