#include "chaos/executor.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/logging.hpp"

namespace dat::chaos {

std::string PhaseReport::describe() const {
  std::ostringstream oss;
  oss << "t=" << at_us / 1000 << "ms phase=" << phase << " live=" << last.live
      << " expected=" << last.expected << " coverage=" << last.observed
      << " polls=" << polls << " after=" << recovery_us / 1000 << "ms"
      << last.detail;
  if (last.alert_firing) {
    oss << " alert=" << (*last.alert_firing ? "firing" : "clear");
  }
  oss << (ok() ? " OK" : " FAIL");
  return oss.str();
}

Executor::Executor(Fleet& fleet, ChaosPlan plan, ExecutorOptions options)
    : fleet_(fleet), plan_(std::move(plan)), options_(std::move(options)) {
  if (plan_.nodes != fleet_.slots()) {
    throw std::invalid_argument(
        "Executor: plan is for " + std::to_string(plan_.nodes) +
        " slots, the fleet has " + std::to_string(fleet_.slots()));
  }
  plan_.sort_events();
  m_phases_ = &metrics_.counter("dat_chaos_phases_total");
  m_phase_failures_ = &metrics_.counter("dat_chaos_phase_failures_total");
  m_recovery_polls_ = &metrics_.histogram("dat_chaos_recovery_polls");
  m_phase_duration_us_ = &metrics_.histogram("dat_chaos_phase_duration_us");
}

void Executor::note(const std::string& line) {
  report_.event_log.push_back(line);
  DAT_LOG_INFO("chaos", line);
  if (options_.verbose) {
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  }
}

void Executor::violation(const std::string& line) {
  report_.violations.push_back(line);
  note("VIOLATION: " + line);
}

bool Executor::interrupted() {
  if (!report_.interrupted && options_.interrupted && options_.interrupted()) {
    report_.interrupted = true;
    note("interrupted: abandoning the rest of the plan");
  }
  return report_.interrupted;
}

void Executor::apply(const FaultEvent& event) {
  note(event.describe());
  // Find-or-create per fault kind: a handful of events per plan, so the
  // registry lookup is not a hot path.
  metrics_.counter("dat_chaos_faults_total", {{"kind", to_string(event.kind)}})
      .inc();
  if (event.kind == FaultKind::kVerify) {
    report_.phases.push_back(verify(event));
    return;
  }
  if (targets_slot(event.kind)) {
    const bool want_live = event.kind != FaultKind::kRestart;
    if (event.slot >= fleet_.slots() || fleet_.live(event.slot) != want_live) {
      violation(event.describe() + ": slot " + std::to_string(event.slot) +
                (want_live ? " is not live" : " is already live"));
      return;
    }
  }
  if (!fleet_.apply(event, *this)) {
    note("skipping " + event.describe() + " (the fleet cannot apply it)");
  }
}

PhaseReport Executor::verify(const FaultEvent& event) {
  PhaseReport phase;
  phase.phase = report_.phases.size() + 1;
  phase.at_us = event.at_us;
  const std::uint64_t begin = fleet_.now_us();
  bool any_live = false;
  for (std::size_t i = 0; i < fleet_.slots() && !any_live; ++i) {
    any_live = fleet_.live(i);
  }
  if (!any_live) {
    phase.last.failing = "no live slot to verify";
  } else {
    fleet_.advance(fleet_.settle_us());
    const std::uint64_t settled = fleet_.now_us();
    for (;;) {
      phase.last = fleet_.poll();
      ++phase.polls;
      phase.recovery_us = fleet_.now_us() - settled;
      if (phase.last.failing.empty() ||
          phase.recovery_us >= phase.last.window_us || interrupted()) {
        break;
      }
      fleet_.advance(fleet_.poll_us());
    }
  }
  m_phases_->inc();
  m_recovery_polls_->observe(phase.polls);
  m_phase_duration_us_->observe(fleet_.now_us() - begin);
  note(phase.describe());
  if (!phase.ok()) {
    m_phase_failures_->inc();
    if (!report_.interrupted) {
      violation("phase " + std::to_string(phase.phase) + ": " +
                phase.last.failing);
    }
  }
  return phase;
}

Report Executor::run() {
  if (ran_) throw std::logic_error("Executor::run: already ran");
  ran_ = true;
  note("plan: seed " + std::to_string(plan_.seed) + ", " +
       std::to_string(plan_.events.size()) + " events, " +
       std::to_string(plan_.phases()) + " verify phases");
  if (fleet_.start(*this)) {
    const std::uint64_t start = fleet_.now_us();
    for (const FaultEvent& event : plan_.events) {
      if (interrupted()) break;
      const std::uint64_t due = start + event.at_us;
      if (fleet_.now_us() < due) fleet_.advance(due - fleet_.now_us());
      if (interrupted()) break;
      apply(event);
    }
  }
  fleet_.stop();
  note("done: " + std::string(report_.interrupted ? "interrupted"
                              : report_.ok()
                                  ? "all SLOs met"
                                  : std::to_string(report_.violations.size()) +
                                        " violations"));
  return std::move(report_);
}

}  // namespace dat::chaos
