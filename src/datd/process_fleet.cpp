#include "datd/process_fleet.hpp"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "datd/signals.hpp"
#include "net/endpoint.hpp"
#include "obs/postmortem.hpp"

namespace dat::datd {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ms_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            start)
          .count());
}

std::string exit_text(int status) {
  return WIFEXITED(status) ? "exit " + std::to_string(WEXITSTATUS(status))
                           : "signal " + std::to_string(WTERMSIG(status));
}

}  // namespace

ProcessFleet::ProcessFleet(ProcessFleetOptions options)
    : options_(std::move(options)), slots_(options_.nodes) {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    slots_[i].value = static_cast<double>(i + 1);
  }
}

ProcessFleet::~ProcessFleet() { stop(); }

std::uint64_t ProcessFleet::now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now().time_since_epoch())
          .count());
}

void ProcessFleet::advance(std::uint64_t us) {
  // Sleeps in slices so a latched SIGINT cuts a long gap between plan
  // events short within ~100ms.
  const Clock::time_point until = Clock::now() + std::chrono::microseconds(us);
  while (pending_signal() == 0) {
    const Clock::duration left = until - Clock::now();
    if (left <= Clock::duration::zero()) return;
    std::this_thread::sleep_for(
        std::min<Clock::duration>(left, std::chrono::milliseconds(100)));
  }
}

net::Endpoint ProcessFleet::slot_endpoint(std::size_t slot) const {
  return net::make_udp_endpoint(
      0x7F000001u, static_cast<std::uint16_t>(options_.base_port + slot));
}

bool ProcessFleet::spawn(std::size_t slot, chaos::Executor& executor) {
  Slot& s = slots_[slot];
  std::vector<std::string> args;
  args.push_back(options_.datd_path);
  args.push_back("--port=" + std::to_string(options_.base_port + slot));
  args.push_back("--seed=" + std::to_string(options_.seed * 1000 + slot + 1));
  args.push_back("--incarnation=" + std::to_string(s.incarnation));
  args.push_back("--value=" + std::to_string(s.value));
  args.push_back("--aggregate=" + options_.aggregate);
  args.push_back("--replicas=" + std::to_string(options_.replicas));
  args.push_back("--epoch-ms=" + std::to_string(options_.epoch_ms));
  args.push_back("--drain-deadline-ms=" +
                 std::to_string(options_.drain_deadline_ms));
  args.push_back(std::string("--selfmon=") +
                 (options_.selfmon ? "true" : "false"));
  if (options_.selfmon) {
    args.push_back("--selfmon-epoch-ms=" +
                   std::to_string(options_.selfmon_epoch_ms));
    args.push_back("--fleet-size=" + std::to_string(slots_.size()));
  }
  if (!options_.postmortem_dir.empty()) {
    args.push_back("--postmortem-dir=" + options_.postmortem_dir);
  }
  if (slot == 0) {
    args.push_back("--create=true");
  } else {
    args.push_back("--seeds=127.0.0.1:" + std::to_string(options_.base_port));
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    executor.violation("fork failed for slot " + std::to_string(slot));
    return false;
  }
  if (pid == 0) {
    ::execv(options_.datd_path.c_str(), argv.data());
    // Only reached when exec failed; the parent sees exit 127 on reap.
    std::_Exit(127);
  }
  s.pid = pid;
  s.alive = true;
  return true;
}

bool ProcessFleet::start(chaos::Executor& executor) {
  const Clock::time_point start = Clock::now();
  executor.note("boot: spawning " + std::to_string(slots_.size()) +
                " daemons on 127.0.0.1:" + std::to_string(options_.base_port) +
                "-" +
                std::to_string(options_.base_port + slots_.size() - 1));
  const auto pause = [this] {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.verify_poll_ms));
  };
  if (!spawn(0, executor)) return false;
  // Wait for the seed node before unleashing the joiners: every other slot
  // retries with backoff anyway, but a live seed keeps boot time flat.
  while (ms_since(start) < options_.boot_timeout_ms &&
         !executor.interrupted()) {
    const auto status = admin_.status(slot_endpoint(0));
    if (status && status->joined) break;
    pause();
  }
  for (std::size_t i = 1; i < slots_.size() && !executor.interrupted(); ++i) {
    if (!spawn(i, executor)) return false;
  }
  // Fleet-up SLO: every daemon answers its health endpoint and reports a
  // joined ring within the boot window.
  while (!executor.interrupted()) {
    std::size_t joined = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const auto status = admin_.status(slot_endpoint(i));
      if (status && status->joined) ++joined;
    }
    if (joined == slots_.size()) {
      executor.note("boot: fleet up in " + std::to_string(ms_since(start)) +
                    "ms");
      return true;
    }
    if (ms_since(start) > options_.boot_timeout_ms) {
      executor.violation("boot: only " + std::to_string(joined) + "/" +
                         std::to_string(slots_.size()) +
                         " daemons joined within " +
                         std::to_string(options_.boot_timeout_ms) + "ms");
      return false;
    }
    pause();
  }
  return false;
}

void ProcessFleet::stop() {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].alive) kill_and_reap(i, SIGKILL);
  }
}

int ProcessFleet::kill_and_reap(std::size_t slot, int sig) {
  Slot& s = slots_[slot];
  ::kill(static_cast<pid_t>(s.pid), sig);
  int status = 0;
  ::waitpid(static_cast<pid_t>(s.pid), &status, 0);
  s.alive = false;
  return status;
}

void ProcessFleet::abort_crash(std::size_t slot, chaos::Executor& executor) {
  const long pid = slots_[slot].pid;
  const std::string who =
      "slot " + std::to_string(slot) + " (pid " + std::to_string(pid) + ")";
  const int status = kill_and_reap(slot, SIGABRT);
  if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGABRT) {
    executor.violation("sigabrt: " + who + " ended by " + exit_text(status) +
                       " instead of SIGABRT");
  } else {
    executor.note("sigabrt: " + who + " aborted");
  }
  if (options_.postmortem_dir.empty()) return;
  const std::string src =
      options_.postmortem_dir + "/" + obs::postmortem_file_name(pid);
  const std::string dst = options_.postmortem_dir +
                          "/archived-postmortem-slot" + std::to_string(slot) +
                          "-" + std::to_string(pid) + ".json";
  if (std::rename(src.c_str(), dst.c_str()) == 0) {
    executor.note("postmortem: slot " + std::to_string(slot) +
                  " dump archived as " + dst);
  } else {
    executor.violation("postmortem: slot " + std::to_string(slot) +
                       " left no dump at " + src);
  }
}

void ProcessFleet::term_graceful(std::size_t slot, chaos::Executor& executor) {
  Slot& s = slots_[slot];
  const Clock::time_point start = Clock::now();
  ::kill(static_cast<pid_t>(s.pid), SIGTERM);
  // Exit-code SLO: a drained daemon must exit 0 within its hard deadline
  // (plus scheduling margin) — exit 1 means the drain blew the deadline.
  const std::uint64_t wait_ms = options_.drain_deadline_ms + 3000;
  int status = 0;
  bool reaped = false;
  while (ms_since(start) <= wait_ms) {
    if (::waitpid(static_cast<pid_t>(s.pid), &status, WNOHANG) ==
        static_cast<pid_t>(s.pid)) {
      reaped = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const std::string who = "leave: slot " + std::to_string(slot);
  if (!reaped) {
    kill_and_reap(slot, SIGKILL);
    executor.violation(who + " did not exit within " +
                       std::to_string(wait_ms) + "ms");
  } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    executor.violation(who + " ended by " + exit_text(status) +
                       " instead of exit 0");
  } else {
    executor.note(who + " drained (value " + std::to_string(s.value) +
                  " retired) and exited 0 in " +
                  std::to_string(ms_since(start)) + "ms");
  }
  s.alive = false;
}

bool ProcessFleet::apply(const chaos::FaultEvent& event,
                         chaos::Executor& executor) {
  const std::size_t slot = event.slot;
  switch (event.kind) {
    case chaos::FaultKind::kCrash: {
      const long pid = slots_[slot].pid;
      kill_and_reap(slot, SIGKILL);
      executor.note("crash: slot " + std::to_string(slot) + " (pid " +
                    std::to_string(pid) + ") killed");
      return true;
    }
    case chaos::FaultKind::kSigabrt:
      abort_crash(slot, executor);
      return true;
    case chaos::FaultKind::kLeave:
      term_graceful(slot, executor);
      return true;
    case chaos::FaultKind::kRestart:
      ++slots_[slot].incarnation;
      if (spawn(slot, executor)) {
        executor.note("restart: slot " + std::to_string(slot) +
                      " respawned (pid " + std::to_string(slots_[slot].pid) +
                      ", incarnation " +
                      std::to_string(slots_[slot].incarnation) + ")");
      }
      return true;
    case chaos::FaultKind::kRebalance: {
      std::uint64_t moved = 0;
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (slots_[i].alive) {
          moved += admin_.rebalance(slot_endpoint(i)).value_or(0);
        }
      }
      executor.note("rebalance: " + std::to_string(moved) +
                    " children moved");
      return true;
    }
    default:
      return false;
  }
}

chaos::Poll ProcessFleet::poll() {
  chaos::Poll p;
  std::vector<std::size_t> live;
  double want_sum = 0.0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].alive) continue;
    live.push_back(i);
    want_sum += slots_[i].value;
  }
  p.live = live.size();
  p.expected = live.size();
  const auto fail = [this, &p](std::string what) {
    p.failing = std::move(what);
    p.window_us = options_.verify_window_ms * 1000;
    return p;
  };

  // 1. Health: every live daemon answers, is joined, and reports the
  //    incarnation the fleet expects (restart identity).
  std::vector<StatusInfo> statuses;
  statuses.reserve(live.size());
  for (const std::size_t slot : live) {
    auto status = admin_.status(slot_endpoint(slot));
    if (!status || !status->joined) {
      return fail("health: slot " + std::to_string(slot) +
                  (status ? " not joined" : " not answering"));
    }
    if (status->incarnation != slots_[slot].incarnation) {
      return fail("identity: slot " + std::to_string(slot) +
                  " reports incarnation " +
                  std::to_string(status->incarnation) + ", expected " +
                  std::to_string(slots_[slot].incarnation));
    }
    statuses.push_back(std::move(*status));
  }

  // 2. Ring: successor pointers of the live set form one cycle.
  std::vector<const StatusInfo*> ring;
  ring.reserve(statuses.size());
  for (const StatusInfo& s : statuses) ring.push_back(&s);
  std::sort(ring.begin(), ring.end(),
            [](const StatusInfo* a, const StatusInfo* b) {
              return a->self.id < b->self.id;
            });
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const StatusInfo* node = ring[i];
    const StatusInfo* next = ring[(i + 1) % ring.size()];
    if (node->successors.empty() ||
        node->successors.front().endpoint != next->self.endpoint) {
      return fail("ring: successor of id " + std::to_string(node->self.id) +
                  " is not the next live id");
    }
  }

  // 3. Coverage + conservation: every replica tree has a root whose global
  //    counts exactly the live fleet and sums exactly the live slots' values
  //    (slot i contributes i+1 — an exact-sum invariant).
  bool first_key = true;
  for (const std::uint64_t key : statuses.front().aggregate_keys) {
    std::size_t best = 0;
    bool key_ok = false;
    std::string key_state = "no root answered";
    for (const std::size_t slot : live) {
      const auto global = admin_.global_at(slot_endpoint(slot), key);
      if (!global) continue;
      best = std::max<std::size_t>(best, global->state.count);
      if (global->state.count != live.size()) {
        key_state = "count " + std::to_string(global->state.count) +
                    " != live " + std::to_string(live.size());
        continue;
      }
      if (std::abs(global->state.sum - want_sum) > 1e-6) {
        key_state = "sum " + std::to_string(global->state.sum) +
                    " != expected " + std::to_string(want_sum);
        continue;
      }
      key_ok = true;
      break;
    }
    p.observed = first_key ? best : std::min(p.observed, best);
    first_key = false;
    if (!key_ok) {
      return fail("aggregate key " + std::to_string(key) + ": " + key_state);
    }
  }

  // 4. Scrape: the telemetry endpoint itself serves a metrics page.
  const net::Endpoint probe = slot_endpoint(live.front());
  const auto page = admin_.metrics(probe, obs::ExportFormat::kPrometheus);
  if (!page || page->find("dat_daemon_uptime_us") == std::string::npos) {
    return fail("scrape: slot " + std::to_string(live.front()) +
                " metrics page missing dat_daemon_uptime_us");
  }

  // 5. Alerts: the probe node's self-monitor must report the coverage alert
  //    firing iff part of the fleet is down (fleet size is the slot count
  //    every child was launched with).
  if (options_.check_alerts) {
    const bool expect_firing = live.size() < slots_.size();
    const auto alerts = admin_.alerts(probe);
    if (!alerts) {
      return fail("alerts: slot " + std::to_string(live.front()) +
                  " has no self-monitor to probe");
    }
    bool firing = false;
    for (const obs::Alert& alert : *alerts) {
      if (alert.rule == "coverage" && alert.firing) firing = true;
    }
    p.alert_firing = firing;
    if (firing != expect_firing) {
      return fail(std::string("alerts: coverage alert ") +
                  (firing ? "firing" : "clear") + ", expected " +
                  (expect_firing ? "firing" : "clear"));
    }
  }
  return p;
}

}  // namespace dat::datd
