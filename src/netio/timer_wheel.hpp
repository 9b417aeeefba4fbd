#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "net/transport.hpp"

namespace dat::netio {

/// Hashed timer wheel shared by every socket on one reactor.
///
/// Entries land in slot (deadline / tick) % slot_count and carry their
/// absolute deadline, so arbitrarily long delays are correct across wheel
/// revolutions (an entry in a visited slot fires only once its deadline has
/// passed). advance() first collects the due entries, then runs them, so a
/// callback may schedule() or cancel() on the same wheel.
///
/// Resolution is one tick (the reactor uses 1024 us): a timer never fires
/// early, and fires at most ~one tick late once advance() observes the
/// deadline.
class TimerWheel {
 public:
  TimerWheel(std::uint64_t tick_us, std::size_t slot_count);

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  /// Arms a timer for the absolute wheel-clock deadline.
  net::TimerId schedule(std::uint64_t deadline_us, std::function<void()> cb);

  /// Cancels a pending timer; ids of already-fired timers are ignored.
  /// Also works from inside a timer callback of the same wheel: a timer in
  /// the same due batch that has not run yet is suppressed.
  void cancel(net::TimerId id);

  /// Fires every entry whose deadline is <= now_us, in deadline order.
  /// Callbacks may freely schedule() or cancel().
  void advance(std::uint64_t now_us);

  /// Whether advance(now_us) would fire anything: some entry in the slots
  /// the cursor would visit has a deadline <= now_us. Cancelled entries
  /// still count (advance reaps them).
  [[nodiscard]] bool has_due(std::uint64_t now_us) const;

  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

 private:
  struct Entry {
    std::uint64_t deadline_us;
    net::TimerId id;
    std::function<void()> cb;
  };

  std::vector<std::vector<Entry>> slots_;
  /// Cancelled ids whose entries are still parked in a slot; reaped when
  /// the entry comes due (and wholesale once the wheel drains).
  std::unordered_set<net::TimerId> cancelled_;
  std::uint64_t tick_us_;
  std::uint64_t last_tick_ = 0;
  std::size_t count_ = 0;
  net::TimerId next_id_ = 1;
};

}  // namespace dat::netio
