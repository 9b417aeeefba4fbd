#include "netio/timer_wheel.hpp"

#include <algorithm>
#include <stdexcept>

namespace dat::netio {

TimerWheel::TimerWheel(std::uint64_t tick_us, std::size_t slot_count)
    : slots_(slot_count), tick_us_(tick_us) {
  if (tick_us == 0 || slot_count == 0) {
    throw std::invalid_argument("TimerWheel: tick and slot count must be > 0");
  }
}

net::TimerId TimerWheel::schedule(std::uint64_t deadline_us,
                                  std::function<void()> cb) {
  const net::TimerId id = next_id_++;
  // Placement is clamped past the wheel's current tick: a deadline in the
  // present (or past) otherwise lands in a slot the cursor has already
  // passed and would wait out a full revolution.
  const std::uint64_t placement_tick =
      std::max(deadline_us / tick_us_, last_tick_ + 1);
  slots_[placement_tick % slots_.size()].push_back(
      Entry{deadline_us, id, std::move(cb)});
  ++count_;
  return id;
}

void TimerWheel::cancel(net::TimerId id) {
  if (id == 0 || id >= next_id_) return;
  cancelled_.insert(id);
}

void TimerWheel::advance(std::uint64_t now_us) {
  const std::uint64_t tick_now = now_us / tick_us_;
  if (tick_now <= last_tick_) return;
  // Collect first, run after: a callback may schedule into the slots being
  // swept or cancel a later entry of this batch.
  std::vector<Entry> due;
  if (count_ > 0) {
    // Visit each slot the cursor passes; a jump beyond one revolution
    // degenerates to a single full sweep.
    std::vector<Entry> repark;
    const std::uint64_t first = last_tick_ + 1;
    const std::uint64_t visit =
        std::min<std::uint64_t>(tick_now - last_tick_, slots_.size());
    for (std::uint64_t t = 0; t < visit; ++t) {
      std::vector<Entry>& slot = slots_[(first + t) % slots_.size()];
      for (std::size_t i = 0; i < slot.size();) {
        if (slot[i].deadline_us <= now_us) {
          // datlint:allow(hot-path): expiry batch, sized by due timers
          due.push_back(std::move(slot[i]));
          slot[i] = std::move(slot.back());
          slot.pop_back();
        } else if (slot[i].deadline_us / tick_us_ <= tick_now) {
          // The cursor reached this entry's tick before the deadline
          // elapsed within it (advance runs at tick granularity). Left
          // here it would wait out a whole revolution; re-park it one
          // tick ahead instead.
          // datlint:allow(hot-path): re-park batch, sized by due timers
          repark.push_back(std::move(slot[i]));
          slot[i] = std::move(slot.back());
          slot.pop_back();
        } else {
          // Future revolution: stays parked until its deadline passes.
          ++i;
        }
      }
    }
    for (Entry& entry : repark) {
      // datlint:allow(hot-path): slot vectors retain capacity across ticks
      slots_[(tick_now + 1) % slots_.size()].push_back(std::move(entry));
    }
    count_ -= due.size();
    if (count_ == 0 && due.empty()) cancelled_.clear();
  }
  last_tick_ = tick_now;
  std::sort(due.begin(), due.end(), [](const Entry& a, const Entry& b) {
    return a.deadline_us != b.deadline_us ? a.deadline_us < b.deadline_us
                                          : a.id < b.id;
  });
  for (Entry& entry : due) {
    // Re-checked per callback: an earlier callback in this batch may have
    // cancelled a later entry.
    if (cancelled_.erase(entry.id) > 0) continue;
    entry.cb();
  }
}

bool TimerWheel::has_due(std::uint64_t now_us) const {
  const std::uint64_t tick_now = now_us / tick_us_;
  if (count_ == 0 || tick_now <= last_tick_) return false;
  const std::uint64_t visit =
      std::min<std::uint64_t>(tick_now - last_tick_, slots_.size());
  for (std::uint64_t t = 1; t <= visit; ++t) {
    for (const Entry& entry : slots_[(last_tick_ + t) % slots_.size()]) {
      if (entry.deadline_us <= now_us) return true;
    }
  }
  return false;
}

}  // namespace dat::netio
