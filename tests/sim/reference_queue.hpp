// The reference event queue the timing wheel is checked against.
//
// A plain binary heap on (when, seq) — the obviously-correct total order the
// event loop promises — behind the same push/peek/pop/empty interface as
// detail::TimingWheel, so a differential test can drive both through one
// program and compare what they pop. Test-only: the loop itself has a
// single queue, the wheel.
#pragma once

#include <cstddef>
#include <queue>
#include <utility>
#include <vector>

namespace streamlab::sim_test {

/// Event must expose `.when` (ordered) and `.seq` (uint64), like the wheel's.
template <typename Event>
class ReferenceQueue {
 public:
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  void push(Event ev) { heap_.push(std::move(ev)); }

  /// Earliest event by (when, seq), or nullptr when empty.
  const Event* peek() const { return heap_.empty() ? nullptr : &heap_.top(); }

  /// Removes and returns the earliest event. Requires !empty().
  Event pop() {
    Event ev = heap_.top();
    heap_.pop();
    return ev;
  }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
};

}  // namespace streamlab::sim_test
