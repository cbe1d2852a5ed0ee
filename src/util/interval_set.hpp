// A set of disjoint half-open [start, end) integer intervals with merge on
// insert. Used by the streaming clients to track which media byte ranges
// have arrived (datagrams may be lost or reordered).
#pragma once

#include <cstdint>
#include <iterator>
#include <map>

namespace streamlab {

class IntervalSet {
 public:
  /// Inserts [start, end), merging with any overlapping/adjacent intervals.
  /// Empty or inverted ranges are ignored. An insert that touches an
  /// existing interval grows it in place (re-keying its node when the start
  /// moves down), so in-order and reordered arrivals allocate nothing; only
  /// a range that opens a new gap-separated interval allocates a node.
  void insert(std::uint64_t start, std::uint64_t end) {
    if (start >= end) return;
    // The interval that grows: the last one starting at or before `start`
    // if it reaches it, else the first one starting inside [start, end].
    auto it = intervals_.upper_bound(start);
    if (it != intervals_.begin() && std::prev(it)->second >= start) {
      --it;
    } else if (it != intervals_.end() && it->first <= end) {
      auto node = intervals_.extract(it);
      node.key() = start;
      it = intervals_.insert(std::move(node)).position;
    } else {
      intervals_.emplace_hint(it, start, end);
      return;
    }
    if (end > it->second) it->second = end;
    // Swallow every later interval the grown one now reaches.
    for (auto next = std::next(it); next != intervals_.end() && next->first <= it->second;
         next = intervals_.erase(next)) {
      if (next->second > it->second) it->second = next->second;
    }
  }

  /// True when every byte of [start, end) is present.
  bool covers(std::uint64_t start, std::uint64_t end) const {
    if (start >= end) return true;
    auto it = intervals_.upper_bound(start);
    if (it == intervals_.begin()) return false;
    --it;
    return it->first <= start && it->second >= end;
  }

  /// Length of the contiguous run starting at 0.
  std::uint64_t contiguous_prefix() const {
    auto it = intervals_.find(0);
    // The run may start at 0 inside a merged interval keyed at 0 only;
    // since intervals are disjoint and sorted, check the first interval.
    if (it == intervals_.end()) {
      it = intervals_.begin();
      if (it == intervals_.end() || it->first != 0) return 0;
    }
    return it->second;
  }

  /// Total covered bytes.
  std::uint64_t total_covered() const {
    std::uint64_t total = 0;
    for (const auto& [s, e] : intervals_) total += e - s;
    return total;
  }

  std::size_t interval_count() const { return intervals_.size(); }
  bool empty() const { return intervals_.empty(); }

 private:
  std::map<std::uint64_t, std::uint64_t> intervals_;  // start -> end
};

}  // namespace streamlab
