// Hierarchical timing wheel with a deterministic drain order.
//
// The classic timer-wheel trade-off is O(1) insert/cancel at the cost of
// losing total order inside a bucket. streamlab cannot give up the
// deterministic (time, insertion-seq) order — campaign digests are
// byte-compared across runs and worker counts — so this wheel restores it by
// never handing events out of a bucket directly: the earliest occupied
// level-0 bucket is drained into a small (when, seq)-ordered ready heap, and
// events are popped from there. Since a level-0 bucket only holds the events
// of one ~1µs tick, the ready heap stays tiny (a handful of entries) and the
// per-event cost is O(log bucket_population) instead of O(log total_pending).
//
// Layout: kLevels wheels of kBuckets buckets each. Level l buckets are
// 2^(kTickBits + l·kBucketBits) ns wide; with 10 tick bits, 6 bucket bits and
// 9 levels the top level spans past the int64 nanosecond range, so there is
// no separate overflow structure — the coarse upper levels *are* the
// calendar spill for far-future events (including SimTime::max()), which
// cascade down level by level as the cursor approaches. Bucket indices are
// absolute ((when >> shift) & mask), occupancy is one bitmap word per level,
// and empty regions are skipped by jumping the cursor straight to the
// earliest occupied bucket across all levels.
//
// Determinism argument (see DESIGN.md §15):
//  * `cursor_` is the exclusive end of the drained window; an insert with
//    when < cursor_ goes straight into the ready heap, where (when, seq)
//    ordering puts it exactly where the global heap would have.
//  * Same-instant events carry strictly monotone seq numbers, so the ready
//    heap fires them in scheduling order — including events scheduled *into*
//    a bucket that is already drained (they join the ready heap instead).
//  * Cascades only move events between buckets keyed by absolute time, so
//    the drain order is independent of when cascades happen.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

namespace streamlab::detail {

/// Event must expose `.when` (SimTime-like, with .ns()) and `.seq` (uint64);
/// both must be stable for the lifetime of the entry.
template <typename Event>
class TimingWheel {
 public:
  static constexpr int kTickBits = 10;              // level-0 tick: 1024 ns
  static constexpr int kBucketBits = 6;             // 64 buckets per level
  static constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;
  static constexpr std::uint64_t kMask = kBuckets - 1;
  // 10 + 9·6 = 64 bits: the top level's span covers the whole non-negative
  // int64 range, so any `when` (including SimTime::max()) has a bucket.
  static constexpr int kLevels = 9;
  static constexpr std::size_t kFirstBucketCapacity = 8;

  bool empty() const { return size_ == 0 && ready_.empty(); }
  std::size_t size() const { return size_ + ready_.size(); }

  void push(Event ev) {
    const std::int64_t when = ev.when.ns();
    if (when < cursor_) {
      // Inside the already-drained window: join the ready heap, where the
      // (when, seq) order restores the event's global position.
      ready_push(std::move(ev));
      return;
    }
    const int level = level_for(when);
    const std::size_t idx = (static_cast<std::uint64_t>(when) >> shift(level)) & kMask;
    std::vector<Event>& bucket = buckets_[level][idx];
    // A bucket's first event sizes it for a handful: buckets keep their
    // capacity forever, and growing 1 -> 2 -> 4 one record occupancy at a
    // time would keep allocating deep into a steady-state run.
    if (bucket.capacity() == 0) bucket.reserve(kFirstBucketCapacity);
    bucket.push_back(std::move(ev));
    occupied_[level] |= std::uint64_t{1} << idx;
    ++size_;
  }

  /// Earliest event by (when, seq), or nullptr when empty. Advances the
  /// cursor (draining buckets into the ready heap) as needed.
  Event* peek() {
    while (ready_.empty()) {
      if (size_ == 0) return nullptr;
      advance();
    }
    return &ready_.front();
  }

  /// Removes and returns the event peek() points at. Requires peek() != null.
  Event pop() {
    pop_to_back();
    Event ev = std::move(ready_.back());
    ready_.pop_back();
    return ev;
  }

  /// Visits every stored event (buckets and ready heap) in no particular
  /// order; used by the loop destructor to detach handle control blocks.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (auto& level : buckets_)
      for (auto& bucket : level)
        for (Event& ev : bucket) fn(ev);
    for (Event& ev : ready_) fn(ev);
  }

 private:
  static constexpr int shift(int level) { return kTickBits + level * kBucketBits; }
  static constexpr std::int64_t kNone = std::int64_t{-1};

  // Smallest level where the bucket-index distance from the cursor fits one
  // rotation. Choosing by index distance (not raw delta) keeps an insert off
  // the bucket the cursor currently occupies at levels >= 1 — that bucket was
  // already cascaded, so landing in it would wait a full rotation too long.
  int level_for(std::int64_t when) const {
    const std::uint64_t d =
        (static_cast<std::uint64_t>(when) - static_cast<std::uint64_t>(cursor_)) >> kTickBits;
    if (d == 0) return 0;
    int level = (std::bit_width(d) - 1) / kBucketBits;
    if (level >= kLevels) return kLevels - 1;
    if (level + 1 < kLevels &&
        ((static_cast<std::uint64_t>(when) >> shift(level)) -
         (static_cast<std::uint64_t>(cursor_) >> shift(level))) >= kBuckets)
      ++level;
    return level;
  }

  // Start time of the earliest occupied bucket at `level`, treating bits
  // behind the cursor's index as the next rotation. kNone when level empty.
  std::int64_t next_bucket_start(int level) const {
    const std::uint64_t occ = occupied_[level];
    if (occ == 0) return kNone;
    const std::uint64_t unit = static_cast<std::uint64_t>(cursor_) >> shift(level);
    const unsigned c = static_cast<unsigned>(unit & kMask);
    const std::uint64_t ahead = occ >> c;
    const std::uint64_t bucket_no =
        ahead != 0 ? unit + static_cast<unsigned>(std::countr_zero(ahead))
                   : unit - c + kBuckets + static_cast<unsigned>(std::countr_zero(occ));
    return static_cast<std::int64_t>(bucket_no << shift(level));
  }

  // Moves the cursor to the earliest occupied bucket across all levels, then
  // either drains it (level 0) into the ready heap or cascades it downward.
  // Every call retires or demotes at least one bucket, so peek() terminates.
  void advance() {
    std::int64_t best = kNone;
    for (int l = 0; l < kLevels; ++l) {
      const std::int64_t t = next_bucket_start(l);
      if (t != kNone && (best == kNone || t < best)) best = t;
    }
    cursor_ = best;  // safe: no stored event precedes the earliest bucket
    // Cascade top-down every level whose earliest bucket starts exactly here;
    // higher levels redistribute into lower ones strictly ahead of the
    // cursor's own bucket, so order of arrival below is immaterial.
    for (int l = kLevels - 1; l >= 1; --l) {
      if (occupied_[l] != 0 && next_bucket_start(l) == best) cascade(l, best);
    }
    const std::uint64_t tick = static_cast<std::uint64_t>(cursor_) >> kTickBits;
    const std::size_t idx = tick & kMask;
    if (occupied_[0] & (std::uint64_t{1} << idx)) drain(idx, tick);
  }

  void cascade(int level, std::int64_t start) {
    const std::size_t idx = (static_cast<std::uint64_t>(start) >> shift(level)) & kMask;
    auto& bucket = buckets_[level][idx];
    occupied_[level] &= ~(std::uint64_t{1} << idx);
    size_ -= bucket.size();
    // Swap out: push() below must not touch the vector being iterated (an
    // event can re-land in a lower level's bucket, never this one).
    std::vector<Event> moving;
    moving.swap(bucket);
    for (Event& ev : moving) push(std::move(ev));
    // Hand the capacity back so steady-state cascading stays allocation-free.
    moving.clear();
    bucket.swap(moving);
  }

  void drain(std::size_t idx, std::uint64_t tick) {
    auto& bucket = buckets_[0][idx];
    occupied_[0] &= ~(std::uint64_t{1} << idx);
    size_ -= bucket.size();
    for (Event& ev : bucket) ready_push(std::move(ev));
    bucket.clear();
    cursor_ = static_cast<std::int64_t>((tick + 1) << kTickBits);
  }

  // Min-heap on (when, seq) over `ready_`, kept by hand so pop() can move the
  // element out (std::priority_queue only exposes a const top()).
  struct After {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  void ready_push(Event ev) {
    ready_.push_back(std::move(ev));
    std::push_heap(ready_.begin(), ready_.end(), After{});
  }
  void pop_to_back() { std::pop_heap(ready_.begin(), ready_.end(), After{}); }

  std::array<std::array<std::vector<Event>, kBuckets>, kLevels> buckets_{};
  std::array<std::uint64_t, kLevels> occupied_{};
  std::vector<Event> ready_;
  std::int64_t cursor_ = 0;  // exclusive end of the drained window, tick-aligned
  std::size_t size_ = 0;     // events stored in buckets (ready_ counted separately)
};

}  // namespace streamlab::detail
