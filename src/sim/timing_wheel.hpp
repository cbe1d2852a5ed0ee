// Hierarchical timing wheel with a deterministic drain order.
//
// The classic timer-wheel trade-off is O(1) insert/cancel at the cost of
// losing total order inside a bucket. streamlab cannot give up the
// deterministic (time, insertion-seq) order — campaign digests are
// byte-compared across runs and worker counts — so this wheel restores it by
// never handing events out of a bucket directly: buckets are drained into a
// (when, seq)-ordered ready heap, and events are popped from there.
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
// Window drain. advance() finds the earliest occupied bucket start `best`
// and `top`, the highest level whose earliest bucket starts there, and sets
// E = best + width(top). Every stored event below E is in that one bucket
// or in a level below `top`: a level-l event lies within one l-rotation of
// a cursor <= best, so below best + 64·width(l) <= E; any higher level's
// next bucket starts at a multiple of its width greater than best, so at or
// after E, and so do top's other buckets. When those events number at most
// kDrainMax, advance() moves them all into the ready heap and sets the
// cursor to E — one step instead of a cascade down every level in between.
// Crowded windows (fleet depth) cascade one level at a time as before, and
// so does any window whose E would pass the int64 range (the top level's
// last bucket, where SimTime::max() lives). The ready heap therefore holds
// up to kDrainMax entries plus pushes into the drained window, not one tick.
//
// Ready heap. It orders 24-byte keys {when, seq, slot}; the events it
// stands for wait in a slot vector whose freed slots are recycled, so an
// event moves once into its slot and once out in pop(), and sifts never
// touch its callable. Buckets keep whole events: deep queues never pay
// random slot access, only the small ready set does.
//
// Determinism argument (see DESIGN.md §15):
//  * `cursor_` is the exclusive end of the drained window; an insert with
//    when < cursor_ goes straight into the ready heap, where (when, seq)
//    ordering puts it exactly where the global heap would have.
//  * Same-instant events carry strictly monotone seq numbers, so the ready
//    heap fires them in scheduling order — including events scheduled *into*
//    a window that is already drained (they join the ready heap instead).
//  * Cascades and window drains only change where events wait, never the
//    key they are popped by, so the pop order is independent of both.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>
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
  // Most events a window drain moves into the ready heap in one step.
  static constexpr std::size_t kDrainMax = 64;

  TimingWheel() { reserve_ready(2 * kDrainMax); }

  bool empty() const { return size_ == 0 && ready_.empty(); }
  std::size_t size() const { return size_ + ready_.size(); }

  void push(Event&& ev) {
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
    ++count_[level];
    ++size_;
  }

  /// Earliest event by (when, seq), or nullptr when empty. Advances the
  /// cursor (draining buckets into the ready heap) as needed.
  Event* peek() {
    while (ready_.empty()) {
      if (size_ == 0) return nullptr;
      advance();
    }
    return &slots_[ready_.front().slot];
  }

  /// Removes and returns the event peek() points at. Requires peek() != null.
  Event pop() {
    std::pop_heap(ready_.begin(), ready_.end(), After{});
    const std::uint32_t slot = ready_.back().slot;
    ready_.pop_back();
    Event ev = std::move(slots_[slot]);
    free_.push_back(slot);
    return ev;
  }

  /// Visits every stored event (buckets and ready heap) in no particular
  /// order; used by the loop destructor to detach handle control blocks.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (auto& level : buckets_)
      for (auto& bucket : level)
        for (Event& ev : bucket) fn(ev);
    for (const Key& key : ready_) fn(slots_[key.slot]);
  }

 private:
  static constexpr int shift(int level) { return kTickBits + level * kBucketBits; }
  static constexpr std::int64_t width(int level) { return std::int64_t{1} << shift(level); }
  static constexpr std::int64_t kNone = std::int64_t{-1};
  static constexpr std::int64_t kMaxNs = std::numeric_limits<std::int64_t>::max();

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
  // either drains its whole window into the ready heap (sparse) or cascades
  // it one level down (crowded). Every call retires or demotes at least one
  // bucket, so peek() terminates.
  void advance() {
    std::array<std::int64_t, kLevels> start{};
    std::int64_t best = kNone;
    for (int l = 0; l < kLevels; ++l) {
      start[l] = next_bucket_start(l);
      if (start[l] != kNone && (best == kNone || start[l] < best)) best = start[l];
    }
    int top = kLevels - 1;
    while (start[top] != best) --top;
    const std::size_t top_idx = (static_cast<std::uint64_t>(best) >> shift(top)) & kMask;
    if (top >= 1 && best <= kMaxNs - width(top)) {
      std::size_t window = buckets_[top][top_idx].size();
      for (int l = 0; l < top; ++l) window += count_[l];
      if (window <= kDrainMax) {
        for (int l = 0; l < top; ++l)
          for (std::uint64_t occ = occupied_[l]; occ != 0; occ &= occ - 1)
            drain(l, static_cast<std::size_t>(std::countr_zero(occ)));
        drain(top, top_idx);
        cursor_ = best + width(top);
        return;
      }
    }
    cursor_ = best;  // safe: no stored event precedes the earliest bucket
    // Cascade top-down every level whose earliest bucket starts exactly here;
    // higher levels redistribute into lower ones strictly ahead of the
    // cursor's own bucket, so order of arrival below is immaterial, and no
    // cascade changes whether a lower level's earliest bucket starts here.
    for (int l = top; l >= 1; --l)
      if (start[l] == best) cascade(l, (static_cast<std::uint64_t>(best) >> shift(l)) & kMask);
    const std::uint64_t tick = static_cast<std::uint64_t>(cursor_) >> kTickBits;
    const std::size_t idx = tick & kMask;
    if (occupied_[0] & (std::uint64_t{1} << idx)) {
      drain(0, idx);
      // The last tick's end, 2^63, saturates: later pushes at
      // SimTime::max() wait in its bucket behind the ready heap, which
      // their larger seq puts them behind anyway.
      const std::uint64_t end = (tick + 1) << kTickBits;
      cursor_ = end > static_cast<std::uint64_t>(kMaxNs) ? kMaxNs
                                                         : static_cast<std::int64_t>(end);
    }
  }

  void cascade(int level, std::size_t idx) {
    auto& bucket = buckets_[level][idx];
    occupied_[level] &= ~(std::uint64_t{1} << idx);
    count_[level] -= bucket.size();
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

  // Moves one bucket's events into the ready heap; the caller moves the
  // cursor past them.
  void drain(int level, std::size_t idx) {
    auto& bucket = buckets_[level][idx];
    occupied_[level] &= ~(std::uint64_t{1} << idx);
    count_[level] -= bucket.size();
    size_ -= bucket.size();
    for (Event& ev : bucket) ready_push(std::move(ev));
    bucket.clear();
  }

  // The ready heap's entry: the event's order key and the slot it waits in.
  struct Key {
    std::int64_t when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  // Min-heap on (when, seq) over `ready_`, kept by hand so pop() can take
  // the slot of the element it removes.
  struct After {
    bool operator()(const Key& a, const Key& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  void ready_push(Event&& ev) {
    std::uint32_t slot;
    if (free_.empty()) {
      // The three ready-side vectors grow together, so ready_ and free_
      // (never longer than slots_) allocate only here.
      if (slots_.size() == slots_.capacity()) reserve_ready(2 * slots_.capacity());
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(std::move(ev));
    } else {
      slot = free_.back();
      free_.pop_back();
      slots_[slot] = std::move(ev);
    }
    ready_.push_back(Key{slots_[slot].when.ns(), slots_[slot].seq, slot});
    std::push_heap(ready_.begin(), ready_.end(), After{});
  }

  void reserve_ready(std::size_t n) {
    ready_.reserve(n);
    slots_.reserve(n);
    free_.reserve(n);
  }

  std::array<std::array<std::vector<Event>, kBuckets>, kLevels> buckets_{};
  std::array<std::uint64_t, kLevels> occupied_{};
  std::array<std::size_t, kLevels> count_{};  // events stored per level
  std::vector<Key> ready_;
  std::vector<Event> slots_;           // ready events by slot; vacated ones are moved-from
  std::vector<std::uint32_t> free_;    // vacated slots, reused before slots_ grows
  // Exclusive end of the drained window: tick-aligned, or kMaxNs once the
  // last tick is drained.
  std::int64_t cursor_ = 0;
  std::size_t size_ = 0;     // events stored in buckets (ready_ counted separately)
};

}  // namespace streamlab::detail
