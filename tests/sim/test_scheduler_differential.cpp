// The timing wheel against its reference, plus the event loop's contract.
//
// detail::TimingWheel must pop exactly what a plain (when, seq) binary heap
// pops (tests/sim/reference_queue.hpp). The differential harness below feeds
// both the same deterministic pseudo-random push/pop program — same-instant
// clusters on bucket boundaries, far-future times up to SimTime::max(),
// pushes between pops at or after the last popped time (the loop's
// `when >= now` clamp), and a steady state at fleet depth — and compares the
// full pop sequences. The loop tests after it pin the contract the wheel
// serves: cancels, budget-truncated runs, post/schedule ordering.
#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <type_traits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "reference_queue.hpp"
#include "sim/event_loop.hpp"
#include "sim/timing_wheel.hpp"

namespace streamlab {
namespace {

// Deterministic 64-bit LCG so every program is identical across runs and
// platforms.
struct Lcg {
  std::uint64_t x;
  std::uint64_t next() {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 11;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

struct Entry {
  SimTime when;
  std::uint64_t seq;
};

using PopLog = std::vector<std::pair<std::int64_t, std::uint64_t>>;  // (when ns, seq)

// Runs one push/pop program through the wheel and the reference in lockstep:
// each push reaches both with the same seq, each pop takes the head of both
// (peek, then pop, as the loop does). The caller steers later pushes by the
// reference's pop times, so a diverging wheel cannot change the program.
class Lockstep {
 public:
  void push(SimTime when) {
    const Entry e{when, next_seq_++};
    wheel_.push(Entry{e});
    ref_.push(e);
  }

  /// Pops both heads and returns the reference's time: the clock a loop
  /// would advance to. Requires !empty().
  SimTime pop() {
    if (wheel_.peek() != nullptr) {
      const Entry w = wheel_.pop();
      wheel_log_.emplace_back(w.when.ns(), w.seq);
    }
    const Entry r = ref_.pop();
    ref_log_.emplace_back(r.when.ns(), r.seq);
    return r.when;
  }

  bool empty() const { return ref_.empty(); }
  std::size_t size() const { return ref_.size(); }
  std::size_t wheel_size() const { return wheel_.size(); }
  std::size_t popped() const { return ref_log_.size(); }

  /// Empty when the wheel popped exactly the reference's sequence and ended
  /// empty with it; otherwise the first difference.
  std::string divergence() {
    const std::size_t n = std::min(wheel_log_.size(), ref_log_.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (wheel_log_[i] != ref_log_[i]) {
        return "pop " + std::to_string(i) + ": wheel (" +
               std::to_string(wheel_log_[i].first) + ", " +
               std::to_string(wheel_log_[i].second) + ") vs reference (" +
               std::to_string(ref_log_[i].first) + ", " +
               std::to_string(ref_log_[i].second) + ")";
      }
    }
    if (wheel_log_.size() != ref_log_.size())
      return "wheel popped " + std::to_string(wheel_log_.size()) +
             " entries, reference " + std::to_string(ref_log_.size());
    if (ref_.empty() && (!wheel_.empty() || wheel_.peek() != nullptr))
      return "wheel still holds entries after the reference drained";
    return "";
  }

 private:
  detail::TimingWheel<Entry> wheel_;
  sim_test::ReferenceQueue<Entry> ref_;
  std::uint64_t next_seq_ = 0;
  PopLog wheel_log_;
  PopLog ref_log_;
};

using Wheel = detail::TimingWheel<Entry>;
constexpr std::int64_t kTickNs = std::int64_t{1} << Wheel::kTickBits;

// Width of one bucket at wheel level `level`.
constexpr std::int64_t level_width(int level) {
  return std::int64_t{1} << (Wheel::kTickBits + level * Wheel::kBucketBits);
}

// One adversarial program: 400 entries over 50 ms, same-instant clusters on
// tick and coarser bucket edges, far-future entries up to SimTime::max(),
// then pops in random bursts with pushes between them at the last popped
// time, inside the tick just drained, on the next tick edge, and ahead.
void adversarial_program(Lockstep& q, std::uint64_t seed) {
  Lcg rng{seed};
  for (int i = 0; i < 400; ++i)
    q.push(SimTime(static_cast<std::int64_t>(rng.below(50'000'000))));

  // Start of level-0 tick 10240, of a level-1 bucket (2^16 ns), of a level-2
  // bucket (3 * 2^22 ns) and of a level-3 bucket (2^28 ns), each with
  // neighbours one nanosecond before it and at the end of its tick.
  for (const std::int64_t edge : {std::int64_t{10'485'760}, std::int64_t{1} << 16,
                                  std::int64_t{3} << 22, std::int64_t{1} << 28}) {
    q.push(SimTime(edge - 1));
    for (int i = 0; i < 50; ++i) q.push(SimTime(edge));
    q.push(SimTime(edge + kTickNs - 1));
  }

  // Far future: 1 s .. ~17 min, then the top of the time range.
  for (int i = 0; i < 20; ++i)
    q.push(SimTime(static_cast<std::int64_t>(1'000'000'000ULL +
                                             rng.below(1'000'000'000'000ULL))));
  q.push(SimTime(std::int64_t{1} << 62));
  q.push(SimTime(SimTime::max().ns() - 1));
  q.push(SimTime::max());
  q.push(SimTime::max());

  // Pops in bursts; pushes only while the clock is far from the top of the
  // range, so `now + delay` cannot overflow.
  SimTime now = SimTime::zero();
  int push_budget = 3000;
  while (!q.empty()) {
    const std::uint64_t burst = 1 + rng.below(40);
    for (std::uint64_t k = 0; k < burst && !q.empty(); ++k) now = q.pop();
    if (now.ns() >= (std::int64_t{1} << 61)) continue;
    const std::int64_t tick_end = ((now.ns() / kTickNs) + 1) * kTickNs;
    for (std::uint64_t j = rng.below(4); j > 0 && push_budget > 0; --j, --push_budget) {
      switch (rng.below(5)) {
        case 0:  // the instant just popped
          q.push(now);
          break;
        case 1:  // inside the tick just drained
          q.push(SimTime(now.ns() + static_cast<std::int64_t>(rng.below(
                                        static_cast<std::uint64_t>(tick_end - now.ns())))));
          break;
        case 2:  // the next tick edge
          q.push(SimTime(tick_end));
          break;
        case 3:  // near future
          q.push(now + Duration(static_cast<std::int64_t>(rng.below(2'000'000))));
          break;
        default:  // far future
          q.push(now + Duration(static_cast<std::int64_t>(rng.below(1'000'000'000'000ULL))));
          break;
      }
    }
  }
}

TEST(SchedulerDifferential, WheelMatchesHeapOnAdversarialPrograms) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 1234567ULL, 0xDEADBEEFULL}) {
    Lockstep q;
    adversarial_program(q, seed);
    ASSERT_GT(q.popped(), 400u);
    EXPECT_EQ(q.divergence(), "") << "seed " << seed;
  }
}

// Fleet depth: ~10^5 entries stay pending across the wheel's levels while
// every pop pushes one successor, so the multi-level cascade runs in steady
// state against the reference.
TEST(SchedulerDifferential, WheelMatchesHeapAtFleetDepth) {
  constexpr std::size_t kDepth = 100'000;
  constexpr int kSteps = 300'000;
  Lcg rng{0xF1EE7ULL};
  Lockstep q;
  for (std::size_t i = 0; i < kDepth; ++i)
    q.push(SimTime(static_cast<std::int64_t>(rng.below(2'000'000'000))));

  // Delays spread over levels 0..4: under 64 µs, 4 ms, 268 ms, 17 s, 18 min.
  constexpr std::uint64_t kSpan[] = {std::uint64_t{1} << 16, std::uint64_t{1} << 22,
                                     std::uint64_t{1} << 28, std::uint64_t{1} << 34,
                                     std::uint64_t{1} << 40};
  for (int step = 0; step < kSteps; ++step) {
    const SimTime now = q.pop();
    const std::uint64_t span = kSpan[rng.below(std::size(kSpan))];
    q.push(now + Duration(static_cast<std::int64_t>(rng.below(span))));
  }
  EXPECT_EQ(q.size(), kDepth);
  EXPECT_EQ(q.wheel_size(), kDepth);
  while (!q.empty()) q.pop();
  EXPECT_EQ(q.divergence(), "");
}

// Sparse queue across every level: at most 48 entries pending (under the
// wheel's kDrainMax), each push a delay drawn for one of levels 0..7 —
// sometimes landing exactly on that level's next bucket edge — so the
// earliest bucket is by turns a level-1..7 bucket holding the whole window
// below it, and each window is drained into the ready heap in one step.
// Then the top of the range, where the window end would overflow int64 and
// the wheel must cascade instead: the last level-7 and level-8 buckets,
// SimTime::max() and pushes at the instant just popped up there.
void sparse_program(Lockstep& q, std::uint64_t seed) {
  Lcg rng{seed};
  q.push(SimTime::zero());
  for (int step = 0; step < 20'000 && !q.empty(); ++step) {
    const SimTime now = q.pop();
    if (now.ns() >= (std::int64_t{1} << 62)) continue;
    const std::size_t want = 1 + rng.below(48);
    while (q.size() < want) {
      // Skewed to low levels, and short multiples at levels 6 and 7, so the
      // clock climbs slowly enough for thousands of rounds.
      const int level = static_cast<int>(std::min(rng.below(8), rng.below(8)));
      const std::int64_t w = level_width(level);
      const std::uint64_t span = level >= 6 ? 2 : 63;
      std::int64_t when = now.ns() + w * static_cast<std::int64_t>(1 + rng.below(span)) +
                          static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(w)));
      if (rng.below(4) == 0) when = (when / w) * w;  // a bucket edge at that level
      q.push(SimTime(when));
    }
  }
  while (!q.empty()) q.pop();

  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::int64_t last7 = kMax - level_width(7) + 1;  // last level-7 bucket
  const std::int64_t last8 = kMax - level_width(8) + 1;  // last level-8 bucket
  for (const std::int64_t t : {std::int64_t{1} << 62, last8 - 1, last8, last8 + 5, last7 - 1,
                               last7, last7, last7 + kTickNs, kMax - 1, kMax, kMax})
    q.push(SimTime(t));
  while (!q.empty()) {
    const SimTime now = q.pop();
    if (now.ns() >= last7 && rng.below(2) == 0) {
      q.push(now);
      if (now.ns() < kMax) q.push(SimTime::max());
    }
  }
}

TEST(SchedulerDifferential, SparseWindowDrainsMatchHeapAtEveryLevel) {
  for (const std::uint64_t seed : {3ULL, 99ULL, 0xC0FFEEULL}) {
    Lockstep q;
    sparse_program(q, seed);
    ASSERT_GT(q.popped(), 20'000u);
    EXPECT_EQ(q.divergence(), "") << "seed " << seed;
  }
}

// Swings the pending count across kDrainMax many times: each round crowds
// 40..119 instants (some pushed four times) into one bucket of a level 1..4
// ahead of the clock, so its window is by turns drained whole or cascaded,
// then pops it back down to a handful with near-future pushes in between.
TEST(SchedulerDifferential, SwingsAcrossDrainLimitMatchHeap) {
  Lcg rng{0x5A1AULL};
  Lockstep q;
  SimTime now = SimTime::zero();
  int crowded = 0;
  for (int round = 0; round < 60; ++round) {
    const std::int64_t w = level_width(1 + static_cast<int>(rng.below(4)));
    const std::int64_t base = (now.ns() / w + 1 + static_cast<std::int64_t>(rng.below(3))) * w;
    for (std::uint64_t i = 40 + rng.below(80); i > 0; --i) {
      const SimTime at(base +
                       static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(w))));
      for (std::uint64_t k = rng.below(8) == 0 ? 4 : 1; k > 0; --k) q.push(at);
    }
    if (q.size() > Wheel::kDrainMax) ++crowded;
    const std::size_t floor = 1 + rng.below(8);
    while (q.size() > floor) {
      now = q.pop();
      if (rng.below(3) == 0)
        q.push(now + Duration(static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(w)))));
    }
  }
  while (!q.empty()) q.pop();
  EXPECT_GT(crowded, 20);
  EXPECT_LT(crowded, 60);
  EXPECT_EQ(q.divergence(), "");
}

// Pushes that land on the edges of a window the wheel may just have
// drained: for a random level 1..7, the end E of that level's bucket
// holding the clock, at E - 1 ns, exactly at E, as same-instant clusters
// (at the clock, E - 1 or E), and anywhere inside the window.
TEST(SchedulerDifferential, PushesIntoDrainedWindowMatchHeap) {
  for (const std::uint64_t seed : {11ULL, 4242ULL}) {
    Lcg rng{seed};
    Lockstep q;
    for (int i = 0; i < 30; ++i)
      q.push(SimTime(level_width(1 + static_cast<int>(rng.below(5))) *
                     static_cast<std::int64_t>(1 + rng.below(63))));
    for (int step = 0; step < 30'000 && !q.empty(); ++step) {
      const SimTime now = q.pop();
      if (now.ns() >= (std::int64_t{1} << 60) || q.size() >= 60) continue;
      const std::int64_t w = level_width(1 + static_cast<int>(rng.below(7)));
      const std::int64_t end = (now.ns() / w + 1) * w;
      for (std::uint64_t j = 1 + rng.below(2); j > 0; --j) {
        switch (rng.below(4)) {
          case 0:
            q.push(SimTime(end - 1));
            break;
          case 1:
            q.push(SimTime(end));
            break;
          case 2: {
            const std::int64_t at[] = {now.ns(), end - 1, end};
            const SimTime t(at[rng.below(3)]);
            for (std::uint64_t k = 2 + rng.below(6); k > 0; --k) q.push(t);
            break;
          }
          default:
            q.push(SimTime(now.ns() + static_cast<std::int64_t>(
                                          rng.below(static_cast<std::uint64_t>(end - now.ns())))));
            break;
        }
      }
    }
    while (!q.empty()) q.pop();
    ASSERT_GE(q.popped(), 30'000u);
    EXPECT_EQ(q.divergence(), "") << "seed " << seed;
  }
}

// A budget-truncated run resumed mid-bucket must keep the
// same-instant scheduling order across the resume boundary — including
// events scheduled for that same instant *during* the pause.
TEST(EventLoopContract, TruncatedRunResumedMidBucketKeepsOrder) {
  EventLoop loop;
  std::vector<int> order;
  const SimTime t = SimTime::from_seconds(1.0);
  loop.post_at(SimTime::from_seconds(0.5), [&] { order.push_back(-1); });
  for (int i = 0; i < 10; ++i) loop.post_at(t, [&, i] { order.push_back(i); });

  // Budget cuts inside the same-instant batch: -1 plus three of the ten.
  EXPECT_EQ(loop.run_until(SimTime::from_seconds(2.0), 4), 4u);
  EXPECT_EQ(loop.now(), t);  // truncated: clock stays at the last fired event
  ASSERT_EQ(order, (std::vector<int>{-1, 0, 1, 2}));

  // Late arrivals for the same instant during the pause: they must fire
  // after the already-scheduled batch (insertion order), not before.
  for (int i = 10; i < 13; ++i) loop.post_at(t, [&, i] { order.push_back(i); });

  loop.run_until(SimTime::from_seconds(2.0));
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}));
  EXPECT_EQ(loop.now(), SimTime::from_seconds(2.0));
  EXPECT_TRUE(loop.empty());
}

// Cancel-heavy workload — 90% of scheduled events cancelled.
// pending_events()/empty() must stay truthful throughout, the lazily-purged
// slots must not disturb the survivors' order, and nothing may leak (this
// suite runs under the ASan job).
TEST(EventLoopContract, CancelHeavyWorkloadStaysTruthful) {
  EventLoop loop;
  constexpr int kN = 5000;
  std::vector<EventHandle> handles;
  handles.reserve(kN);
  std::vector<int> order;
  for (int i = 0; i < kN; ++i) {
    // Scatter deterministically; collisions are fine (seq breaks ties).
    const SimTime when(static_cast<std::int64_t>(i) * 7919 % 100'000'000);
    handles.push_back(loop.schedule_at(when, [&, i] { order.push_back(i); }));
  }
  EXPECT_EQ(loop.pending_events(), static_cast<std::size_t>(kN));

  std::size_t cancelled = 0;
  for (int i = 0; i < kN; ++i) {
    if (i % 10 != 0) {
      handles[static_cast<std::size_t>(i)].cancel();
      ++cancelled;
    }
  }
  EXPECT_EQ(loop.pending_events(), kN - cancelled);
  EXPECT_FALSE(loop.empty());

  // Double-cancel is a no-op on the count.
  handles[1].cancel();
  EXPECT_EQ(loop.pending_events(), kN - cancelled);

  EXPECT_EQ(loop.run(), kN - cancelled);
  EXPECT_EQ(order.size(), kN - cancelled);
  EXPECT_TRUE(loop.empty());
  EXPECT_EQ(loop.pending_events(), 0u);

  // Survivors fired in (time, seq) order.
  std::vector<int> expected;
  for (int i = 0; i < kN; i += 10) expected.push_back(i);
  std::sort(expected.begin(), expected.end(), [](int a, int b) {
    const std::int64_t ta = static_cast<std::int64_t>(a) * 7919 % 100'000'000;
    const std::int64_t tb = static_cast<std::int64_t>(b) * 7919 % 100'000'000;
    return ta != tb ? ta < tb : a < b;
  });
  EXPECT_EQ(order, expected);

  // The loop stays fully usable after the lazily-purged run.
  bool again = false;
  loop.post_in(Duration::millis(1), [&] { again = true; });
  loop.run();
  EXPECT_TRUE(again);
}

TEST(EventLoopContract, PostAndScheduleShareOneTotalOrder) {
  EventLoop loop;
  std::vector<int> order;
  const SimTime t = SimTime::from_seconds(1.0);
  loop.post_at(t, [&] { order.push_back(0); });
  loop.schedule_at(t, [&] { order.push_back(1); });
  loop.post_at(t, [&] { order.push_back(2); });
  EXPECT_EQ(loop.pending_events(), 3u);
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(loop.executed_events(), 3u);
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoopContract, FarFutureEventsFireExactly) {
  EventLoop loop;
  std::vector<std::int64_t> at;
  // Spread across wheel levels: ~66µs, ~4ms, ~270ms, ~17s, ~18min, ~2 days.
  const std::int64_t whens[] = {70'000,         4'300'000,      300'000'000,
                                18'000'000'000, 1'100'000'000'000,
                                180'000'000'000'000};
  for (const std::int64_t w : whens) {
    loop.post_at(SimTime(w), [&, w] {
      EXPECT_EQ(loop.now().ns(), w);
      at.push_back(w);
    });
  }
  // An event parked at the far end of the top level must not block the run.
  EventHandle far = loop.schedule_at(SimTime::max(), [] {});
  loop.run_until(SimTime(whens[5]));
  EXPECT_EQ(at.size(), 6u);
  EXPECT_TRUE(far.pending());
  EXPECT_EQ(loop.pending_events(), 1u);
  far.cancel();
  EXPECT_TRUE(loop.empty());
}

// A pending SimTime::max() event held by a handle across loop destruction:
// the destructor must detach the control block so the late cancel is a no-op
// on freed memory (exercised under ASan).
TEST(EventLoopContract, HandleOutlivesLoopHarmlessly) {
  EventHandle h;
  {
    EventLoop loop;
    h = loop.schedule_at(SimTime::max(), [] {});
    EXPECT_TRUE(h.pending());
  }
  EXPECT_TRUE(h.pending());  // flag untouched; count pointer detached
  h.cancel();
  EXPECT_FALSE(h.pending());
}

TEST(EventFnTest, SmallCapturesStayInline) {
  int hits = 0;
  void* a = nullptr;
  void* b = nullptr;
  EventFn small([&hits, a, b] { ++hits; });
  EXPECT_TRUE(small.is_inline());
  small();
  EXPECT_EQ(hits, 1);

  // Moving preserves the callable.
  EventFn moved = std::move(small);
  EXPECT_TRUE(moved.is_inline());
  moved();
  EXPECT_EQ(hits, 2);
}

// A capture over the inline budget takes one heap cell: moves pass the
// cell along, and it is freed exactly once.
TEST(EventFnTest, LargeCapturesFallBackToHeap) {
  auto token = std::make_shared<int>(1);
  std::array<std::uint64_t, 16> big{};
  big[0] = 40;
  int out = 0;
  {
    EventFn fn([big, token, &out] { out = static_cast<int>(big[0]) + 1 + *token; });
    EXPECT_FALSE(fn.is_inline());
    EventFn moved = std::move(fn);
    EventFn assigned;
    assigned = std::move(moved);
    EXPECT_FALSE(assigned.is_inline());
    EXPECT_EQ(token.use_count(), 2);
    assigned();
    EXPECT_EQ(out, 42);
  }
  EXPECT_EQ(token.use_count(), 1);
}

// A `[this, idx]`-style capture is trivially copyable, so EventFn moves it
// by copying bytes. Chains of moves — construction, vector growth, move
// assignment over a live callable — must keep every callable intact and
// calling its own closure.
TEST(EventFnTest, TriviallyCopyableCaptureSurvivesMoveChains) {
  struct Recorder {
    std::vector<int> calls;
  } rec;
  Recorder* self = &rec;
  const auto make = [self](int i) {
    return [self, i, tag = std::uint64_t{0x5EED} * static_cast<std::uint64_t>(i)] {
      self->calls.push_back(tag == std::uint64_t{0x5EED} * static_cast<std::uint64_t>(i) ? i : -1);
    };
  };
  static_assert(std::is_trivially_copyable_v<decltype(make(0))>);

  std::vector<EventFn> fns;
  for (int i = 0; i < 100; ++i) fns.emplace_back(make(i));  // growth moves them all
  for (const EventFn& fn : fns) EXPECT_TRUE(fn.is_inline());
  std::reverse(fns.begin(), fns.end());                    // swaps: three moves each
  EventFn held = std::move(fns[0]);                        // i = 99
  fns[0] = std::move(fns[1]);                              // i = 98 over a moved-from
  fns[1] = make(1000);                                     // over a moved-from
  fns[2] = make(2000);                                     // over a live i = 97
  for (EventFn& fn : fns) fn();
  held();

  std::vector<int> expected{98, 1000, 2000};
  for (int i = 96; i >= 0; --i) expected.push_back(i);
  expected.push_back(99);
  EXPECT_EQ(rec.calls, expected);
}

// A non-trivial inline capture keeps its own move constructor and
// destructor: however often it moves, exactly one live copy is destroyed,
// and a captured shared_ptr is released exactly once.
TEST(EventFnTest, NonTrivialInlineCaptureDestroyedExactlyOnce) {
  struct Counted {
    int* destroyed;
    bool owner = true;
    explicit Counted(int* d) : destroyed(d) {}
    Counted(Counted&& o) noexcept : destroyed(o.destroyed) { o.owner = false; }
    Counted(const Counted&) = delete;
    ~Counted() {
      if (owner) ++*destroyed;
    }
  };
  int destroyed = 0;
  int calls = 0;
  auto token = std::make_shared<int>(7);
  {
    auto closure = [c = Counted(&destroyed), token, &calls] { calls += *token; };
    static_assert(!std::is_trivially_copyable_v<decltype(closure)>);
    EventFn fn(std::move(closure));
    EXPECT_TRUE(fn.is_inline());
    EXPECT_EQ(token.use_count(), 2);
    EventFn a = std::move(fn);
    EventFn b;
    b = std::move(a);
    std::vector<EventFn> v;
    v.push_back(std::move(b));
    v.reserve(64);  // relocates through the move constructor
    v[0]();
    EXPECT_EQ(calls, 7);
    EXPECT_EQ(destroyed, 0);
    EXPECT_EQ(token.use_count(), 2);
    v[0] = EventFn([] {});  // destroys the live capture
    EXPECT_EQ(destroyed, 1);
    EXPECT_EQ(token.use_count(), 1);
  }
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(token.use_count(), 1);
}

// The EventCtl pool: after a warm-up burst, handle-ful scheduling recycles
// control blocks instead of heap-allocating fresh ones.
TEST(EventCtlPool, SteadyStateRecyclesBlocks) {
  EventLoop loop;
  // Warm the thread-local pool.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 64; ++i) loop.schedule_in(Duration::micros(i), [] {});
    loop.run();
  }
  const EventCtl::PoolStats before = EventCtl::pool_stats();
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 64; ++i) loop.schedule_in(Duration::micros(i), [] {});
    loop.run();
  }
  const EventCtl::PoolStats after = EventCtl::pool_stats();
  EXPECT_EQ(after.fresh, before.fresh) << "steady state should not heap-allocate";
  EXPECT_GE(after.recycled - before.recycled, 4u * 64u);
}

}  // namespace
}  // namespace streamlab
