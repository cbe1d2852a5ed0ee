#include "sim/event_loop.hpp"

#include <utility>
#include <vector>

namespace streamlab {

namespace {

// Per-thread EventCtl recycler, mirroring the net::Buffer slab pool: blocks
// whose refcount hits zero park on a thread-local free list (capped) and the
// next schedule_at() reuses them, so steady-state scheduling with handles
// performs no heap allocation. Thread-local (not per-loop) because a handle
// may outlive its loop; the confinement contract guarantees it dies on the
// same thread that allocated the block.
struct CtlPool {
  static constexpr std::size_t kMaxFree = 4096;
  std::vector<EventCtl*> free_list;
  EventCtl::PoolStats stats;
  ~CtlPool() {
    for (EventCtl* ctl : free_list) delete ctl;
  }
};

CtlPool& ctl_pool() {
  thread_local CtlPool pool;
  return pool;
}

}  // namespace

EventCtl* EventCtl::acquire() {
  CtlPool& pool = ctl_pool();
  if (!pool.free_list.empty()) {
    EventCtl* ctl = pool.free_list.back();
    pool.free_list.pop_back();
    ctl->refs = 1;
    ctl->alive = true;
    ctl->live = nullptr;
    ++pool.stats.recycled;
    return ctl;
  }
  ++pool.stats.fresh;
  return new EventCtl;
}

void EventCtl::release(EventCtl* ctl) {
  CtlPool& pool = ctl_pool();
  if (pool.free_list.size() < CtlPool::kMaxFree) {
    pool.free_list.push_back(ctl);
  } else {
    delete ctl;
  }
}

EventCtl::PoolStats EventCtl::pool_stats() { return ctl_pool().stats; }

EventLoop::EventLoop() : wheel_(std::make_unique<detail::TimingWheel<Event>>()) {}

EventLoop::~EventLoop() {
  // Handles may outlive the loop: detach their count pointer so a late
  // cancel() flips the flag without touching freed memory.
  wheel_->for_each([](Event& ev) {
    if (EventCtl* ctl = ev.ctl.get()) ctl->live = nullptr;
  });
}

void EventLoop::enqueue(SimTime when, EventFn fn, obs::EventCategory category,
                        EventCtlRef ctl) {
  if (when < now_) when = now_;
  wheel_->push(Event{when,
                     (next_seq_++ << kCategoryBits) | static_cast<std::uint64_t>(category),
                     std::move(fn), std::move(ctl)});
  ++live_count_;
}

EventHandle EventLoop::schedule_at(SimTime when, EventFn fn,
                                   obs::EventCategory category) {
  EventCtlRef ref(EventCtl::acquire());
  ref.get()->live = &live_count_;
  EventCtlRef queued = ref;
  enqueue(when, std::move(fn), category, std::move(queued));
  return EventHandle(std::move(ref));
}

EventHandle EventLoop::schedule_in(Duration delay, EventFn fn,
                                   obs::EventCategory category) {
  return schedule_at(now_ + delay, std::move(fn), category);
}

void EventLoop::post_at(SimTime when, EventFn fn, obs::EventCategory category) {
  enqueue(when, std::move(fn), category, EventCtlRef());
}

void EventLoop::post_in(Duration delay, EventFn fn, obs::EventCategory category) {
  post_at(now_ + delay, std::move(fn), category);
}

bool EventLoop::fire_next(SimTime deadline) {
  for (;;) {
    Event* top = wheel_->peek();
    if (top == nullptr) return false;
    if (top->when > deadline) return false;
    if (EventCtl* ctl = top->ctl.get(); ctl != nullptr && !ctl->alive) {
      // Cancelled: the live count was settled at cancel() time.
      (void)wheel_->pop();
      continue;
    }
    Event ev = wheel_->pop();
    if (auditor_ != nullptr) auditor_->on_event_dispatch(ev.when, now_);
    now_ = ev.when;
    // Settle the bookkeeping whether fn returns or throws: the event *did*
    // fire either way, so the liveness flag flips (making the handle report
    // not-pending and a late cancel() a harmless no-op — it may already be
    // false if fn cancelled its own handle, in which case cancel() settled
    // the count) and the executed count advances. Without this a throwing
    // callback would leave live_count_ permanently overstating the queue.
    // Handle-free post_* events have no control block and cannot be
    // cancelled, so their liveness settles unconditionally here.
    const auto settle = [this, &ev] {
      if (EventCtl* ctl = ev.ctl.get()) {
        if (ctl->alive) {
          ctl->alive = false;
          --live_count_;
        }
      } else {
        --live_count_;
      }
      ++executed_;
      if constexpr (obs::kObsCompiledIn) {
        if (obs_ != nullptr)
          obs_->on_loop_event(static_cast<obs::EventCategory>(ev.seq & kCategoryMask),
                              live_count_, now_);
      }
    };
    try {
      ev.fn();
    } catch (...) {
      settle();
      throw;
    }
    settle();
    return true;
  }
}

std::uint64_t EventLoop::run(std::uint64_t limit) {
  std::uint64_t n = 0;
  while (n < limit && fire_next(SimTime::max())) ++n;
  return n;
}

std::uint64_t EventLoop::run_until(SimTime deadline) {
  std::uint64_t n = 0;
  while (fire_next(deadline)) ++n;
  if (now_ < deadline) now_ = deadline;
  return n;
}

std::uint64_t EventLoop::run_until(SimTime deadline, std::uint64_t limit) {
  std::uint64_t n = 0;
  while (n < limit && fire_next(deadline)) ++n;
  // Only catch the clock up once the work <= deadline is exhausted; a
  // budget-truncated run leaves the clock where it stopped so the caller
  // can resume.
  if (n < limit && now_ < deadline) now_ = deadline;
  return n;
}

}  // namespace streamlab
