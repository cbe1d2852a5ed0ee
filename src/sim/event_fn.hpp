// Small-buffer-optimized event callback.
//
// `std::function<void()>` heap-allocates for any capture larger than two
// pointers, which at city-scale fleet sizes means one allocation per
// scheduled event. EventFn is a move-only callable with 48 bytes of inline
// storage, so a closure that fits is stored directly inside the queued
// event. Every capture the simulator schedules today fits — `this` plus an
// index or two — because nothing schedules a packet by value: a link keeps
// its in-flight packets in a per-direction FIFO and posts only
// `[this, dir]` (an Ipv4Packet capture would be 64 B). Larger or
// throwing-move captures fall back to a single heap cell per event,
// preserving std::function semantics for the rare big capture.
//
// A queued event is moved several times (into its wheel bucket, down a
// cascade, into the ready set, out to fire), so a move must be cheap. For a
// trivially copyable inline capture — every `[this, idx…]` closure — a move
// copies the buffer's bytes and destruction is a no-op; the ops table holds
// null instead of a relocate/destroy function, so neither costs an
// indirect call. Other inline captures keep their move constructor and
// destructor, and a heap cell moves by copying its pointer.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace streamlab {

class EventFn {
 public:
  /// Inline capture budget. Sized so the queued Event (when + seq + fn + ctl)
  /// still packs a handful per cache-line pair; captures up to this size with
  /// a noexcept move constructor stay allocation-free.
  static constexpr std::size_t kInlineBytes = 48;

  EventFn() noexcept = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): callable adapter
    if constexpr (sizeof(D) <= kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      *reinterpret_cast<D**>(buf_) = new D(std::forward<F>(f));
      ops_ = &kHeapOps<D>;
    }
  }

  EventFn(EventFn&& other) noexcept { steal(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  void operator()() { ops_->call(buf_); }
  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// True when the capture lives in the inline buffer (no heap cell).
  bool is_inline() const noexcept { return ops_ != nullptr && ops_->inline_storage; }

 private:
  struct Ops {
    void (*call)(void*);
    // Move-construct dst from src and destroy src; null when copying the
    // buffer's bytes is the whole move.
    void (*relocate)(void* dst, void* src);
    // Null when the capture needs no destructor call.
    void (*destroy)(void*);
    bool inline_storage;
  };

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* p) { (*static_cast<D*>(p))(); },
      std::is_trivially_copyable_v<D>
          ? nullptr
          : +[](void* dst, void* src) {
              auto* s = static_cast<D*>(src);
              ::new (dst) D(std::move(*s));
              s->~D();
            },
      std::is_trivially_destructible_v<D>
          ? nullptr
          : +[](void* p) { static_cast<D*>(p)->~D(); },
      true};

  template <typename D>
  static constexpr Ops kHeapOps{
      [](void* p) { (**reinterpret_cast<D**>(p))(); },
      nullptr,  // the buffer holds only the cell's pointer
      [](void* p) { delete *reinterpret_cast<D**>(p); },
      false};

  void steal(EventFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->relocate != nullptr) {
        ops_->relocate(buf_, other.buf_);
      } else {
        std::memcpy(buf_, other.buf_, kInlineBytes);
      }
      other.ops_ = nullptr;
    }
  }
  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace streamlab
