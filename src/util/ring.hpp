// A growable power-of-two FIFO ring.
//
// std::deque allocates a fresh chunk every few elements as a FIFO streams
// through it and frees the old one as it drains, so a queue that never holds
// more than a handful of elements still hits the heap continuously. Ring
// keeps its slots in one array that doubles when full and is never shrunk:
// once a queue has seen its peak depth, push/pop touch no allocator at all.
// Popped slots are moved out, so a ring of refcounted values (net::Buffer
// packets) releases each value as it leaves.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace streamlab {

template <typename T>
class Ring {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  void push_back(T value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
    ++size_;
  }

  /// Requires !empty().
  T& front() { return slots_[head_]; }

  /// Removes and returns the oldest element. Requires !empty().
  T pop_front() {
    T value = std::move(slots_[head_]);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    return value;
  }

  /// The i-th oldest element, i < size().
  const T& operator[](std::size_t i) const {
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }

 private:
  void grow() {
    std::vector<T> bigger(slots_.empty() ? 8 : slots_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i)
      bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;  // size is zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace streamlab
