#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

// One node per thread that ever allocated. Nodes are malloc'd, never freed
// and pushed onto a lock-free list, so the counter a thread writes stays
// valid after the thread exits and no destructor runs inside operator new.
struct ThreadCount {
  std::atomic<std::uint64_t> count{0};
  ThreadCount* next = nullptr;
};

std::atomic<ThreadCount*> g_threads{nullptr};
thread_local ThreadCount* t_count = nullptr;

ThreadCount* register_thread() {
  void* raw = std::malloc(sizeof(ThreadCount));
  if (raw == nullptr) throw std::bad_alloc();
  auto* node = new (raw) ThreadCount();
  node->next = g_threads.load(std::memory_order_relaxed);
  while (!g_threads.compare_exchange_weak(node->next, node, std::memory_order_release,
                                          std::memory_order_relaxed)) {
  }
  return node;
}

void count_one() {
  ThreadCount* c = t_count;
  if (c == nullptr) c = t_count = register_thread();
  // Single writer per counter: load + store needs no locked instruction.
  c->count.store(c->count.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

void* counted_malloc(std::size_t size) {
  count_one();
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

namespace perfbench {

std::uint64_t allocations() {
  std::uint64_t total = 0;
  for (const ThreadCount* c = g_threads.load(std::memory_order_acquire); c != nullptr;
       c = c->next)
    total += c->count.load(std::memory_order_relaxed);
  return total;
}

}  // namespace perfbench

// Replacing the global allocation functions in the final binary is allowed
// by [replacement.functions]; aligned forms keep their library definitions.
void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
