// The benchmark's own span recorder. Spans wrap the benchmark's calls into
// each library layer (the library itself is not instrumented): a span has
// a name, start, end and parent id, and the allocations made while it was
// open. Open spans form a thread-local stack, so a span opened inside
// another becomes its child. Everything is kept in memory and written out
// once, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "metrics.hpp"

namespace perfbench {

class SpanRecorder {
 public:
  using AllocCounter = std::uint64_t (*)();

  /// A disabled recorder makes every span a no-op. `alloc_counter` reports
  /// the process's allocations so far (may be null: spans record zero).
  SpanRecorder(bool enabled, AllocCounter alloc_counter);

  struct Record {
    std::string name;
    SpanTiming timing;
  };

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    std::size_t index_ = SIZE_MAX;  ///< into recorder_.spans_; SIZE_MAX = disabled
  };

  [[nodiscard]] Scope span(const char* name) { return Scope(*this, name); }

  bool enabled() const { return enabled_; }
  /// Switches recording for spans opened from now on (a traced run
  /// alternates traced and untraced repetitions to measure the overhead).
  void set_enabled(bool enabled) { enabled_ = enabled; }
  const std::vector<Record>& spans() const { return spans_; }

  /// Per-name totals over every closed span.
  struct NameTotals {
    std::string name;
    std::size_t calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::uint64_t allocs = 0;
    std::uint64_t self_allocs = 0;
  };
  std::vector<NameTotals> totals_by_name() const;

  /// Writes one JSON object per span (name, id, parent, start/end ns
  /// relative to the recorder's creation, allocs, self time). Returns false
  /// on I/O failure.
  bool write_ndjson(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  bool enabled_;
  AllocCounter alloc_counter_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Record> spans_;
};

}  // namespace perfbench
