#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <map>

namespace perfbench {

namespace {
// Ids of the spans open on this thread, innermost last.
thread_local std::vector<std::uint32_t> t_open;
}  // namespace

SpanRecorder::SpanRecorder(bool enabled, AllocCounter alloc_counter)
    : enabled_(enabled),
      alloc_counter_(alloc_counter),
      origin_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 14);
}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, const char* name) : recorder_(recorder) {
  if (!recorder_.enabled_) return;
  index_ = recorder_.spans_.size();
  Record r;
  r.name = name;
  r.timing.id = static_cast<std::uint32_t>(index_ + 1);
  r.timing.parent = t_open.empty() ? 0 : t_open.back();
  recorder_.spans_.push_back(std::move(r));
  t_open.push_back(recorder_.spans_[index_].timing.id);
  // Stamp allocations and start last, so the recorder's own bookkeeping
  // (which may allocate) stays outside the span.
  SpanTiming& t = recorder_.spans_[index_].timing;
  t.allocs = recorder_.alloc_counter_ ? recorder_.alloc_counter_() : 0;
  t.start_ns = recorder_.now_ns();
}

SpanRecorder::Scope::~Scope() {
  if (index_ == SIZE_MAX) return;
  SpanTiming& t = recorder_.spans_[index_].timing;
  t.end_ns = recorder_.now_ns();
  const std::uint64_t allocs_now = recorder_.alloc_counter_ ? recorder_.alloc_counter_() : 0;
  t.allocs = allocs_now - t.allocs;
  t_open.pop_back();
}

std::vector<SpanRecorder::NameTotals> SpanRecorder::totals_by_name() const {
  std::vector<SpanTiming> timings;
  timings.reserve(spans_.size());
  for (const Record& r : spans_) timings.push_back(r.timing);
  const auto self_ns = self_times(timings);
  const auto self_alloc = self_allocs(timings);
  std::map<std::string, NameTotals> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    NameTotals& t = by_name[spans_[i].name];
    t.name = spans_[i].name;
    ++t.calls;
    t.total_ns += timings[i].end_ns - timings[i].start_ns;
    t.self_ns += self_ns[i];
    t.allocs += timings[i].allocs;
    t.self_allocs += self_alloc[i];
  }
  std::vector<NameTotals> out;
  for (auto& [name, totals] : by_name) out.push_back(std::move(totals));
  std::sort(out.begin(), out.end(),
            [](const NameTotals& a, const NameTotals& b) { return a.self_ns > b.self_ns; });
  return out;
}

bool SpanRecorder::write_ndjson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  std::vector<SpanTiming> timings;
  timings.reserve(spans_.size());
  for (const Record& r : spans_) timings.push_back(r.timing);
  const auto self_ns = self_times(timings);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanTiming& t = timings[i];
    out << "{\"name\":\"" << spans_[i].name << "\",\"id\":" << t.id
        << ",\"parent\":" << t.parent << ",\"start_ns\":" << t.start_ns
        << ",\"end_ns\":" << t.end_ns << ",\"self_ns\":" << self_ns[i]
        << ",\"allocs\":" << t.allocs << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
