#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "host_speed.hpp"

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

std::optional<TailPercentile> tail_percentile(const std::vector<double>& samples) {
  const std::size_t n = samples.size();
  for (const double q : {0.999, 0.99, 0.9, 0.5}) {
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    if (n >= rank + 10) return TailPercentile{q, percentile(samples, q), n};
  }
  return std::nullopt;
}

std::string percentile_label(double q) {
  if (q >= 0.999) return "p99.9";
  if (q >= 0.99) return "p99";
  if (q >= 0.9) return "p90";
  return "p50";
}

void UnitTimes::add(const std::string& unit, double wall_s, double cpu_s, double kernel_s) {
  const double scale = kernel_s > 0.0 ? kNominalKernelSeconds / kernel_s : 1.0;
  auto it = std::find_if(units_.begin(), units_.end(),
                         [&](const auto& entry) { return entry.first == unit; });
  if (it == units_.end()) it = units_.insert(units_.end(), {unit, Samples{}});
  it->second.wall_s.push_back(wall_s * scale);
  it->second.cpu_s.push_back(cpu_s * scale);
  it->second.raw_wall_s.push_back(wall_s);
  it->second.kernel_s.push_back(kernel_s);
}

double UnitTimes::sum(std::string_view prefix, std::vector<double> Samples::*field) const {
  double total = 0.0;
  for (const auto& [name, samples] : units_)
    if (name.rfind(prefix, 0) == 0) total += median(samples.*field);
  return total;
}

double UnitTimes::wall(std::string_view prefix) const { return sum(prefix, &Samples::wall_s); }
double UnitTimes::cpu(std::string_view prefix) const { return sum(prefix, &Samples::cpu_s); }
double UnitTimes::raw_wall(std::string_view prefix) const {
  return sum(prefix, &Samples::raw_wall_s);
}

double UnitTimes::median_kernel_seconds() const {
  std::vector<double> all;
  for (const auto& entry : units_)
    all.insert(all.end(), entry.second.kernel_s.begin(), entry.second.kernel_s.end());
  return median(std::move(all));
}

std::vector<std::int64_t> self_times(const std::vector<SpanTiming>& spans) {
  std::unordered_map<std::uint32_t, std::vector<std::pair<std::int64_t, std::int64_t>>> kids;
  for (const SpanTiming& s : spans)
    if (s.parent != 0) kids[s.parent].emplace_back(s.start_ns, s.end_ns);
  std::vector<std::int64_t> out;
  out.reserve(spans.size());
  for (const SpanTiming& s : spans) {
    std::int64_t covered = 0;
    if (auto it = kids.find(s.id); it != kids.end()) {
      auto& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      std::int64_t reach = s.start_ns;  // end of the union measured so far
      for (auto [a, b] : intervals) {
        a = std::max(a, reach);
        b = std::min(b, s.end_ns);
        if (b > a) {
          covered += b - a;
          reach = b;
        }
      }
    }
    out.push_back(s.end_ns - s.start_ns - covered);
  }
  return out;
}

std::vector<std::uint64_t> self_allocs(const std::vector<SpanTiming>& spans) {
  std::unordered_map<std::uint32_t, std::uint64_t> child_allocs;
  for (const SpanTiming& s : spans)
    if (s.parent != 0) child_allocs[s.parent] += s.allocs;
  std::vector<std::uint64_t> out;
  out.reserve(spans.size());
  for (const SpanTiming& s : spans) {
    const auto it = child_allocs.find(s.id);
    const std::uint64_t kids = it == child_allocs.end() ? 0 : it->second;
    out.push_back(s.allocs >= kids ? s.allocs - kids : 0);
  }
  return out;
}

}  // namespace perfbench
