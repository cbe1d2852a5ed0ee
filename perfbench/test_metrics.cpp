// Unit tests of the benchmark's metric math. Run: .bench_build/perfbench_tests
#include <cmath>
#include <cstdio>
#include <vector>

#include "metrics.hpp"
#include "spans.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "FAILED line %d: %s\n", line, what);
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_median_and_percentile() {
  EXPECT(near(perfbench::median({}), 0.0));
  EXPECT(near(perfbench::median({3, 1, 2}), 2.0));
  EXPECT(near(perfbench::median({4, 1, 3, 2}), 2.5));
  EXPECT(near(perfbench::percentile(one_to(100), 0.9), 90.0));
  EXPECT(near(perfbench::percentile(one_to(10), 0.5), 5.0));
  EXPECT(near(perfbench::percentile(one_to(10), 1.0), 10.0));
}

void test_tail_percentile_needs_ten_samples_beyond() {
  // 19 samples: the median (rank 10) has only 9 above it.
  EXPECT(!perfbench::tail_percentile(one_to(19)).has_value());
  // 20 samples: p50 at rank 10 has exactly 10 above; p90 (rank 18) has 2.
  auto t = perfbench::tail_percentile(one_to(20));
  EXPECT(t && near(t->q, 0.5) && near(t->value, 10.0) && t->samples == 20);
  // 99 samples: p90 at rank 90 has only 9 above, so p50 is the highest.
  t = perfbench::tail_percentile(one_to(99));
  EXPECT(t && near(t->q, 0.5));
  // 100 samples: p90 at rank 90 has 10 above.
  t = perfbench::tail_percentile(one_to(100));
  EXPECT(t && near(t->q, 0.9) && near(t->value, 90.0));
  // 1000 samples: p99 at rank 990 has 10 above.
  t = perfbench::tail_percentile(one_to(1000));
  EXPECT(t && near(t->q, 0.99) && near(t->value, 990.0));
  EXPECT(perfbench::percentile_label(0.99) == "p99");
  EXPECT(perfbench::percentile_label(0.9) == "p90");
}

void test_ratio_keeps_its_base() {
  const perfbench::Ratio none{0.0, 0.0};
  EXPECT(near(none.value(), 0.0) && near(none.base, 0.0));
  const perfbench::Ratio half{3.0, 6.0};
  EXPECT(near(half.value(), 0.5) && near(half.base, 6.0));
}

void test_unit_times_scale_to_the_reference_host() {
  perfbench::UnitTimes times;
  // A unit measured on a host where the kernel took 2 ms counts half.
  times.add("sim/a", 0.4, 0.3, 0.002);
  times.add("sim/a", 0.1, 0.1, 0.001);
  times.add("sim/a", 0.9, 0.9, 0.003);
  times.add("sim/b", 0.05, 0.05, 0.001);
  times.add("capture", 1.0, 1.0, 0.001);
  // Scaled walls of sim/a: 0.2, 0.1, 0.3 -> median 0.2; sim/b: 0.05.
  EXPECT(near(times.wall("sim/"), 0.25));
  EXPECT(near(times.cpu("sim/a"), 0.15));
  EXPECT(near(times.raw_wall("sim/a"), 0.4));
  EXPECT(near(times.wall(), 1.25));
  EXPECT(near(times.median_kernel_seconds(), 0.001));
}

void test_self_time_subtracts_children() {
  using perfbench::SpanTiming;
  // Root [0,100] with children [10,30] and [50,60]; [20,25] nests in the
  // first child; an overlapping child [25,40] of the root is counted once.
  const std::vector<SpanTiming> spans = {
      {1, 0, 0, 100, 50}, {2, 1, 10, 30, 20}, {3, 2, 20, 25, 5},
      {4, 1, 50, 60, 10}, {5, 1, 25, 40, 3},
  };
  const auto self = perfbench::self_times(spans);
  EXPECT(self[0] == 100 - 30 - 10);  // union of [10,40] and [50,60]
  EXPECT(self[1] == 20 - 5);
  EXPECT(self[2] == 5);
  EXPECT(self[3] == 10);
  const auto allocs = perfbench::self_allocs(spans);
  EXPECT(allocs[0] == 50 - 20 - 10 - 3);
  EXPECT(allocs[1] == 15);
  EXPECT(allocs[2] == 5);
}

std::uint64_t g_fake_allocs = 0;
std::uint64_t fake_allocs() { return g_fake_allocs; }

void test_recorder_nests_spans_and_attributes_allocations() {
  perfbench::SpanRecorder rec(true, fake_allocs);
  {
    auto outer = rec.span("outer");
    g_fake_allocs += 4;
    {
      auto inner = rec.span("inner");
      g_fake_allocs += 6;
    }
  }
  {
    perfbench::SpanRecorder off(false, fake_allocs);
    auto ignored = off.span("ignored");
    EXPECT(off.spans().empty());
  }
  EXPECT(rec.spans().size() == 2);
  EXPECT(rec.spans()[1].timing.parent == rec.spans()[0].timing.id);
  EXPECT(rec.spans()[0].timing.allocs == 10 && rec.spans()[1].timing.allocs == 6);
  for (const auto& t : rec.totals_by_name()) {
    if (t.name == "outer") EXPECT(t.self_allocs == 4 && t.calls == 1);
    if (t.name == "inner") EXPECT(t.self_allocs == 6 && t.self_ns == t.total_ns);
  }
}

}  // namespace

int main() {
  test_median_and_percentile();
  test_tail_percentile_needs_ten_samples_beyond();
  test_ratio_keeps_its_base();
  test_unit_times_scale_to_the_reference_host();
  test_self_time_subtracts_children();
  test_recorder_nests_spans_and_attributes_allocations();
  if (g_failures == 0) std::printf("perfbench_tests: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
