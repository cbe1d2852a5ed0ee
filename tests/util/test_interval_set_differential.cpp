// IntervalSet against a byte-set reference: random insert programs shaped
// like the clients' traffic (in order, reordered, overlapping, adjacent,
// contained), with every query checked after every insert.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/interval_set.hpp"
#include "util/rng.hpp"

namespace streamlab {
namespace {

constexpr std::uint64_t kSpace = 512;  // byte universe of the reference

/// One flag per byte; the obviously-correct model of an interval set.
struct ByteSet {
  std::vector<bool> have = std::vector<bool>(kSpace + 1, false);

  void insert(std::uint64_t start, std::uint64_t end) {
    for (std::uint64_t i = start; i < end; ++i) have[i] = true;
  }
  bool covers(std::uint64_t start, std::uint64_t end) const {
    for (std::uint64_t i = start; i < end; ++i)
      if (!have[i]) return false;
    return true;
  }
  std::uint64_t contiguous_prefix() const {
    std::uint64_t n = 0;
    while (n < kSpace && have[n]) ++n;
    return n;
  }
  std::uint64_t total() const {
    std::uint64_t n = 0;
    for (std::uint64_t i = 0; i < kSpace; ++i) n += have[i] ? 1 : 0;
    return n;
  }
  std::size_t runs() const {
    std::size_t n = 0;
    for (std::uint64_t i = 0; i < kSpace; ++i) n += have[i] && (i == 0 || !have[i - 1]);
    return n;
  }
};

enum class Shape { kInOrder, kReordered, kOverlapping, kAdjacent, kContained };

/// Inserts of one program shape over [0, kSpace).
std::vector<std::pair<std::uint64_t, std::uint64_t>> program(Shape shape, Rng& rng) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ops;
  const auto rand = [&](std::uint64_t lo, std::uint64_t hi) {
    return static_cast<std::uint64_t>(
        rng.uniform_int(static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
  };
  switch (shape) {
    case Shape::kInOrder:
    case Shape::kReordered: {
      // Fixed-size "packets" laid end to end, some lost; reordered swaps
      // neighbours so arrivals fill gaps from both sides.
      for (std::uint64_t s = 0; s + 16 <= kSpace; s += 16)
        if (!rng.chance(0.1)) ops.emplace_back(s, s + 16);
      if (shape == Shape::kReordered)
        for (std::size_t i = 1; i < ops.size(); ++i)
          if (rng.chance(0.4)) std::swap(ops[i - 1], ops[i]);
      break;
    }
    case Shape::kOverlapping:
      for (int i = 0; i < 40; ++i) {
        const std::uint64_t s = rand(0, kSpace - 1);
        ops.emplace_back(s, rand(s, kSpace));  // may be empty
      }
      break;
    case Shape::kAdjacent:
      // Ranges that touch an earlier one exactly at either end.
      ops.emplace_back(200, 240);
      for (int i = 0; i < 30; ++i) {
        const auto [s, e] = ops[static_cast<std::size_t>(rand(0, ops.size() - 1))];
        const std::uint64_t len = rand(1, 24);
        if (rng.chance(0.5) && e + len <= kSpace)
          ops.emplace_back(e, e + len);
        else if (s >= len)
          ops.emplace_back(s - len, s);
      }
      break;
    case Shape::kContained:
      ops.emplace_back(100, 400);
      for (int i = 0; i < 30; ++i) {
        const std::uint64_t s = rand(0, kSpace - 1);
        const std::uint64_t e = rand(s, kSpace);
        ops.emplace_back(s, e);
        const std::uint64_t a = rand(s, e);
        ops.emplace_back(a, rand(a, e));  // inside the range just inserted
      }
      break;
  }
  return ops;
}

TEST(IntervalSetDifferential, MatchesByteSetReference) {
  Rng rng(1755);
  for (const Shape shape : {Shape::kInOrder, Shape::kReordered, Shape::kOverlapping,
                            Shape::kAdjacent, Shape::kContained}) {
    for (int run = 0; run < 40; ++run) {
      IntervalSet set;
      ByteSet ref;
      std::size_t step = 0;
      for (const auto& [start, end] : program(shape, rng)) {
        set.insert(start, end);
        ref.insert(start, end);
        ++step;
        const auto where = [&] {
          return ::testing::Message() << "shape " << static_cast<int>(shape) << " run "
                                      << run << " step " << step;
        };
        ASSERT_EQ(set.total_covered(), ref.total()) << where();
        ASSERT_EQ(set.contiguous_prefix(), ref.contiguous_prefix()) << where();
        ASSERT_EQ(set.interval_count(), ref.runs()) << where();
        for (int q = 0; q < 24; ++q) {
          const auto s = static_cast<std::uint64_t>(rng.uniform_int(0, kSpace));
          const auto e = static_cast<std::uint64_t>(
              rng.uniform_int(static_cast<std::int64_t>(s),
                              static_cast<std::int64_t>(std::min(kSpace, s + 48))));
          ASSERT_EQ(set.covers(s, e), ref.covers(s, e)) << where() << " [" << s << "," << e << ")";
        }
        ASSERT_TRUE(set.covers(start, end)) << where();
      }
    }
  }
}

}  // namespace
}  // namespace streamlab
