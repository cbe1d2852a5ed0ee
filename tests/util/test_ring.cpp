#include "util/ring.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <memory>

#include "util/rng.hpp"

namespace streamlab {
namespace {

TEST(Ring, MatchesDequeAcrossWrapAndGrowth) {
  Ring<int> ring;
  std::deque<int> ref;
  Rng rng(9);
  int next = 0;
  for (int step = 0; step < 5000; ++step) {
    // Drift the depth up and down so the ring wraps at several capacities.
    const double push_bias = (step / 1000) % 2 == 0 ? 0.6 : 0.4;
    if (ref.empty() || rng.chance(push_bias)) {
      ring.push_back(next);
      ref.push_back(next++);
    } else {
      ASSERT_EQ(ring.front(), ref.front());
      ASSERT_EQ(ring.pop_front(), ref.front());
      ref.pop_front();
    }
    ASSERT_EQ(ring.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); i += 7) ASSERT_EQ(ring[i], ref[i]);
  }
}

TEST(Ring, CapacityStaysPowerOfTwoAndNeverShrinks) {
  Ring<int> ring;
  EXPECT_EQ(ring.capacity(), 0u);
  for (int i = 0; i < 9; ++i) ring.push_back(i);
  EXPECT_EQ(ring.capacity(), 16u);
  while (!ring.empty()) ring.pop_front();
  for (int i = 0; i < 16; ++i) ring.push_back(i);
  EXPECT_EQ(ring.capacity(), 16u);
}

TEST(Ring, PopMovesTheValueOut) {
  Ring<std::shared_ptr<int>> ring;
  auto value = std::make_shared<int>(7);
  ring.push_back(value);
  EXPECT_EQ(value.use_count(), 2);
  {
    const auto popped = ring.pop_front();
    EXPECT_EQ(*popped, 7);
  }
  // The slot let go of its reference when the element left the ring.
  EXPECT_EQ(value.use_count(), 1);
}

}  // namespace
}  // namespace streamlab
