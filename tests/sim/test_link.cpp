#include "sim/link.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/audit.hpp"

namespace streamlab {
namespace {

const Endpoint kA{Ipv4Address(10, 0, 0, 1), 1};
const Endpoint kB{Ipv4Address(10, 0, 0, 2), 2};

/// Records every delivery with its timestamp.
class SinkNode : public Node {
 public:
  SinkNode(std::string name, EventLoop& loop) : Node(std::move(name)), loop_(loop) {}

  void handle_packet(const Ipv4Packet& packet, int iface) override {
    deliveries.push_back({loop_.now(), packet, iface});
  }

  struct Delivery {
    SimTime when;
    Ipv4Packet packet;
    int iface;
  };
  std::vector<Delivery> deliveries;

 private:
  EventLoop& loop_;
};

Ipv4Packet small_packet(std::uint16_t id, std::size_t payload = 100) {
  std::vector<std::uint8_t> data(payload, 0xAB);
  return make_udp_packet(kA, kB, data, id);
}

struct LinkFixture {
  EventLoop loop;
  SinkNode a{"a", loop};
  SinkNode b{"b", loop};

  std::unique_ptr<Link> make(LinkConfig config, std::uint64_t seed = 1) {
    return std::make_unique<Link>(loop, Rng(seed), config, a, 0, b, 0);
  }
};

TEST(Link, DeliversWithSerializationPlusPropagation) {
  LinkFixture f;
  LinkConfig cfg;
  cfg.bandwidth = BitRate::mbps(10);
  cfg.propagation = Duration::millis(5);
  auto link = f.make(cfg);

  const Ipv4Packet pkt = small_packet(1);  // 100 + 8 + 20 + 14 = 142 wire bytes
  link->send_from_a(pkt);
  f.loop.run();

  ASSERT_EQ(f.b.deliveries.size(), 1u);
  const Duration expected_tx = BitRate::mbps(10).transmission_time(142);
  EXPECT_EQ(f.b.deliveries[0].when, SimTime::zero() + expected_tx + Duration::millis(5));
  EXPECT_EQ(f.b.deliveries[0].packet.header.identification, 1);
  EXPECT_TRUE(f.a.deliveries.empty());
}

TEST(Link, FullDuplexBothDirections) {
  LinkFixture f;
  auto link = f.make(LinkConfig{});
  link->send_from_a(small_packet(1));
  link->send_from_b(small_packet(2));
  f.loop.run();
  ASSERT_EQ(f.b.deliveries.size(), 1u);
  ASSERT_EQ(f.a.deliveries.size(), 1u);
  EXPECT_EQ(f.b.deliveries[0].packet.header.identification, 1);
  EXPECT_EQ(f.a.deliveries[0].packet.header.identification, 2);
}

TEST(Link, SerializationQueuesBackToBackPackets) {
  LinkFixture f;
  LinkConfig cfg;
  cfg.bandwidth = BitRate::bps(142 * 8);  // exactly 1 packet (142B) per second
  cfg.propagation = Duration::zero();
  auto link = f.make(cfg);

  for (std::uint16_t i = 0; i < 3; ++i) link->send_from_a(small_packet(i));
  f.loop.run();

  ASSERT_EQ(f.b.deliveries.size(), 3u);
  // Deliveries spaced by exactly one serialization time.
  EXPECT_EQ(f.b.deliveries[0].when, SimTime::from_seconds(1.0));
  EXPECT_EQ(f.b.deliveries[1].when, SimTime::from_seconds(2.0));
  EXPECT_EQ(f.b.deliveries[2].when, SimTime::from_seconds(3.0));
  // FIFO order preserved.
  for (std::uint16_t i = 0; i < 3; ++i)
    EXPECT_EQ(f.b.deliveries[i].packet.header.identification, i);
}

TEST(Link, DropTailWhenQueueFull) {
  LinkFixture f;
  LinkConfig cfg;
  cfg.bandwidth = BitRate::kbps(8);  // very slow: queue builds up
  cfg.queue_limit_bytes = 300;       // fits two 142-byte packets
  auto link = f.make(cfg);

  for (std::uint16_t i = 0; i < 5; ++i) link->send_from_a(small_packet(i));
  EXPECT_EQ(link->stats_a_to_b().packets_dropped_queue, 3u);
  f.loop.run();
  EXPECT_EQ(f.b.deliveries.size(), 2u);
  EXPECT_EQ(link->stats_a_to_b().packets_delivered, 2u);
}

TEST(Link, RandomLossDropsApproximatelyAtRate) {
  LinkFixture f;
  LinkConfig cfg;
  cfg.bandwidth = BitRate::mbps(1000);
  cfg.loss_probability = 0.2;
  cfg.queue_limit_bytes = 1 << 30;
  auto link = f.make(cfg, /*seed=*/99);

  const int n = 5000;
  for (int i = 0; i < n; ++i) link->send_from_a(small_packet(static_cast<std::uint16_t>(i)));
  f.loop.run();

  const auto& stats = link->stats_a_to_b();
  EXPECT_EQ(stats.packets_sent, static_cast<std::uint64_t>(n));
  EXPECT_NEAR(static_cast<double>(stats.packets_dropped_loss) / n, 0.2, 0.03);
  EXPECT_EQ(stats.packets_delivered + stats.packets_dropped_loss,
            static_cast<std::uint64_t>(n));
}

TEST(Link, JitterPerturbsButNeverReorders) {
  LinkFixture f;
  LinkConfig cfg;
  cfg.bandwidth = BitRate::mbps(10);
  cfg.propagation = Duration::millis(10);
  cfg.jitter_stddev = Duration::millis(2);
  auto link = f.make(cfg, 7);

  for (std::uint16_t i = 0; i < 200; ++i) link->send_from_a(small_packet(i));
  f.loop.run();

  ASSERT_EQ(f.b.deliveries.size(), 200u);
  // Timestamps are non-decreasing (jitter is non-negative additive noise on
  // a FIFO pipe in this model) and ids in order.
  bool any_late = false;
  for (std::size_t i = 1; i < f.b.deliveries.size(); ++i) {
    EXPECT_EQ(f.b.deliveries[i].packet.header.identification, i);
  }
  // Jitter actually perturbs at least one gap away from the deterministic
  // spacing.
  const Duration tx = cfg.bandwidth.transmission_time(142);
  for (std::size_t i = 1; i < f.b.deliveries.size(); ++i) {
    const Duration gap = f.b.deliveries[i].when - f.b.deliveries[i - 1].when;
    if (gap != tx) any_late = true;
  }
  EXPECT_TRUE(any_late);
}

TEST(Link, StatsCountBytes) {
  LinkFixture f;
  auto link = f.make(LinkConfig{});
  link->send_from_a(small_packet(1, 100));
  f.loop.run();
  EXPECT_EQ(link->stats_a_to_b().bytes_delivered, 142u);
  EXPECT_EQ(link->stats_b_to_a().bytes_delivered, 0u);
}

TEST(Link, InFlightFifoKeepsSendOrderWhenDelayShrinksMidFlight) {
  // Packets wait out propagation in a per-direction FIFO and each delivery
  // event pops the front, so the send order must survive jitter and an
  // extra_delay that drops while earlier packets are still in flight —
  // the case where later packets would overtake without the clamp.
  LinkFixture f;
  audit::Auditor auditor;
  f.loop.set_auditor(&auditor);
  LinkConfig cfg;
  cfg.bandwidth = BitRate::mbps(10);  // 300 packets take ~34 ms to serialize
  cfg.propagation = Duration::millis(5);
  cfg.jitter_stddev = Duration::millis(2);
  auto link = f.make(cfg, 11);

  for (std::uint16_t i = 0; i < 300; ++i) link->send_from_a(small_packet(i));
  LinkImpairment slow;
  slow.extra_delay = Duration::millis(30);
  f.loop.post_at(SimTime::from_seconds(0.001), [&] { link->set_impairment(slow); });
  f.loop.post_at(SimTime::from_seconds(0.002), [&] { link->clear_impairment(); });

  // Mid-run: packets are queued, in flight and delivered at once, and the
  // ledger balances.
  f.loop.run_until(SimTime::from_seconds(0.008));
  const auto& mid = link->stats_a_to_b();
  EXPECT_GT(mid.packets_delivered, 0u);
  EXPECT_LT(mid.packets_delivered, 100u);
  link->audit_conservation(auditor, f.loop.now());
  EXPECT_TRUE(auditor.report().clean()) << auditor.report().summary();

  f.loop.run();
  ASSERT_EQ(f.b.deliveries.size(), 300u);
  for (std::size_t i = 0; i < f.b.deliveries.size(); ++i)
    EXPECT_EQ(f.b.deliveries[i].packet.header.identification, i);
  // The shrinking delay really did bunch deliveries up against the clamp.
  bool clamped = false;
  for (std::size_t i = 1; i < f.b.deliveries.size(); ++i)
    clamped |= f.b.deliveries[i].when == f.b.deliveries[i - 1].when;
  EXPECT_TRUE(clamped);
  link->audit_conservation(auditor, f.loop.now());
  EXPECT_TRUE(auditor.report().clean()) << auditor.report().summary();
  EXPECT_EQ(link->stats_a_to_b().packets_delivered, 300u);
}

}  // namespace
}  // namespace streamlab
