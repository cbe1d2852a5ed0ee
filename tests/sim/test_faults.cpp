// Fault-injection layer: Gilbert–Elliott chain statistics, the per-link
// impairment hook, and FaultScheduler episode semantics/accounting.
#include "sim/faults.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "sim/network.hpp"

namespace streamlab {
namespace {

const Endpoint kA{Ipv4Address(10, 0, 0, 1), 1};
const Endpoint kB{Ipv4Address(10, 0, 0, 2), 2};

class SinkNode : public Node {
 public:
  SinkNode(std::string name, EventLoop& loop) : Node(std::move(name)), loop_(loop) {}
  void handle_packet(const Ipv4Packet&, int) override {
    arrivals.push_back(loop_.now());
  }
  std::vector<SimTime> arrivals;

 private:
  EventLoop& loop_;
};

Ipv4Packet small_packet(std::uint16_t id, std::size_t payload = 100) {
  std::vector<std::uint8_t> data(payload, 0xAB);
  return make_udp_packet(kA, kB, data, id);
}

struct FaultFixture {
  EventLoop loop;
  SinkNode a{"a", loop};
  SinkNode b{"b", loop};

  std::unique_ptr<Link> make(LinkConfig config, std::uint64_t seed = 1) {
    return std::make_unique<Link>(loop, Rng(seed), config, a, 0, b, 0);
  }
};

// --- Gilbert–Elliott chain ---

TEST(GilbertElliott, MatchesStationaryLossRate) {
  GilbertElliottConfig cfg;
  cfg.p_good_to_bad = 0.02;
  cfg.p_bad_to_good = 0.25;
  cfg.loss_good = 0.0;
  cfg.loss_bad = 0.8;
  // pi_bad = 0.02 / 0.27 ~= 0.074; mean loss ~= 5.93%.
  EXPECT_NEAR(cfg.stationary_bad(), 0.0741, 1e-3);
  EXPECT_NEAR(cfg.mean_loss(), 0.0593, 1e-3);

  GilbertElliottLoss chain(cfg);
  Rng rng(12345);
  const int kPackets = 200000;
  int drops = 0;
  for (int i = 0; i < kPackets; ++i)
    if (chain.drop(rng)) ++drops;
  const double measured = static_cast<double>(drops) / kPackets;
  EXPECT_NEAR(measured, cfg.mean_loss(), 0.006);
}

TEST(GilbertElliott, LossesArriveInBurstsUnlikeBernoulli) {
  GilbertElliottConfig cfg;
  cfg.p_good_to_bad = 0.02;
  cfg.p_bad_to_good = 0.25;
  cfg.loss_good = 0.0;
  cfg.loss_bad = 0.8;

  GilbertElliottLoss chain(cfg);
  Rng rng(99);
  const int kPackets = 200000;
  std::vector<bool> lost(kPackets);
  int drops = 0;
  for (int i = 0; i < kPackets; ++i) {
    lost[static_cast<std::size_t>(i)] = chain.drop(rng);
    if (lost[static_cast<std::size_t>(i)]) ++drops;
  }
  // Conditional loss probability P(loss | previous lost): for independent
  // Bernoulli at the same mean (~6%) this equals the mean; the chain stays
  // in the BAD state so it is an order of magnitude higher.
  int pairs = 0, both = 0;
  for (int i = 1; i < kPackets; ++i) {
    if (lost[static_cast<std::size_t>(i - 1)]) {
      ++pairs;
      if (lost[static_cast<std::size_t>(i)]) ++both;
    }
  }
  ASSERT_GT(pairs, 0);
  const double conditional = static_cast<double>(both) / pairs;
  const double mean = static_cast<double>(drops) / kPackets;
  EXPECT_GT(conditional, 5.0 * mean);
  // Theory: P(loss|loss) = p_stay_bad * loss_bad = 0.75 * 0.8 = 0.6.
  EXPECT_NEAR(conditional, 0.6, 0.05);
}

TEST(GilbertElliott, EmpiricalLossConvergesToStationaryWeightedRate) {
  // Stationarity: the chain's empirical loss rate converges to the
  // transition-weighted mixture pi_good * loss_good + pi_bad * loss_bad,
  // with pi_bad = p_g2b / (p_g2b + p_b2g). Unlike the test above, both
  // states lose here, so the weighting of *each* term is checked — a chain
  // that got the stationary split wrong could not land on this mixture.
  GilbertElliottConfig cfg;
  cfg.p_good_to_bad = 0.05;
  cfg.p_bad_to_good = 0.25;
  cfg.loss_good = 0.01;
  cfg.loss_bad = 0.6;
  const double pi_bad = cfg.p_good_to_bad / (cfg.p_good_to_bad + cfg.p_bad_to_good);
  const double expected = (1.0 - pi_bad) * cfg.loss_good + pi_bad * cfg.loss_bad;
  EXPECT_NEAR(cfg.stationary_bad(), pi_bad, 1e-12);
  EXPECT_NEAR(cfg.mean_loss(), expected, 1e-12);

  // Fixed seed; error must shrink as the sample grows (convergence), and
  // the largest sample must sit within a 3-sigma-ish band of the mixture.
  GilbertElliottLoss chain(cfg);
  Rng rng(2002);
  int drops = 0, sampled = 0;
  double error_small = 0.0, error_large = 0.0;
  const int kSmall = 2000, kLarge = 500000;
  for (; sampled < kLarge; ++sampled) {
    if (sampled == kSmall)
      error_small =
          std::abs(static_cast<double>(drops) / kSmall - expected);
    if (chain.drop(rng)) ++drops;
  }
  error_large = std::abs(static_cast<double>(drops) / kLarge - expected);
  EXPECT_LT(error_large, error_small + 1e-9);
  // Bursty samples are correlated, so the variance of the mean is inflated
  // well past the Bernoulli sigma; 0.005 absolute is ~6x that sigma.
  EXPECT_NEAR(static_cast<double>(drops) / kLarge, expected, 0.005);
}

TEST(GilbertElliott, DeterministicAcrossRuns) {
  GilbertElliottConfig cfg;
  auto run = [&] {
    GilbertElliottLoss chain(cfg);
    Rng rng(7);
    std::vector<bool> out;
    for (int i = 0; i < 1000; ++i) out.push_back(chain.drop(rng));
    return out;
  };
  EXPECT_EQ(run(), run());
}

// --- Link impairment hook ---

TEST(LinkImpairment, OutageDropsEverythingAndCountsSeparately) {
  FaultFixture f;
  auto link = f.make(LinkConfig{});
  LinkImpairment imp;
  imp.outage = true;
  link->set_impairment(imp);

  for (std::uint16_t i = 0; i < 10; ++i) link->send_from_a(small_packet(i));
  f.loop.run();

  EXPECT_TRUE(f.b.arrivals.empty());
  EXPECT_EQ(link->stats_a_to_b().packets_dropped_outage, 10u);
  EXPECT_EQ(link->stats_a_to_b().packets_dropped_loss, 0u);
  EXPECT_EQ(link->impairment_drops(), 10u);

  link->clear_impairment();
  link->send_from_a(small_packet(99));
  f.loop.run();
  EXPECT_EQ(f.b.arrivals.size(), 1u);
}

TEST(LinkImpairment, BandwidthOverrideSlowsSerialization) {
  FaultFixture f;
  LinkConfig cfg;
  cfg.bandwidth = BitRate::mbps(10);
  cfg.propagation = Duration::millis(1);
  auto link = f.make(cfg);

  link->send_from_a(small_packet(1));  // 142 wire bytes
  f.loop.run();
  ASSERT_EQ(f.b.arrivals.size(), 1u);
  const Duration unimpaired = f.b.arrivals[0] - SimTime::zero();
  EXPECT_EQ(unimpaired.ns(),
            (BitRate::mbps(10).transmission_time(142) + Duration::millis(1)).ns());

  LinkImpairment imp;
  imp.bandwidth = BitRate::kbps(100);  // 100x slower serialization
  link->set_impairment(imp);
  const SimTime sent_at = f.loop.now();
  link->send_from_a(small_packet(2));
  f.loop.run();
  ASSERT_EQ(f.b.arrivals.size(), 2u);
  const Duration impaired = f.b.arrivals[1] - sent_at;
  EXPECT_EQ(impaired.ns(),
            (BitRate::kbps(100).transmission_time(142) + Duration::millis(1)).ns());
}

TEST(LinkImpairment, ExtraDelayAddsToPropagation) {
  FaultFixture f;
  LinkConfig cfg;
  cfg.propagation = Duration::millis(2);
  auto link = f.make(cfg);

  link->send_from_a(small_packet(1));
  f.loop.run();
  ASSERT_EQ(f.b.arrivals.size(), 1u);
  const Duration base = f.b.arrivals[0] - SimTime::zero();

  LinkImpairment imp;
  imp.extra_delay = Duration::millis(150);
  link->set_impairment(imp);
  const SimTime sent_at = f.loop.now();
  link->send_from_a(small_packet(2));
  f.loop.run();
  const Duration slowed = f.b.arrivals[1] - sent_at;
  EXPECT_EQ((slowed - base).ns(), Duration::millis(150).ns());
}

TEST(LinkImpairment, LossModelOverridesIndependentLoss) {
  FaultFixture f;
  LinkConfig cfg;
  cfg.loss_probability = 0.0;
  auto link = f.make(cfg);

  // A loss model that drops every second packet.
  int counter = 0;
  LinkImpairment imp;
  imp.loss_model = [&counter](Rng&) { return (counter++ % 2) == 0; };
  link->set_impairment(imp);

  for (std::uint16_t i = 0; i < 10; ++i) link->send_from_a(small_packet(i));
  f.loop.run();
  EXPECT_EQ(f.b.arrivals.size(), 5u);
  EXPECT_EQ(link->stats_a_to_b().packets_dropped_burst, 5u);
  EXPECT_EQ(link->stats_a_to_b().packets_dropped_loss, 0u);
}

// --- FaultScheduler ---

TEST(FaultScheduler, AppliesAndClearsEpisodeOnSchedule) {
  FaultFixture f;
  auto link = f.make(LinkConfig{});
  FaultScheduler faults(f.loop, *link);
  faults.add(FaultEpisode::outage(SimTime::from_seconds(1.0), Duration::seconds(2)));
  faults.arm();

  // Before: passes. During: dropped. After: passes again.
  auto send_at = [&](double t, std::uint16_t id) {
    f.loop.schedule_at(SimTime::from_seconds(t),
                       [&, id] { link->send_from_a(small_packet(id)); });
  };
  send_at(0.5, 1);
  send_at(2.0, 2);
  send_at(2.5, 3);
  send_at(3.5, 4);
  f.loop.run();

  EXPECT_EQ(f.b.arrivals.size(), 2u);
  EXPECT_FALSE(link->impaired());
  ASSERT_EQ(faults.records().size(), 1u);
  const auto& rec = faults.records()[0];
  EXPECT_TRUE(rec.applied);
  EXPECT_TRUE(rec.cleared);
  EXPECT_EQ(rec.packets_dropped, 2u);
  EXPECT_EQ(faults.total_episode_drops(), 2u);
  EXPECT_EQ(faults.active_episode(), -1);
}

TEST(FaultScheduler, BurstLossEpisodeUsesGilbertElliott) {
  FaultFixture f;
  auto link = f.make(LinkConfig{});
  FaultScheduler faults(f.loop, *link);
  GilbertElliottConfig ge;
  ge.p_good_to_bad = 1.0;  // always BAD
  ge.p_bad_to_good = 0.0;
  ge.loss_bad = 1.0;       // drop everything while BAD
  faults.add(FaultEpisode::burst_loss(SimTime::from_seconds(1.0), Duration::seconds(1), ge));
  faults.arm();

  auto send_at = [&](double t, std::uint16_t id) {
    f.loop.schedule_at(SimTime::from_seconds(t),
                       [&, id] { link->send_from_a(small_packet(id)); });
  };
  send_at(0.5, 1);   // before: delivered
  send_at(1.5, 2);   // during: dropped by the chain
  send_at(1.6, 3);   // during: dropped by the chain
  send_at(2.5, 4);   // after: delivered
  f.loop.run();

  EXPECT_EQ(f.b.arrivals.size(), 2u);
  EXPECT_EQ(link->stats_a_to_b().packets_dropped_burst, 2u);
  EXPECT_EQ(faults.records()[0].packets_dropped, 2u);
}

TEST(FaultScheduler, LaterEpisodePreemptsEarlierOne) {
  FaultFixture f;
  auto link = f.make(LinkConfig{});
  FaultScheduler faults(f.loop, *link);
  // Episode A [1, 5): random loss 100%. Episode B [2, 3): outage. A's end
  // event at t=5 must not clear B or the baseline restored at t=3.
  faults.add(
      FaultEpisode::random_loss(SimTime::from_seconds(1.0), Duration::seconds(4), 1.0, "A"));
  faults.add(FaultEpisode::outage(SimTime::from_seconds(2.0), Duration::seconds(1), "B"));
  faults.arm();

  auto send_at = [&](double t, std::uint16_t id) {
    f.loop.schedule_at(SimTime::from_seconds(t),
                       [&, id] { link->send_from_a(small_packet(id)); });
  };
  send_at(1.5, 1);   // in A: dropped (loss)
  send_at(2.5, 2);   // in B: dropped (outage)
  send_at(3.5, 3);   // B ended and cleared the link: delivered
  send_at(6.0, 4);   // after everything: delivered
  f.loop.run();

  EXPECT_EQ(f.b.arrivals.size(), 2u);
  EXPECT_EQ(link->stats_a_to_b().packets_dropped_loss, 1u);
  EXPECT_EQ(link->stats_a_to_b().packets_dropped_outage, 1u);
  EXPECT_FALSE(link->impaired());
  EXPECT_EQ(faults.records()[0].packets_dropped, 1u);  // A's window
  EXPECT_EQ(faults.records()[1].packets_dropped, 1u);  // B's window
}

TEST(FaultScheduler, BandwidthEpisodeNotBlamedForBaselineLoss) {
  FaultFixture f;
  LinkConfig cfg;
  cfg.loss_probability = 1.0;  // every packet dies to *baseline* random loss
  auto link = f.make(cfg);
  FaultScheduler faults(f.loop, *link);
  faults.add(FaultEpisode::bandwidth_dip(SimTime::from_seconds(1.0), Duration::seconds(2),
                                         BitRate::mbps(1)));
  faults.arm();

  f.loop.schedule_at(SimTime::from_seconds(1.5),
                     [&] { link->send_from_a(small_packet(1)); });
  f.loop.run();

  // The drop happened during the episode but came from the baseline config;
  // a bandwidth episode has no loss mechanism of its own to attribute it to.
  EXPECT_EQ(link->stats_a_to_b().packets_dropped_loss, 1u);
  EXPECT_EQ(faults.records()[0].packets_dropped, 0u);
  EXPECT_EQ(faults.total_episode_drops(), 0u);
}

TEST(FaultScheduler, EpisodeCoversHelper) {
  FaultEpisode e;
  e.start = SimTime::from_seconds(10.0);
  e.duration = Duration::seconds(5);
  EXPECT_FALSE(e.covers(SimTime::from_seconds(9.999)));
  EXPECT_TRUE(e.covers(SimTime::from_seconds(10.0)));
  EXPECT_TRUE(e.covers(SimTime::from_seconds(14.999)));
  EXPECT_FALSE(e.covers(SimTime::from_seconds(15.0)));
}

// --- Router failure injection (FaultKind::kRouterDown) ---

TEST(FaultKindNames, CoversEveryKind) {
  EXPECT_STREQ(to_string(FaultKind::kOutage), "outage");
  EXPECT_STREQ(to_string(FaultKind::kRouterDown), "router-down");
}

PathConfig quiet_chain() {
  PathConfig cfg;
  cfg.hop_count = 8;
  cfg.jitter_stddev = Duration::zero();
  cfg.loss_probability = 0.0;
  return cfg;
}

TEST(FaultScheduler, RouterDownAppliesAndClearsOnSchedule) {
  Network net(quiet_chain());
  Host& server = net.add_server("srv");
  FaultScheduler faults(net.loop(), net.bottleneck_link(), net);
  faults.add(FaultEpisode::router_down(SimTime::from_seconds(1.0), Duration::seconds(1), 3));
  faults.arm();

  int received = 0;
  server.udp_bind(5000, [&](auto, auto, auto) { ++received; });
  auto send_at = [&](double t) {
    net.loop().schedule_at(SimTime::from_seconds(t), [&] {
      net.client().udp_send(6000, Endpoint{server.address(), 5000},
                            std::vector<std::uint8_t>{1});
    });
  };
  send_at(0.5);  // before: delivered
  send_at(1.5);  // during: swallowed by the offline router
  send_at(2.5);  // after: delivered again
  net.loop().run();

  EXPECT_EQ(received, 2);
  EXPECT_FALSE(net.router(3).offline());
  ASSERT_EQ(faults.records().size(), 1u);
  const auto& rec = faults.records()[0];
  EXPECT_TRUE(rec.applied);
  EXPECT_TRUE(rec.cleared);
  EXPECT_EQ(rec.packets_dropped, 1u);
  EXPECT_EQ(net.router(3).stats().packets_dropped_offline, 1u);
}

TEST(FaultScheduler, RouterDownRunsInParallelWithLinkEpisode) {
  // A router failure neither pre-empts nor is pre-empted by a concurrent
  // link impairment: both episodes apply and clear on their own schedules.
  Network net(quiet_chain());
  net.add_server("srv");
  FaultScheduler faults(net.loop(), net.bottleneck_link(), net);
  faults.add(FaultEpisode::outage(SimTime::from_seconds(1.0), Duration::seconds(2)));
  faults.add(FaultEpisode::router_down(SimTime::from_seconds(1.5), Duration::seconds(1), 3));
  faults.arm();

  bool both_active = false;
  net.loop().schedule_at(SimTime::from_seconds(2.0), [&] {
    both_active = net.bottleneck_link().impaired() && net.router(3).offline();
  });
  net.loop().run();

  EXPECT_TRUE(both_active);
  EXPECT_FALSE(net.bottleneck_link().impaired());
  EXPECT_FALSE(net.router(3).offline());
  for (const auto& rec : faults.records()) {
    EXPECT_TRUE(rec.applied);
    EXPECT_TRUE(rec.cleared);
  }
}

TEST(FaultScheduler, OverlappingRouterDownsNest) {
  // Two episodes on one router: it returns online only when the last ends.
  Network net(quiet_chain());
  net.add_server("srv");
  FaultScheduler faults(net.loop(), net.bottleneck_link(), net);
  faults.add(FaultEpisode::router_down(SimTime::from_seconds(1.0), Duration::seconds(2), 3));
  faults.add(FaultEpisode::router_down(SimTime::from_seconds(2.0), Duration::seconds(2), 3));
  faults.arm();

  bool offline_between_ends = false, online_after_both = true;
  net.loop().schedule_at(SimTime::from_seconds(3.5),
                         [&] { offline_between_ends = net.router(3).offline(); });
  net.loop().schedule_at(SimTime::from_seconds(4.5),
                         [&] { online_after_both = net.router(3).offline(); });
  net.loop().run();

  EXPECT_TRUE(offline_between_ends);
  EXPECT_FALSE(online_after_both);
}

TEST(FaultScheduler, FinishSettlesDanglingRouterDown) {
  // A budget truncation can stop the loop mid-episode; finish() must close
  // the accounting and put the router back online.
  Network net(quiet_chain());
  net.add_server("srv");
  FaultScheduler faults(net.loop(), net.bottleneck_link(), net);
  faults.add(FaultEpisode::router_down(SimTime::from_seconds(1.0), Duration::seconds(100), 3));
  faults.arm();
  net.loop().run_until(SimTime::from_seconds(2.0));

  EXPECT_TRUE(net.router(3).offline());
  faults.finish();
  EXPECT_FALSE(net.router(3).offline());
  ASSERT_EQ(faults.records().size(), 1u);
  EXPECT_TRUE(faults.records()[0].applied);
  EXPECT_TRUE(faults.records()[0].cleared);
}

PathConfig quiet_detour_chain() {
  PathConfig cfg = quiet_chain();
  cfg.detour = DetourConfig{3, 4, 2, 10};
  return cfg;
}

TEST(FaultScheduler, DetourDownTargetsBranchRouterOnly) {
  // A detour_down episode takes a *detour-branch* router offline; the chain
  // router with the same index is untouched, so primary-addressed traffic
  // keeps flowing while the bypass is dark.
  Network net(quiet_detour_chain());
  Host& server = net.add_server("srv");
  FaultScheduler faults(net.loop(), net.bottleneck_link(), net);
  faults.add(FaultEpisode::detour_down(SimTime::from_seconds(1.0), Duration::seconds(1), 0));
  faults.arm();

  int received = 0;
  server.udp_bind(5000, [&](auto, auto, auto) { ++received; });
  bool chain_online_mid_episode = false;
  net.loop().schedule_at(SimTime::from_seconds(1.5), [&] {
    chain_online_mid_episode =
        !net.router(0).offline() && net.detour_router(0).offline();
    net.client().udp_send(6000, Endpoint{server.address(), 5000},
                          std::vector<std::uint8_t>{1});
  });
  net.loop().run();

  EXPECT_TRUE(chain_online_mid_episode);
  EXPECT_EQ(received, 1);  // chain path unaffected
  EXPECT_FALSE(net.detour_router(0).offline());
  ASSERT_EQ(faults.records().size(), 1u);
  EXPECT_TRUE(faults.records()[0].applied);
  EXPECT_TRUE(faults.records()[0].cleared);
}

TEST(FaultScheduler, AlternatingChainAndDetourFlapsStayIndependent) {
  // A true flap schedule: overlapping/alternating kRouterDown episodes on a
  // chain router and both detour-branch routers in one scenario. The depth
  // maps must never alias — chain index 0 and detour index 0 are different
  // routers — and each router returns online exactly when its own last
  // episode ends.
  Network net(quiet_detour_chain());
  net.add_server("srv");
  FaultScheduler faults(net.loop(), net.bottleneck_link(), net);
  // Chain router 0 down [1, 4); detour router 0 down [2, 3) and again
  // overlapping [2.5, 5); detour router 1 down [3.5, 4.5).
  faults.add(FaultEpisode::router_down(SimTime::from_seconds(1.0), Duration::seconds(3), 0));
  faults.add(FaultEpisode::detour_down(SimTime::from_seconds(2.0), Duration::seconds(1), 0));
  faults.add(
      FaultEpisode::detour_down(SimTime::from_seconds(2.5), Duration::from_seconds(2.5), 0));
  faults.add(
      FaultEpisode::detour_down(SimTime::from_seconds(3.5), Duration::from_seconds(1.0), 1));
  faults.arm();

  struct Snapshot {
    bool chain0, detour0, detour1;
  };
  std::vector<Snapshot> snaps;
  for (const double t : {2.2, 3.2, 4.2, 4.7, 5.2}) {
    net.loop().schedule_at(SimTime::from_seconds(t), [&] {
      snaps.push_back({net.router(0).offline(), net.detour_router(0).offline(),
                       net.detour_router(1).offline()});
    });
  }
  net.loop().run();

  ASSERT_EQ(snaps.size(), 5u);
  // t=2.2: chain 0 and detour 0 both down, independently.
  EXPECT_TRUE(snaps[0].chain0);
  EXPECT_TRUE(snaps[0].detour0);
  EXPECT_FALSE(snaps[0].detour1);
  // t=3.2: detour 0's first episode ended but the overlapping one holds it.
  EXPECT_TRUE(snaps[1].chain0);
  EXPECT_TRUE(snaps[1].detour0);
  // t=4.2: chain 0 recovered at 4.0; detour 0 still down, detour 1 down.
  EXPECT_FALSE(snaps[2].chain0);
  EXPECT_TRUE(snaps[2].detour0);
  EXPECT_TRUE(snaps[2].detour1);
  // t=4.7: detour 1 recovered at 4.5, detour 0 still held until 5.0.
  EXPECT_TRUE(snaps[3].detour0);
  EXPECT_FALSE(snaps[3].detour1);
  // t=5.2: everything back online.
  EXPECT_FALSE(snaps[4].chain0);
  EXPECT_FALSE(snaps[4].detour0);
  EXPECT_FALSE(snaps[4].detour1);
  for (const auto& rec : faults.records()) {
    EXPECT_TRUE(rec.applied);
    EXPECT_TRUE(rec.cleared);
  }
}

TEST(FaultScheduler, FinishSettlesDanglingDetourEpisodes) {
  // Budget truncation mid-flap: finish() must settle detour episodes through
  // the same open-router path as chain episodes, restoring both branches.
  Network net(quiet_detour_chain());
  net.add_server("srv");
  FaultScheduler faults(net.loop(), net.bottleneck_link(), net);
  faults.add(FaultEpisode::router_down(SimTime::from_seconds(1.0), Duration::seconds(100), 3));
  faults.add(FaultEpisode::detour_down(SimTime::from_seconds(1.0), Duration::seconds(100), 1));
  faults.arm();
  net.loop().run_until(SimTime::from_seconds(2.0));

  EXPECT_TRUE(net.router(3).offline());
  EXPECT_TRUE(net.detour_router(1).offline());
  faults.finish();
  EXPECT_FALSE(net.router(3).offline());
  EXPECT_FALSE(net.detour_router(1).offline());
  for (const auto& rec : faults.records()) {
    EXPECT_TRUE(rec.applied);
    EXPECT_TRUE(rec.cleared);
  }
}

TEST(FaultScheduler, DetourDownOutOfRangeIsSettledNoop) {
  // detour_hop_count bounds detour episodes; an index past the branch is
  // unschedulable and settles immediately instead of dangling.
  Network net(quiet_detour_chain());
  net.add_server("srv");
  FaultScheduler faults(net.loop(), net.bottleneck_link(), net);
  faults.add(FaultEpisode::detour_down(SimTime::from_seconds(1.0), Duration::seconds(1), 7));
  faults.arm();
  net.loop().run();
  ASSERT_EQ(faults.records().size(), 1u);
  EXPECT_TRUE(faults.records()[0].applied);
  EXPECT_TRUE(faults.records()[0].cleared);
  EXPECT_EQ(faults.records()[0].packets_dropped, 0u);
}

TEST(FaultScheduler, RouterDownWithoutNetworkIsSettledNoop) {
  // The 2-arg constructor has no network handle: a router-down episode is
  // unschedulable and must settle immediately rather than dangle.
  FaultFixture f;
  auto link = f.make(LinkConfig{});
  FaultScheduler faults(f.loop, *link);
  faults.add(FaultEpisode::router_down(SimTime::from_seconds(1.0), Duration::seconds(1), 3));
  faults.arm();
  f.loop.run();
  ASSERT_EQ(faults.records().size(), 1u);
  EXPECT_TRUE(faults.records()[0].applied);
  EXPECT_TRUE(faults.records()[0].cleared);
  EXPECT_EQ(faults.records()[0].packets_dropped, 0u);
}

}  // namespace
}  // namespace streamlab
