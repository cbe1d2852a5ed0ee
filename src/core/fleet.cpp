#include "core/fleet.hpp"

#include <algorithm>
#include <vector>

#include "obs/obs.hpp"

namespace streamlab {
namespace {

// SplitMix64 finalizer — the per-packet hash behind jitter, loss draws and
// session start staggering. Pure function of its inputs, so the fleet's
// randomness replays exactly.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
}

// The whole fleet, SoA: parallel arrays indexed by session id. A session is
// ~26 bytes of table row — versus the several-hundred-byte object graph a
// full client/server pair costs — so 10⁶ sessions fit in ~26 MB.
struct FleetTable {
  std::vector<std::uint32_t> sent;
  std::vector<std::uint32_t> delivered;
  std::vector<std::uint32_t> lost;
  std::vector<std::int64_t> last_delivery_ns;
  std::vector<std::uint16_t> rebuffers;

  explicit FleetTable(std::size_t n)
      : sent(n, 0), delivered(n, 0), lost(n, 0), last_delivery_ns(n, -1),
        rebuffers(n, 0) {}

  std::size_t bytes() const {
    return sent.capacity() * sizeof(std::uint32_t) +
           delivered.capacity() * sizeof(std::uint32_t) +
           lost.capacity() * sizeof(std::uint32_t) +
           last_delivery_ns.capacity() * sizeof(std::int64_t) +
           rebuffers.capacity() * sizeof(std::uint16_t);
  }
};

class FleetRun {
 public:
  explicit FleetRun(const FleetConfig& config)
      : config_(config), table_(config.sessions) {
    if (config_.auditor != nullptr) loop_.set_auditor(config_.auditor);
    payload_ = config_.wm.media_per_datagram(config_.media_rate);
    interval_ = config_.wm.send_interval(config_.media_rate, payload_);
    packets_per_session_ = static_cast<std::uint32_t>(
        std::max<std::int64_t>(1, config_.episode.ns() / std::max<std::int64_t>(
                                                             1, interval_.ns())));
    turbulence_end_ = SimTime(config_.turbulence_start.ns()) +
                      config_.turbulence_duration;
  }

  FleetResult run() {
    // Stagger starts across one pacing interval so the fleet does not beat
    // in lockstep (and so wheel buckets see realistic occupancy).
    for (std::uint32_t i = 0; i < table_.sent.size(); ++i) {
      const Duration start(static_cast<std::int64_t>(
          mix(config_.seed ^ (0xA5A5ULL << 32) ^ i) %
          static_cast<std::uint64_t>(std::max<std::int64_t>(1, interval_.ns()))));
      loop_.post_at(SimTime::zero() + start, [this, i] { send(i, 0); },
                    obs::EventCategory::kTimer);
    }
    loop_.run();

    FleetResult r;
    r.sessions = table_.sent.size();
    for (std::size_t i = 0; i < table_.sent.size(); ++i) {
      r.packets_sent += table_.sent[i];
      r.packets_delivered += table_.delivered[i];
      r.packets_lost += table_.lost[i];
      r.rebuffer_events += table_.rebuffers[i];
      if (table_.rebuffers[i] > 0) ++r.sessions_rebuffered;
    }
    r.events_executed = loop_.executed_events();
    r.digest = digest_;
    r.delivery_ratio = r.packets_sent == 0
                           ? 0.0
                           : static_cast<double>(r.packets_delivered) /
                                 static_cast<double>(r.packets_sent);
    r.sim_seconds = loop_.now().to_seconds();
    r.table_bytes = table_.bytes();
    r.bytes_per_session = r.sessions == 0 ? 0.0
                                          : static_cast<double>(r.table_bytes) /
                                                static_cast<double>(r.sessions);
    if (config_.auditor != nullptr) {
      // Fleet-wide packet conservation: every sent packet is accounted as
      // delivered or lost once the loop drains (nothing stays in flight).
      config_.auditor->check_conservation("fleet", r.packets_sent,
                                          r.packets_delivered, r.packets_lost,
                                          0, 0, loop_.now());
    }
    return r;
  }

 private:
  void send(std::uint32_t i, std::uint32_t seq) {
    ++table_.sent[i];
    const SimTime now = loop_.now();
    if (lose_packet(now)) {
      ++table_.lost[i];
    } else {
      const std::uint64_t h =
          mix(config_.seed ^ (static_cast<std::uint64_t>(i) << 32) ^ seq);
      const Duration jitter(static_cast<std::int64_t>(
          config_.jitter.ns() > 0
              ? static_cast<std::int64_t>(h % static_cast<std::uint64_t>(
                                                  config_.jitter.ns()))
              : 0));
      loop_.post_at(now + config_.one_way_delay + jitter,
                    [this, i, seq] { deliver(i, seq); },
                    obs::EventCategory::kLink);
    }
    if (seq + 1 < packets_per_session_) {
      loop_.post_in(interval_, [this, i, seq] { send(i, seq + 1); },
                    obs::EventCategory::kTimer);
    }
  }

  void deliver(std::uint32_t i, std::uint32_t seq) {
    const SimTime now = loop_.now();
    const std::int64_t last = table_.last_delivery_ns[i];
    if (last >= 0 && now.ns() - last > config_.rebuffer_gap.ns() &&
        table_.rebuffers[i] < UINT16_MAX) {
      ++table_.rebuffers[i];
    }
    table_.last_delivery_ns[i] = now.ns();
    ++table_.delivered[i];
    // Order-sensitive digest: any reordering or divergence across runs
    // changes it.
    std::uint64_t entry =
        mix(static_cast<std::uint64_t>(now.ns()) ^
            (static_cast<std::uint64_t>(i) << 20) ^ seq);
    digest_ = mix(digest_ ^ entry);
    if (config_.probe != nullptr) {
      config_.probe->fold(now, static_cast<std::uint8_t>(obs::EventCategory::kLink),
                          static_cast<std::uint16_t>(i), seq);
    }
  }

  // Shared Gilbert–Elliott chain, stepped once per send in event-fire order.
  bool lose_packet(SimTime now) {
    const std::uint64_t h = mix(config_.seed ^ 0xC3C3C3C3ULL ^ chain_steps_++);
    const bool in_window = now.ns() >= config_.turbulence_start.ns() &&
                           now < turbulence_end_;
    if (!in_window) {
      bad_ = false;
      return unit(h) < config_.good_loss;
    }
    const double u = unit(h);
    // One draw drives both the state transition and the loss decision; the
    // two uses are decorrelated by re-mixing.
    if (bad_) {
      if (u < config_.p_bad_to_good) bad_ = false;
    } else {
      if (u < config_.p_good_to_bad) bad_ = true;
    }
    const double loss = bad_ ? config_.bad_loss : config_.good_loss;
    return unit(mix(h)) < loss;
  }

  const FleetConfig& config_;
  EventLoop loop_;
  FleetTable table_;
  std::size_t payload_ = 0;
  Duration interval_;
  std::uint32_t packets_per_session_ = 0;
  SimTime turbulence_end_;
  std::uint64_t chain_steps_ = 0;
  bool bad_ = false;
  std::uint64_t digest_ = 0x243F6A8885A308D3ULL;
};

}  // namespace

FleetResult run_fleet(const FleetConfig& config) {
  FleetRun run(config);
  return run.run();
}

}  // namespace streamlab
