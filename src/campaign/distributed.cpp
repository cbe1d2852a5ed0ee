#include "campaign/distributed.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <utility>

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include "campaign/process.hpp"
#include "campaign/protocol.hpp"
#include "core/flightrec.hpp"

namespace streamlab::campaign {
namespace {

using Clock = std::chrono::steady_clock;

/// The coordinator writes into pipes whose far end may be a freshly-dead
/// worker; EPIPE must come back as a write error, not a SIGPIPE kill.
class ScopedSigpipeIgnore {
 public:
  ScopedSigpipeIgnore() {
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ignore, &saved_);
  }
  ~ScopedSigpipeIgnore() { ::sigaction(SIGPIPE, &saved_, nullptr); }

 private:
  struct sigaction saved_ {};
};

using campaign_detail::PendingTrial;

struct Slot {
  enum class State { kDead, kSpawning, kIdle, kBusy };
  State state = State::kDead;
  ChildProcess proc;
  FrameReader reader;
  std::optional<PendingTrial> work;  ///< in-flight assignment (kBusy only)
  Clock::time_point last_heartbeat{};
  Clock::time_point trial_start{};
  bool ever_spawned = false;
  std::size_t restarts = 0;  ///< respawns consumed (first spawn is free)
  Clock::time_point respawn_at{};
  bool banned = false;  ///< digest mismatch: respawning cannot help
};

}  // namespace

CampaignResult run_distributed_campaign(const CampaignConfig& config,
                                        const DistributedOptions& options) {
  if (options.worker_argv.empty())
    throw std::runtime_error("distributed campaign: worker_argv is empty");
  campaign_detail::Executor executor(config, options.workers);
  const std::string& config_hex = executor.config_hex();
  std::vector<PendingTrial> pending = executor.pending();

  std::size_t workers_lost = 0;
  std::size_t worker_restarts = 0;
  std::size_t reassigned_trials = 0;
  bool degraded = false;
  std::size_t results_received = 0;
  bool kill_fired = false;

  ScopedSigpipeIgnore sigpipe_guard;
  std::vector<Slot> slots(executor.workers());

  const auto synthesize_poison = [&](const PendingTrial& work, const std::string& cause) {
    TrialOutcome poison;
    poison.index = work.index;
    poison.seed = config.base_seed + work.index;
    poison.status = TrialStatus::kQuarantined;
    poison.reason = cause;
    work.stamp_evidence(poison);
    PostmortemContext context;
    context.trial_index = work.index;
    context.seed = poison.seed;
    context.reason = cause;
    context.config_hex = config_hex;
    context.attempts = work.attempts;
    context.worker_exit_status = work.last_exit_status;
    context.stderr_tail = work.last_stderr;
    audit::AuditReport no_report;
    poison.postmortem = render_postmortem(context, no_report, nullptr, nullptr, 0);
    executor.deliver(work.index, std::move(poison));
  };

  // Declare a worker dead: collect evidence, decide the in-flight trial's
  // fate (reassign with backoff, or poison once attempts are exhausted),
  // and schedule the slot's respawn backoff.
  const auto fail_worker = [&](Slot& slot, const std::string& why, bool ban = false) {
    const Clock::time_point now = Clock::now();
    slot.proc.drain_stderr();
    slot.proc.kill(SIGKILL);
    slot.proc.reap(/*grace_ms=*/200);
    // Last words written between the first drain and the kill are still
    // buffered in the pipe after the child is gone.
    slot.proc.drain_stderr();
    ++workers_lost;
    if (slot.work) {
      PendingTrial work = std::move(*slot.work);
      slot.work.reset();
      ++work.attempts;
      work.last_exit_status = slot.proc.exit_status();
      work.last_stderr = slot.proc.stderr_tail();
      if (work.attempts >= options.max_trial_attempts) {
        synthesize_poison(work, "worker: " + why + " (poison after " +
                                    std::to_string(work.attempts) + " attempts)");
      } else {
        work.failed_at = now;
        work.eligible_at =
            now + options.reassign_backoff * (1u << (work.attempts - 1));
        pending.push_back(std::move(work));
        ++reassigned_trials;
      }
    }
    slot.state = Slot::State::kDead;
    if (ban) slot.banned = true;
    slot.respawn_at =
        Clock::now() + options.restart_backoff * (1u << std::min<std::size_t>(slot.restarts, 10));
  };

  const auto respawnable = [&](const Slot& slot) {
    return slot.state == Slot::State::kDead && !slot.banned &&
           (!slot.ever_spawned || slot.restarts < options.max_worker_restarts);
  };

  const auto handle_frame = [&](Slot& slot, const Frame& frame) -> bool {
    const Clock::time_point now = Clock::now();
    switch (frame.type) {
      case FrameType::kHello:
        if (frame.payload != config_hex) {
          fail_worker(slot, "config digest mismatch (worker " + frame.payload +
                                " vs coordinator " + config_hex + ")",
                      /*ban=*/true);
          return false;
        }
        if (slot.state == Slot::State::kSpawning) slot.state = Slot::State::kIdle;
        slot.last_heartbeat = now;
        return true;
      case FrameType::kHeartbeat:
        slot.last_heartbeat = now;
        return true;
      case FrameType::kResult: {
        ResultMsg msg;
        if (!decode_result(frame.payload, msg) || !slot.work ||
            msg.index != slot.work->index) {
          fail_worker(slot, "protocol violation (bad result frame)");
          return false;
        }
        TrialOutcome outcome;
        try {
          outcome = campaign_detail::parse_manifest_line(msg.manifest_line,
                                                         config_hex, 0);
        } catch (const std::exception& e) {
          fail_worker(slot, std::string("unparseable result line: ") + e.what());
          return false;
        }
        outcome.from_manifest = false;
        outcome.postmortem = std::move(msg.postmortem);
        outcome.wall_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(now - slot.trial_start)
                .count());
        // A reassigned trial that finally completed: its manifest bytes are
        // the worker's — identical to the serial line — so the earlier
        // failed attempts leave no trace in the completed record. An in-sim
        // quarantine keeps the worker's line only when the trial never
        // bounced off a dead worker; otherwise it is re-serialized so the
        // record carries the evidence.
        const PendingTrial work = std::move(*slot.work);
        slot.work.reset();
        if (outcome.status == TrialStatus::kQuarantined && work.attempts > 0) {
          work.stamp_evidence(outcome);
          executor.deliver(work.index, std::move(outcome));
        } else {
          executor.deliver(work.index, std::move(outcome), std::move(msg.manifest_line));
        }
        slot.state = Slot::State::kIdle;
        slot.last_heartbeat = now;
        ++results_received;
        return true;
      }
      case FrameType::kAssign:
      case FrameType::kShutdown:
        fail_worker(slot, "protocol violation (coordinator-bound frame from worker)");
        return false;
    }
    return true;
  };

  while (!executor.done() && !executor.cancelled()) {
    const Clock::time_point now = Clock::now();

    // Respawn dead slots while reassignable work exists.
    if (!pending.empty()) {
      for (std::size_t s = 0; s < slots.size(); ++s) {
        Slot& slot = slots[s];
        if (!respawnable(slot) || now < slot.respawn_at) continue;
        std::vector<std::string> env;
        if (s < options.worker_env.size()) env = options.worker_env[s];
        if (slot.ever_spawned) {
          ++slot.restarts;
          ++worker_restarts;
        }
        slot.ever_spawned = true;
        slot.reader = FrameReader{};
        slot.work.reset();
        if (!slot.proc.spawn(options.worker_argv, env)) {
          std::fprintf(stderr, "streamlab: worker %zu spawn failed: %s\n", s,
                       slot.proc.spawn_error().c_str());
          slot.respawn_at = now + options.restart_backoff *
                                      (1u << std::min<std::size_t>(slot.restarts, 10));
          continue;
        }
        slot.state = Slot::State::kSpawning;
        slot.last_heartbeat = now;
      }
    }

    // Fault injection: one planted SIGKILL, exercised by tests and the CI
    // reassignment-determinism smoke. Once armed it waits until worker 0
    // holds a trial — the other workers take no new work while worker 0 is
    // still starting up, so they cannot finish the campaign first — and
    // then declares the worker dead on the spot. The kill therefore always
    // costs that trial: a result the worker managed to write first is
    // discarded with its pipe rather than read, and the trial is reassigned.
    const bool kill_armed = options.kill_worker_after > 0 && !kill_fired &&
                            results_received >= options.kill_worker_after;

    // Hand eligible pending trials (lowest index first) to idle workers.
    for (Slot& slot : slots) {
      if (slot.state != Slot::State::kIdle || pending.empty()) continue;
      if (kill_armed && &slot != &slots[0] && slots[0].state == Slot::State::kSpawning)
        continue;
      auto best = pending.end();
      for (auto it = pending.begin(); it != pending.end(); ++it) {
        if (it->eligible_at > now) continue;
        if (best == pending.end() || it->index < best->index) best = it;
      }
      if (best == pending.end()) break;  // nothing eligible yet for anyone
      PendingTrial work = std::move(*best);
      pending.erase(best);
      executor.restart(work);
      if (!slot.proc.write_all(
              encode_frame(FrameType::kAssign, encode_assign(work.index)))) {
        slot.work = std::move(work);  // fail_worker reassigns or poisons it
        fail_worker(slot, "assign write failed (worker pipe closed)");
        continue;
      }
      slot.work = std::move(work);
      slot.trial_start = now;
      slot.state = Slot::State::kBusy;
    }

    if (kill_armed && slots[0].state == Slot::State::kBusy) {
      kill_fired = true;
      fail_worker(slots[0], "planted kill");
    }

    // Graceful degradation: the whole fleet is dead and no slot may
    // respawn — finish the remaining trials in-process rather than abort.
    const bool fleet_dead = std::all_of(slots.begin(), slots.end(), [&](const Slot& s) {
      return s.state == Slot::State::kDead && !respawnable(s);
    });
    if (fleet_dead && !pending.empty()) {
      degraded = true;
      // Nothing is in flight, so the in-thread backend runs every trial
      // left; it returns early only when cancelled.
      executor.run_in_thread(std::move(pending));
      break;
    }
    if (executor.done()) break;  // a poisoned trial may have been the last

    // Poll deadline: the earliest of every timer the loop owes a check —
    // heartbeat expiries, trial deadlines, reassignment and respawn
    // backoffs — clamped so a missed edge costs at most 200 ms.
    Clock::time_point wake = now + std::chrono::milliseconds(200);
    const auto consider = [&wake](Clock::time_point t) {
      if (t < wake) wake = t;
    };
    for (const Slot& slot : slots) {
      if (slot.state == Slot::State::kDead) {
        if (respawnable(slot)) consider(slot.respawn_at);
        continue;
      }
      consider(slot.last_heartbeat + options.heartbeat_timeout);
      if (slot.state == Slot::State::kBusy && options.trial_deadline.count() > 0)
        consider(slot.trial_start + options.trial_deadline);
    }
    for (const PendingTrial& work : pending) consider(work.eligible_at);
    int timeout_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(wake - now).count());
    timeout_ms = std::clamp(timeout_ms, 1, 200);

    std::vector<pollfd> fds;
    std::vector<std::pair<std::size_t, bool>> fd_owner;  // slot, is_stderr
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (slots[s].state == Slot::State::kDead) continue;
      fds.push_back(pollfd{slots[s].proc.stdout_fd(), POLLIN, 0});
      fd_owner.emplace_back(s, false);
      fds.push_back(pollfd{slots[s].proc.stderr_fd(), POLLIN, 0});
      fd_owner.emplace_back(s, true);
    }
    ::poll(fds.empty() ? nullptr : fds.data(), fds.size(), timeout_ms);

    for (std::size_t f = 0; f < fds.size(); ++f) {
      if ((fds[f].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Slot& slot = slots[fd_owner[f].first];
      if (slot.state == Slot::State::kDead) continue;  // failed earlier this pass
      if (fd_owner[f].second) {
        slot.proc.drain_stderr();
        continue;
      }
      char buf[4096];
      bool eof = false;
      while (true) {
        const ssize_t n = ::read(slot.proc.stdout_fd(), buf, sizeof(buf));
        if (n > 0) {
          slot.reader.feed(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n == 0) eof = true;
        break;  // EAGAIN or EOF
      }
      // Frames already buffered are processed before an EOF verdict: a
      // worker that sends its result and immediately exits loses nothing.
      Frame frame;
      while (slot.state != Slot::State::kDead && slot.reader.next(frame))
        if (!handle_frame(slot, frame)) break;
      if (slot.state == Slot::State::kDead) continue;
      if (slot.reader.corrupt()) {
        fail_worker(slot, "garbage on result stream");
        continue;
      }
      if (eof) fail_worker(slot, "worker exited");
    }

    // Liveness verdicts.
    const Clock::time_point after = Clock::now();
    for (Slot& slot : slots) {
      if (slot.state == Slot::State::kDead) continue;
      if (after - slot.last_heartbeat > options.heartbeat_timeout) {
        fail_worker(slot, "heartbeat timeout");
        continue;
      }
      if (slot.state == Slot::State::kBusy && options.trial_deadline.count() > 0 &&
          after - slot.trial_start > options.trial_deadline)
        fail_worker(slot, "trial deadline exceeded");
    }
  }

  // Orderly teardown: ask politely, then make sure.
  for (Slot& slot : slots) {
    if (slot.state == Slot::State::kDead) continue;
    slot.proc.write_all(encode_frame(FrameType::kShutdown, std::string()));
    slot.proc.close_stdin();
    slot.proc.reap(/*grace_ms=*/500);
  }

  CampaignResult result = executor.finish();
  result.workers_lost = workers_lost;
  result.worker_restarts = worker_restarts;
  result.reassigned_trials = reassigned_trials;
  result.degraded_to_in_process = degraded;
  return result;
}

}  // namespace streamlab::campaign
