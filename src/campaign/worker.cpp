#include "campaign/worker.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>

#include <unistd.h>

#include "campaign/protocol.hpp"

namespace streamlab::campaign {
namespace {

// Stdout is shared by the heartbeat thread and the result path; every
// frame goes out under one lock as a single full write loop so frames
// never interleave.
class FrameWriter {
 public:
  explicit FrameWriter(int fd) : fd_(fd) {}

  bool send(FrameType type, const std::string& payload) {
    const std::string frame = encode_frame(type, payload);
    std::lock_guard<std::mutex> lock(mu_);
    return write_all(frame);
  }

  /// Raw bytes outside the framing rules — the garbage fault mode.
  void send_garbage() {
    std::lock_guard<std::mutex> lock(mu_);
    write_all(std::string("\xff\xfe\xfd this is not a frame \xfc\xfb"));
  }

 private:
  bool write_all(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::write(fd_, data.data() + off, data.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  int fd_;
  std::mutex mu_;
};

struct FaultPlan {
  enum class Kind { kNone, kAbortOnTrial, kHangOnTrial, kMuteOnTrial, kGarbageOnTrial, kAbortAfter };
  Kind kind = Kind::kNone;
  std::uint64_t n = 0;
};

FaultPlan parse_fault_env() {
  FaultPlan plan;
  const char* env = std::getenv("STREAMLAB_WORKER_FAULT");
  if (env == nullptr || *env == '\0') return plan;
  const std::string spec(env);
  const auto colon = spec.find(':');
  if (colon == std::string::npos) return plan;
  const std::string name = spec.substr(0, colon);
  plan.n = std::strtoull(spec.c_str() + colon + 1, nullptr, 10);
  if (name == "abort-on-trial") plan.kind = FaultPlan::Kind::kAbortOnTrial;
  else if (name == "hang-on-trial") plan.kind = FaultPlan::Kind::kHangOnTrial;
  else if (name == "mute-on-trial") plan.kind = FaultPlan::Kind::kMuteOnTrial;
  else if (name == "garbage-on-trial") plan.kind = FaultPlan::Kind::kGarbageOnTrial;
  else if (name == "abort-after") plan.kind = FaultPlan::Kind::kAbortAfter;
  return plan;
}

[[noreturn]] void hang_forever() {
  while (true) std::this_thread::sleep_for(std::chrono::seconds(3600));
}

}  // namespace

int run_campaign_worker(const CampaignConfig& config) {
  const FaultPlan fault = parse_fault_env();
  int heartbeat_ms = 100;
  if (const char* env = std::getenv("STREAMLAB_WORKER_HEARTBEAT_MS"))
    if (const int v = std::atoi(env); v > 0) heartbeat_ms = v;

  FrameWriter writer(1);
  const std::string config_hex = campaign_detail::config_hex(config);
  if (!writer.send(FrameType::kHello, config_hex)) return 3;

  // Heartbeats keep flowing while a trial computes — the coordinator
  // distinguishes "slow trial" (heartbeats fine, trial deadline decides)
  // from "stuck process" (heartbeats stop).
  std::atomic<bool> mute{false};
  std::atomic<bool> done{false};
  std::mutex hb_mu;
  std::condition_variable hb_cv;
  std::thread heartbeat([&] {
    std::unique_lock<std::mutex> lock(hb_mu);
    while (!done.load(std::memory_order_relaxed)) {
      hb_cv.wait_for(lock, std::chrono::milliseconds(heartbeat_ms));
      if (done.load(std::memory_order_relaxed)) break;
      if (!mute.load(std::memory_order_relaxed))
        writer.send(FrameType::kHeartbeat, std::string());
    }
  });
  const auto stop_heartbeat = [&] {
    done.store(true, std::memory_order_relaxed);
    hb_cv.notify_all();
    if (heartbeat.joinable()) heartbeat.join();
  };

  // One runner across assignments, as on a pool thread, so trial bytes
  // match the serial path exactly.
  campaign_detail::TrialRunner runner(config, config_hex);

  FrameReader reader;
  Frame frame;
  std::uint64_t results_sent = 0;
  char buf[4096];
  int exit_code = 0;

  while (true) {
    bool got = reader.next(frame);
    if (!got) {
      if (reader.corrupt()) { exit_code = 2; break; }
      const ssize_t n = ::read(0, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;  // coordinator closed our stdin: we are done
      reader.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (frame.type == FrameType::kShutdown) break;
    if (frame.type != FrameType::kAssign) continue;

    std::uint64_t index = 0;
    if (!decode_assign(frame.payload, index)) { exit_code = 2; break; }

    switch (fault.kind) {
      case FaultPlan::Kind::kAbortOnTrial:
        if (index == fault.n) {
          std::fprintf(stderr, "streamlab-worker: injected abort on trial %llu\n",
                       static_cast<unsigned long long>(index));
          ::_exit(42);
        }
        break;
      case FaultPlan::Kind::kHangOnTrial:
        if (index == fault.n) {
          std::fprintf(stderr, "streamlab-worker: injected hang on trial %llu\n",
                       static_cast<unsigned long long>(index));
          hang_forever();
        }
        break;
      case FaultPlan::Kind::kMuteOnTrial:
        if (index == fault.n) {
          std::fprintf(stderr, "streamlab-worker: injected mute-hang on trial %llu\n",
                       static_cast<unsigned long long>(index));
          mute.store(true, std::memory_order_relaxed);
          hang_forever();
        }
        break;
      case FaultPlan::Kind::kGarbageOnTrial:
        if (index == fault.n) {
          std::fprintf(stderr, "streamlab-worker: injected garbage on trial %llu\n",
                       static_cast<unsigned long long>(index));
          writer.send_garbage();
        }
        break;
      case FaultPlan::Kind::kNone:
      case FaultPlan::Kind::kAbortAfter:
        break;
    }

    TrialOutcome outcome = runner.run(static_cast<std::size_t>(index));

    ResultMsg msg;
    msg.index = index;
    msg.manifest_line = campaign_detail::manifest_line(outcome, config_hex);
    msg.postmortem = std::move(outcome.postmortem);
    if (!writer.send(FrameType::kResult, encode_result(msg))) { exit_code = 3; break; }
    ++results_sent;

    if (fault.kind == FaultPlan::Kind::kAbortAfter && results_sent >= fault.n) {
      std::fprintf(stderr, "streamlab-worker: injected abort after %llu results\n",
                   static_cast<unsigned long long>(results_sent));
      ::_exit(42);
    }
  }

  stop_heartbeat();
  return exit_code;
}

}  // namespace streamlab::campaign
