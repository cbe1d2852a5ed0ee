#include "core/campaign.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include "core/flightrec.hpp"
#include "obs/obs.hpp"
#include "util/strings.hpp"

namespace streamlab {
namespace {

// --- Config digest (FNV-1a over the parameters that shape trial results) ---

struct Digester {
  std::uint64_t h = 0xcbf29ce484222325ull;

  /// Folds each value's 64-bit image: integers, flags and enums as is,
  /// doubles by bit pattern, durations, times and rates by their raw count.
  template <typename... Ts>
  void add(const Ts&... values) {
    (fold(image(values)), ...);
  }

 private:
  static std::uint64_t image(Duration v) { return v.ns(); }
  static std::uint64_t image(SimTime v) { return v.ns(); }
  static std::uint64_t image(BitRate v) { return v.bits_per_second(); }
  static std::uint64_t image(double v) { return std::bit_cast<std::uint64_t>(v); }
  template <typename T>
  static std::uint64_t image(T v) { return static_cast<std::uint64_t>(v); }
  void fold(std::uint64_t v) {
    for (int i = 0; i < 8; ++i, v >>= 8) {
      h ^= v & 0xff;
      h *= 0x100000001b3ull;
    }
  }
};

// --- NDJSON helpers (hand-rolled: the repo carries no JSON dependency) ---

void append_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
  }
}

/// `v` as 16 lower-case hex digits, NUL-terminated.
std::array<char, 17> hex64(std::uint64_t v) {
  std::array<char, 17> buf;
  std::snprintf(buf.data(), buf.size(), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Appends `"key":`, after a separating comma unless the object just opened.
void append_key(std::string& out, std::string_view key) {
  if (out.back() != '{') out += ',';
  out += '"';
  out += key;
  out += "\":";
}

template <typename T>
void append_number(std::string& out, std::string_view key, T v) {
  append_key(out, key);
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void append_string(std::string& out, std::string_view key, std::string_view v) {
  append_key(out, key);
  out += '"';
  append_escaped(out, v);
  out += '"';
}

/// Value of `"key":` in a one-line JSON object: a string's content between
/// its quotes (still escaped), or a number's token. Throws when the key is
/// absent, the value is of the other kind, or a string is cut off.
std::string_view json_value(std::string_view line, std::string_view key, bool quoted) {
  std::size_t at = line.find(key);
  while (at != std::string_view::npos &&
         (at == 0 || line[at - 1] != '"' || line.substr(at + key.size(), 2) != "\":"))
    at = line.find(key, at + 1);
  if (at == std::string_view::npos)
    throw std::runtime_error("missing \"" + std::string(key) + "\"");
  at += key.size() + 2;
  if (!quoted) return line.substr(at, line.find_first_of(",}", at) - at);
  std::size_t end = at + 1;
  while (end < line.size() && line[end] != '"') end += line[end] == '\\' ? 2 : 1;
  if (line[at] != '"' || end >= line.size())
    throw std::runtime_error("\"" + std::string(key) + "\" is not a string");
  return line.substr(at + 1, end - at - 1);
}

/// Unescaped content of a string value.
std::string json_text(std::string_view line, std::string_view key) {
  const std::string_view v = json_value(line, key, true);
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    char c = v[i];
    if (c == '\\') {
      c = v[++i];
      if (c == 'n') c = '\n';
      else if (c == 'r') c = '\r';
      else if (c == 't') c = '\t';
    }
    out += c;
  }
  return out;
}

/// A number that is wholly a decimal in T's range (see parse_number) or,
/// with base 16, a string of hex digits.
template <typename T>
T json_number(std::string_view line, std::string_view key, int base = 10) {
  const std::string_view digits = json_value(line, key, base == 16);
  const std::optional<T> v = parse_number<T>(digits, base);
  if (!v)
    throw std::runtime_error("bad number for \"" + std::string(key) + "\": '" +
                             std::string(digits) + "'");
  return *v;
}

}  // namespace

namespace campaign_detail {

std::string config_hex(const CampaignConfig& config) {
  return hex64(campaign_config_digest(config)).data();
}

std::string manifest_line(const TrialOutcome& t, const std::string& config_hex) {
  const std::string telemetry =
      t.telemetry && !t.telemetry->empty() ? t.telemetry->serialize() : std::string();
  std::string line;
  line.reserve(640 + t.reason.size() + t.stderr_tail.size() + telemetry.size());
  line += '{';
  append_number(line, "trial", t.index);
  append_number(line, "seed", t.seed);
  append_string(line, "config", config_hex);
  append_string(line, "status", to_string(t.status));
  append_string(line, "reason", t.reason);
  append_number(line, "checks", t.checks);
  append_number(line, "violations", t.violations);
  append_number(line, "sim_events", t.sim_events);
  append_number(line, "budget_exhausted", t.budget_exhausted ? 1 : 0);
  append_string(line, "digest", hex64(t.digest).data());
  append_number(line, "divergence",
                t.divergence ? static_cast<std::int64_t>(*t.divergence) : std::int64_t{-1});
  for (const TrialMetricField& f : trial_metric_fields()) {
    if (f.count != nullptr) append_number(line, f.key, t.*f.count);
    else append_number(line, f.key, (t.*f.span).ns());
  }
  if (t.status == TrialStatus::kQuarantined) {
    // Worker post-mortem evidence rides quarantined records only: completed
    // lines must stay byte-identical with the serial path no matter how
    // many process-worker reassignments the trial survived.
    append_number(line, "attempts", t.attempts);
    append_number(line, "worker_exit_status", t.worker_exit_status);
    append_string(line, "stderr_tail", t.stderr_tail);
  }
  // Optional trailing field, absent for collect_telemetry=false runs.
  if (!telemetry.empty()) append_string(line, "telemetry", telemetry);
  line += '}';
  return line;
}

TrialOutcome parse_manifest_line(const std::string& line, const std::string& config_hex,
                                 std::size_t line_no) try {
  if (line.empty() || line.front() != '{' || line.back() != '}')
    throw std::runtime_error("not a one-line JSON object");
  if (const std::string config = json_text(line, "config"); config != config_hex)
    throw std::runtime_error("config digest mismatch (manifest " + config + ", campaign " +
                             config_hex +
                             "): refusing to mix trials from different configurations");

  TrialOutcome t;
  t.from_manifest = true;
  t.index = json_number<std::size_t>(line, "trial");
  t.seed = json_number<std::uint64_t>(line, "seed");
  const std::string status = json_text(line, "status");
  t.status = status == "quarantined" ? TrialStatus::kQuarantined : TrialStatus::kCompleted;
  if (status != to_string(t.status)) throw std::runtime_error("unknown status '" + status + "'");
  t.reason = json_text(line, "reason");
  t.checks = json_number<std::uint64_t>(line, "checks");
  t.violations = json_number<std::uint64_t>(line, "violations");
  t.sim_events = json_number<std::uint64_t>(line, "sim_events");
  t.budget_exhausted = json_number<std::uint64_t>(line, "budget_exhausted") != 0;
  t.digest = json_number<std::uint64_t>(line, "digest", 16);
  if (const auto div = json_number<std::int64_t>(line, "divergence"); div >= 0)
    t.divergence = static_cast<std::uint64_t>(div);
  else if (div != -1)
    throw std::runtime_error("bad number for \"divergence\": " + std::to_string(div));
  for (const TrialMetricField& f : trial_metric_fields()) {
    if (f.count != nullptr) t.*f.count = json_number<std::uint64_t>(line, f.key);
    else t.*f.span = Duration::nanos(json_number<std::int64_t>(line, f.key));
  }
  if (t.status == TrialStatus::kQuarantined) {
    t.attempts = json_number<std::uint32_t>(line, "attempts");
    t.worker_exit_status = json_number<int>(line, "worker_exit_status");
    t.stderr_tail = json_text(line, "stderr_tail");
  }
  if (line.find("\"telemetry\":") != std::string::npos) {
    auto parsed = obs::TrialTelemetry::parse(json_text(line, "telemetry"));
    if (!parsed) throw std::runtime_error("unparseable telemetry snapshot");
    t.telemetry = std::move(*parsed);
  }
  return t;
} catch (const std::runtime_error& e) {
  throw std::runtime_error("resume manifest line " + std::to_string(line_no) + ": " + e.what());
}

}  // namespace campaign_detail

namespace {

// --- Trial execution ---

/// A trial's TrialMetrics, summed out of its sessions' run metrics.
TrialMetrics session_sums(const TurbulenceRunResult& run) {
  TrialMetrics sums;
  for (const auto* session : {&run.real, &run.media}) {
    if (!*session) continue;
    ++sums.sessions;
    for (const TrialMetricField& f : trial_metric_fields())
      if (f.from_session != nullptr) f.add(sums, f.from_session(**session));
  }
  sums.reroutes = run.reroutes;
  sums.route_restores = run.route_restores;
  return sums;
}

/// Derives the per-trial scalar samples/tallies the cross-trial
/// distributions track, then folds in the rolled-up registry snapshot.
obs::TrialTelemetry snapshot_trial(const TrialOutcome& t, const ClipInfo& clip,
                                   const obs::Obs* trial_obs) {
  obs::TrialTelemetry out;
  if (trial_obs != nullptr) out = obs::TrialTelemetry::from_registry(trial_obs->registry());
  if (t.result) {
    // From the run itself, not from `t`: a quarantined trial keeps zero
    // TrialMetrics, but its telemetry still reports what the run saw.
    const TrialMetrics m = session_sums(*t.result);
    std::uint64_t wire_bytes = 0;
    double latency_sum = 0.0;
    std::size_t latency_sessions = 0;
    const auto scan = [&](const std::optional<SessionRecoveryMetrics>& m) {
      if (!m) return;
      wire_bytes += m->total_wire_bytes;
      if (m->packets_recovered > 0) {
        latency_sum += m->repair_latency_mean_ms;
        ++latency_sessions;
      }
    };
    scan(t.result->real);
    scan(t.result->media);
    if (clip.length.ns() > 0)
      out.set_sample("trial.goodput_kbps",
                     static_cast<double>(wire_bytes) * 8.0 / 1000.0 / clip.length.to_seconds());
    out.set_sample("trial.stall_ms", m.stall_time.to_millis());
    const std::uint64_t loss_denominator = m.packets_lost + m.packets_recovered;
    out.set_sample("trial.recovery_ratio",
                   loss_denominator > 0
                       ? static_cast<double>(m.packets_recovered) / static_cast<double>(loss_denominator)
                       : 0.0);
    if (latency_sessions > 0)
      out.set_sample("trial.repair_latency_ms", latency_sum / static_cast<double>(latency_sessions));
    out.set_tally("trial.sim_events", t.sim_events);
    out.set_tally("trial.packets_lost", m.packets_lost);
    out.set_tally("trial.rebuffers", m.rebuffer_events);
    out.set_tally("trial.reroutes", m.reroutes);
  }
  return out;
}

}  // namespace

TrialOutcome campaign_detail::TrialRunner::run(std::size_t index) {
  const CampaignConfig& config = config_;
  TrialOutcome t;
  t.index = index;
  t.seed = config.base_seed + index;
  const auto wall_start = std::chrono::steady_clock::now();

  audit::Auditor auditor;
  audit::DeterminismProbe probe;
  probe.enable_recording(config.verify_determinism);

  // The reset restores the scratch Obs's just-constructed state, so trial
  // output is byte-identical to a fresh Obs.
  obs::Obs* trial_obs = scratch_ ? &*scratch_ : nullptr;
  const bool collect = trial_obs != nullptr;
  if (collect) trial_obs->reset_for_reuse();

  TurbulenceScenarioConfig scenario = config.scenario;
  scenario.seed = t.seed;
  scenario.auditor = &auditor;
  scenario.probe = &probe;
  if (collect) scenario.obs = trial_obs;

  try {
    TurbulenceRunResult run = run_turbulence_clip(config.clip, scenario);
    t.sim_events = run.sim_events;
    t.budget_exhausted = run.budget_exhausted;
    t.result = std::move(run);
    t.digest = probe.digest();

    if (config.verify_determinism) {
      audit::Auditor replay_auditor;
      audit::DeterminismProbe replay_probe;
      replay_probe.enable_recording(true);
      TurbulenceScenarioConfig replay = scenario;
      replay.seed = t.seed + config.verify_seed_skew;
      replay.auditor = &replay_auditor;
      replay.probe = &replay_probe;
      // The replay must not pollute the primary run's Obs (rate-limiter
      // state, double-counted metrics); divergence detection needs only the
      // probes.
      replay.obs = nullptr;
      run_turbulence_clip(config.clip, replay);
      if (probe.digest() != replay_probe.digest() ||
          probe.events() != replay_probe.events())
        t.divergence = audit::first_divergence(probe, replay_probe)
                           .value_or(std::min(probe.events(), replay_probe.events()));
    }

    if (config.fault_hook) config.fault_hook(auditor, index, t.seed);
  } catch (const std::exception& e) {
    t.status = TrialStatus::kQuarantined;
    t.reason = std::string("exception: ") + e.what();
  } catch (...) {
    t.status = TrialStatus::kQuarantined;
    t.reason = "exception: unknown";
  }

  t.checks = auditor.report().checks_performed;
  t.violations = auditor.report().total_violations;
  if (t.status == TrialStatus::kCompleted) {
    if (!auditor.report().clean()) {
      t.status = TrialStatus::kQuarantined;
      t.reason = "audit: " + auditor.report().summary();
    } else if (t.divergence) {
      t.status = TrialStatus::kQuarantined;
      t.reason =
          "determinism: runs diverge at event #" + std::to_string(*t.divergence);
    }
  }
  // Only completed trials are salvaged; a quarantined one keeps zero metrics.
  if (t.status == TrialStatus::kCompleted && t.result)
    static_cast<TrialMetrics&>(t) = session_sums(*t.result);

  if (collect) t.telemetry = snapshot_trial(t, config.clip, trial_obs);
  if (t.status == TrialStatus::kQuarantined) {
    // Render the flight-recorder document here, while the evidence (Obs
    // ring, audit report) is still alive; the coordinator only writes the
    // bytes to disk.
    PostmortemContext context;
    context.trial_index = t.index;
    context.seed = t.seed;
    context.reason = t.reason;
    context.config_hex = config_hex_;
    context.sim_events = t.sim_events;
    context.budget_exhausted = t.budget_exhausted;
    t.postmortem = render_postmortem(context, auditor.report(), trial_obs,
                                     t.telemetry ? &*t.telemetry : nullptr,
                                     config.flight_recorder_records);
  }
  t.wall_ns = static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                             std::chrono::steady_clock::now() - wall_start)
                                             .count());
  return t;
}

namespace {

std::size_t resolve_workers(std::size_t requested, std::size_t pending) {
  std::size_t n = requested;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;  // hardware_concurrency may be unknowable
  }
  if (n > pending) n = pending;
  return n == 0 ? 1 : n;
}

}  // namespace

namespace campaign_detail {

ManifestRead read_resume_manifest(const std::string& path, const std::string& config_hex,
                                  std::size_t max_trials, bool repair_in_place) {
  ManifestRead out;
  std::string content;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) return out;  // no manifest yet: nothing to resume
    content.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }

  // `good_end` tracks the byte offset just past the last intact line, so a
  // torn tail can be truncated away before the campaign appends new lines.
  std::size_t pos = 0, line_no = 0, good_end = 0;
  bool torn = false, missing_final_newline = false;
  while (pos < content.size()) {
    const std::size_t nl = content.find('\n', pos);
    const bool has_newline = nl != std::string::npos;
    const std::size_t end = has_newline ? nl : content.size();
    const std::size_t next = has_newline ? nl + 1 : content.size();
    std::string line = content.substr(pos, end - pos);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    ++line_no;
    if (line.empty()) {
      good_end = next;
      pos = next;
      continue;
    }
    try {
      TrialOutcome t = parse_manifest_line(line, config_hex, line_no);
      if (t.index < max_trials) out.restored.insert_or_assign(t.index, std::move(t));
      good_end = next;
      missing_final_newline = !has_newline;
    } catch (const std::exception& e) {
      // A crash mid-`write(2)` leaves a structurally truncated final line:
      // no trailing newline, or a line that never reached its closing
      // brace. Tolerate exactly that shape — drop the bytes, warn, and let
      // the trial re-run. A *complete* final line that fails to parse (or
      // carries a foreign config digest) is still a hard error: that is
      // corruption or a different study, not a torn write.
      const bool structurally_torn = !has_newline || line.back() != '}';
      if (next >= content.size() && structurally_torn) {
        ++out.torn_lines;
        torn = true;
        std::fprintf(stderr,
                     "campaign: resume manifest %s line %zu is torn "
                     "(mid-write crash?); dropping it and re-running the trial: %s\n",
                     path.c_str(), line_no, e.what());
      } else {
        throw;
      }
    }
    pos = next;
  }

  if (repair_in_place) {
    if (torn) {
      // Cut the torn bytes so the append stream starts on a line boundary;
      // leaving them would glue the next manifest line onto the stump.
      std::error_code ec;
      std::filesystem::resize_file(path, good_end, ec);
      if (ec)
        throw std::runtime_error("cannot truncate torn resume manifest " + path + ": " +
                                 ec.message());
    } else if (missing_final_newline) {
      // Intact data, lost newline (killed between the two writes): restore
      // the separator so appended lines stay well-formed.
      std::ofstream fix(path, std::ios::app | std::ios::binary);
      fix << '\n';
    }
  }
  return out;
}

TrialRunner::TrialRunner(const CampaignConfig& config, std::string config_hex)
    : config_(config), config_hex_(std::move(config_hex)) {
  // Registry maps and the intern table are built on the first trial; later
  // trials only reset values. A scenario that brings its own Obs keeps the
  // single-run contract and gets no scratch.
  if (config.collect_telemetry && config.scenario.obs == nullptr) {
    obs::Obs::Config obs_config;
    obs_config.trace_capacity =
        config.flight_recorder_records > 0 ? config.flight_recorder_records : 1;
    scratch_.emplace(obs_config);
  }
}

void PendingTrial::stamp_evidence(TrialOutcome& outcome) const {
  outcome.attempts = attempts;
  outcome.worker_exit_status = last_exit_status;
  outcome.stderr_tail = last_stderr;
}

Executor::Executor(const CampaignConfig& config, std::size_t workers)
    : config_(config), config_hex_(campaign_detail::config_hex(config)) {
  // Restore finished trials from an existing manifest (resume), tolerating
  // — and truncating away — a torn trailing line from a mid-write crash.
  ManifestRead resumed;
  if (!config.manifest_path.empty())
    resumed = read_resume_manifest(config.manifest_path, config_hex_, config.trials);
  result_.manifest_torn_lines = resumed.torn_lines;
  pending_.reserve(config.trials - resumed.restored.size());
  for (std::size_t i = 0; i < config.trials; ++i)
    if (!resumed.restored.contains(i)) pending_.emplace_back().index = i;
  workers_ = resolve_workers(workers, pending_.size());

  if (!config.manifest_path.empty()) {
    manifest_.open(config.manifest_path, std::ios::app);
    if (!manifest_)
      throw std::runtime_error("cannot open resume manifest for append: " +
                               config.manifest_path);
  }
  postmortem_prefix_ = config.postmortem_prefix;
  if (postmortem_prefix_.empty() && !config.manifest_path.empty())
    postmortem_prefix_ = config.manifest_path + ".postmortem-";
  start_ = std::chrono::steady_clock::now();
  for (auto& [index, outcome] : resumed.restored) deliver(index, std::move(outcome));
}

bool Executor::cancelled() const {
  return config_.cancel != nullptr && config_.cancel->load(std::memory_order_relaxed);
}

void Executor::deliver(std::size_t index, TrialOutcome outcome,
                       std::optional<std::string> wire_line) {
  ready_.emplace(index, Ready{std::move(outcome), std::move(wire_line)});
  for (auto it = ready_.find(committed_); it != ready_.end(); it = ready_.find(committed_)) {
    Ready next = std::move(it->second);
    ready_.erase(it);
    commit(std::move(next));
  }
}

void Executor::restart(const PendingTrial& trial) {
  if (trial.failed_at)
    result_.reassignment_latency_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                             *trial.failed_at)
            .count());
}

void Executor::run_in_thread(std::vector<PendingTrial> trials) {
  std::sort(trials.begin(), trials.end(),
            [](const PendingTrial& a, const PendingTrial& b) { return a.index < b.index; });
  TrialRunner runner(config_, config_hex_);
  for (const PendingTrial& trial : trials) {
    if (cancelled()) return;
    restart(trial);
    TrialOutcome outcome = runner.run(trial.index);
    if (outcome.status == TrialStatus::kQuarantined) trial.stamp_evidence(outcome);
    deliver(trial.index, std::move(outcome));
  }
}

void Executor::commit(Ready ready) {
  TrialOutcome& outcome = ready.outcome;
  if (outcome.from_manifest) {
    ++result_.resumed;
  } else {
    if (manifest_.is_open()) {
      // One line per finished trial, flushed as soon as every *earlier*
      // trial's line is down: a campaign killed mid-run resumes from the
      // first trial with no line, and lines never appear out of order.
      manifest_ << (ready.wire_line ? *ready.wire_line : manifest_line(outcome, config_hex_))
                << '\n'
                << std::flush;
    }
    busy_ns_ += outcome.wall_ns;
    ++fresh_done_;
  }
  if (outcome.status == TrialStatus::kCompleted) {
    ++result_.completed;
    result_.aggregate.fold(outcome);
    result_.telemetry.add_counter("trials.completed");
    // Distributions fold only completed trials — quarantined metrics are
    // evidence (flight recorder), not population data.
    if (outcome.telemetry) result_.telemetry.fold(*outcome.telemetry);
  } else {
    ++result_.quarantined;
    result_.telemetry.add_counter("trials.quarantined");
    if (!outcome.postmortem.empty() && !postmortem_prefix_.empty()) {
      const std::string path =
          postmortem_prefix_ + std::to_string(outcome.seed) + ".ndjson";
      if (std::ofstream out(path); out) {
        out << outcome.postmortem;
        if (out) result_.postmortem_paths.push_back(path);
      }
    }
  }
  result_.trials.push_back(std::move(outcome));
  ++committed_;

  if (config_.progress_hook && config_.progress_every > 0 &&
      (committed_ % config_.progress_every == 0 || done())) {
    CampaignProgress p;
    p.trials_total = config_.trials;
    p.trials_done = committed_;
    p.completed = result_.completed;
    p.quarantined = result_.quarantined;
    p.resumed = result_.resumed;
    p.workers = workers_;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    const double elapsed_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
    p.wall_seconds = elapsed_ns / 1e9;
    if (fresh_done_ > 0 && elapsed_ns > 0.0) {
      p.trials_per_sec = static_cast<double>(fresh_done_) / p.wall_seconds;
      p.eta_seconds = static_cast<double>(config_.trials - committed_) / p.trials_per_sec;
      p.worker_utilization =
          static_cast<double>(busy_ns_) / (elapsed_ns * static_cast<double>(workers_));
      if (p.worker_utilization > 1.0) p.worker_utilization = 1.0;
    }
    p.telemetry = &result_.telemetry;
    config_.progress_hook(p);
  }
}

CampaignResult Executor::finish() {
  result_.interrupted = !done();
  result_.workers = workers_;
  return std::move(result_);
}

}  // namespace campaign_detail

const char* to_string(TrialStatus status) {
  return status == TrialStatus::kCompleted ? "completed" : "quarantined";
}

void CampaignAggregate::fold(const TrialOutcome& trial) {
  ++trials;
  for (const TrialMetricField& f : trial_metric_fields()) f.add(*this, f.get(trial));
}

std::vector<std::uint64_t> CampaignResult::quarantined_seeds() const {
  std::vector<std::uint64_t> seeds;
  for (const TrialOutcome& t : trials)
    if (t.status == TrialStatus::kQuarantined) seeds.push_back(t.seed);
  return seeds;
}

std::uint64_t campaign_config_digest(const CampaignConfig& config) {
  Digester d;
  const ClipInfo& clip = config.clip;
  d.add(clip.data_set, clip.content, clip.player, clip.tier, clip.encoded_rate,
        clip.advertised_rate, clip.length);

  const TurbulenceScenarioConfig& s = config.scenario;
  const PathConfig& path = s.path;
  d.add(path.hop_count, path.access_bandwidth, path.backbone_bandwidth,
        path.bottleneck_bandwidth, path.one_way_propagation, path.jitter_stddev,
        path.loss_probability, path.queue_limit_bytes);
  // Self-healing topology/control plane: detour, route repair, mirror.
  d.add(path.detour.has_value());
  if (path.detour)
    d.add(path.detour->span_first, path.detour->span_last, path.detour->hops,
          path.detour->metric);
  d.add(s.repair.has_value());
  if (s.repair) d.add(s.repair->detection_delay, s.repair->hold_down);
  d.add(s.repair_span_first, s.repair_span_last, s.mirror_server, s.icmp_unreachable_threshold);
  // Loss-repair policy: FEC/NACK/pacer parameters change the wire traffic.
  const RepairLayerConfig& r = s.repair_layer;
  d.add(r.fec_k, r.fec_stride, r.nack, r.nack_rtt_multiplier, r.nack_min_delay,
        r.nack_max_delay, r.nack_max_retries, r.retx_buffer_packets, r.pacer_rate_fraction,
        r.pacer_burst_bytes, r.nack_reorder_tolerance);
  // Multipath striping policy; the alias addresses are wiring the run fills.
  const MultipathConfig& mp = s.multipath;
  d.add(mp.enabled);
  if (mp.enabled)
    d.add(mp.primary_weight, mp.detour_weight, mp.loss_unhealthy, mp.loss_healthy,
          mp.ewma_alpha, mp.strike_limit, mp.report_interval, mp.hold_down,
          mp.join_buffer_packets, mp.join_hold, mp.nack_reorder_tolerance);
  // Player calibration (Sections 3.F and IV, Figure 11): WM frame groups
  // and preroll, RM buffering ratio, startup burst and packet-size model.
  const WmBehavior& wm = s.wm;
  d.add(wm.frame_interval, wm.min_media_per_datagram, wm.preroll, wm.app_batch_interval);
  const RmBehavior& rm = s.rm;
  d.add(rm.ratio_at_low, rm.ratio_exponent, rm.ratio_floor, rm.burst_at_low, rm.burst_at_high,
        rm.burst_max_fraction_of_clip, rm.preroll, rm.size_cv, rm.size_spread_min,
        rm.size_spread_max, rm.max_media_per_datagram, rm.min_media_per_datagram,
        rm.interarrival_cv);
  // Playout: max_stall's sign (stall vs drop-late) sits where a separate
  // rebuffering flag used to, so existing manifests keep their digest.
  const SessionRecoveryConfig& rc = s.recovery;
  d.add(rc.play_retry, rc.play_timeout, rc.backoff, rc.max_play_attempts,
        rc.inactivity_timeout, s.max_stall > Duration::zero(), s.max_stall);
  // Episode labels are report tags only.
  d.add(s.episodes.size());
  for (const FaultEpisode& e : s.episodes)
    d.add(e.kind, e.router_index, e.detour, e.start, e.duration, e.bandwidth, e.extra_delay,
          e.loss_probability, e.gilbert.p_good_to_bad, e.gilbert.p_bad_to_good,
          e.gilbert.loss_good, e.gilbert.loss_bad);
  d.add(s.extra_sim_time, s.max_sim_events, s.max_wall_time.count());

  d.add(config.trials, config.base_seed, config.verify_determinism, config.verify_seed_skew);
  return d.h;
}

namespace {

/// The thread backend: `workers` pool threads claim pending trials in index
/// order, each with its own TrialRunner, and park their outcomes; the
/// calling thread delivers them, so every commit stays off the pool.
void run_on_threads(campaign_detail::Executor& executor) {
  const std::vector<campaign_detail::PendingTrial>& pending = executor.pending();
  std::atomic<std::size_t> next_claim{0};
  std::mutex mu;
  std::condition_variable parked;
  std::vector<TrialOutcome> inbox;          // guarded by mu
  std::size_t running = executor.workers();  // guarded by mu
  const auto worker_body = [&] {
    campaign_detail::TrialRunner runner(executor.config(), executor.config_hex());
    while (!executor.cancelled()) {
      const std::size_t k = next_claim.fetch_add(1, std::memory_order_relaxed);
      if (k >= pending.size()) break;
      TrialOutcome outcome = runner.run(pending[k].index);
      {
        std::lock_guard<std::mutex> lock(mu);
        inbox.push_back(std::move(outcome));
      }
      parked.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      --running;
    }
    parked.notify_one();
  };

  std::vector<std::jthread> pool;
  pool.reserve(executor.workers());
  for (std::size_t w = 0; w < executor.workers(); ++w) pool.emplace_back(worker_body);

  // A cancelled pool stops claiming; whatever finished is still delivered,
  // and the executor commits its contiguous prefix.
  std::vector<TrialOutcome> batch;
  for (bool last = false; !last;) {
    {
      std::unique_lock<std::mutex> lock(mu);
      parked.wait(lock, [&] { return !inbox.empty() || running == 0; });
      batch.swap(inbox);
      last = running == 0;
    }
    for (TrialOutcome& outcome : batch) executor.deliver(outcome.index, std::move(outcome));
    batch.clear();
  }
}

}  // namespace

CampaignResult run_campaign(const CampaignConfig& config) {
  campaign_detail::Executor executor(config, config.workers);
  if (executor.workers() == 1) {
    executor.run_in_thread(executor.pending());
    return executor.finish();
  }
  // An Obs context is thread-confined and single-run; two concurrent trials
  // writing one registry/tracer would race, so a shared one is rejected
  // before any trial runs.
  if (config.scenario.obs != nullptr)
    throw std::runtime_error(
        "campaign: scenario.obs cannot be shared across concurrent trials; "
        "run with workers=1 or leave obs unset");
  run_on_threads(executor);
  return executor.finish();
}

}  // namespace streamlab
