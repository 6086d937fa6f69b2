// Chrome-trace spans and instant events with per-lane append-only buffers.
//
// A `trace_session` owns one `trace_lane` per worker lane (plus one for the
// coordinator); a lane is written by exactly one thread between barriers, so
// recording is a plain vector push — no locks, no atomics, and the buffers
// are read only after the run joins (TSan-clean by construction). Spans are
// RAII (`trace_span` records a Chrome `"X"` complete event at destruction);
// `trace_lane::instant` records `"i"` marker events. `write_chrome_json`
// emits the Chrome `trace_event` array format, loadable in Perfetto /
// chrome://tracing.
//
// Cost model: every recording call starts with a null-lane branch, so an
// uninstrumented run (no sink attached) pays one predictable branch per
// site. Configuring with -DVTM_TELEMETRY=OFF defines VTM_TELEMETRY_DISABLED
// and constant-folds `telemetry_compiled()` to false, compiling every site
// to a no-op outright.
//
// Timestamps come from std::chrono::steady_clock and are therefore exempt
// from the repo's bitwise-determinism policy (DESIGN.md §16): they never
// feed simulation state, metrics, or results — only this export.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <vector>

namespace vtm::util {

/// False when the build was configured with -DVTM_TELEMETRY=OFF; recording
/// call sites guard on this so the optimizer deletes them entirely.
[[nodiscard]] constexpr bool telemetry_compiled() noexcept {
#if defined(VTM_TELEMETRY_DISABLED)
  return false;
#else
  return true;
#endif
}

class trace_session;

/// One key/value pair attached to an event. `key` must point at storage
/// outliving the session (string literals at the instrumentation sites).
struct trace_arg {
  const char* key = nullptr;
  double value = 0.0;
};

/// Append-only event buffer owned by one lane (thread) at a time.
class trace_lane {
 public:
  /// Record an instant (`"i"`) marker event.
  void instant(const char* name, std::initializer_list<trace_arg> args = {});

 private:
  friend class trace_session;
  friend class trace_span;

  struct event {
    const char* name = nullptr;  ///< Static-storage literal.
    char phase = 'X';
    std::int64_t ts_ns = 0;
    std::int64_t dur_ns = 0;  ///< 'X' events only.
    std::uint32_t arg_first = 0;
    std::uint32_t arg_count = 0;
  };

  void push(const char* name, char phase, std::int64_t ts_ns,
            std::int64_t dur_ns, const trace_arg* args, std::size_t count);

  trace_session* session_ = nullptr;
  std::size_t tid_ = 0;
  std::vector<event> events_;
  std::vector<trace_arg> args_;  ///< Flattened per-event arg slices.
};

/// Owns the lanes and the clock origin; exports the collected events.
class trace_session {
 public:
  trace_session();
  trace_session(const trace_session&) = delete;
  trace_session& operator=(const trace_session&) = delete;

  /// Grow to at least `count` lanes. Serial-only (call before handing lane
  /// pointers to workers); existing lane references stay valid.
  void ensure_lanes(std::size_t count);

  [[nodiscard]] std::size_t lane_count() const noexcept {
    return lanes_.size();
  }
  /// Lane `i`, or nullptr when it does not exist — callers can hold the
  /// result unconditionally and rely on the recording calls' null checks.
  [[nodiscard]] trace_lane* lane(std::size_t i) noexcept {
    return i < lanes_.size() ? &lanes_[i] : nullptr;
  }

  /// Label lane `i` in the exported trace ("shard 0", "coordinator", ...).
  void set_lane_name(std::size_t i, std::string name);

  /// Nanoseconds since the session was constructed (steady clock).
  [[nodiscard]] std::int64_t now_ns() const noexcept;

  /// Total recorded events across all lanes.
  [[nodiscard]] std::size_t event_count() const noexcept;

  /// Chrome trace_event JSON (`{"traceEvents": [...]}`), with process/
  /// thread metadata so Perfetto shows one labelled track per lane. Call
  /// after the run has joined its workers.
  void write_chrome_json(std::ostream& out) const;

 private:
  std::int64_t origin_ns_ = 0;
  std::deque<trace_lane> lanes_;  ///< deque: stable references on growth.
  std::vector<std::string> lane_names_;
};

/// RAII scoped span: records an `"X"` complete event over its lifetime on
/// the given lane. A null lane makes every member a cheap no-op, so call
/// sites need no telemetry-enabled branch of their own.
class trace_span {
 public:
  trace_span(trace_lane* lane, const char* name) noexcept
      : lane_(telemetry_compiled() ? lane : nullptr), name_(name) {
    if (lane_ != nullptr) start_ns_ = lane_->session_->now_ns();
  }
  ~trace_span() { finish(); }

  trace_span(const trace_span&) = delete;
  trace_span& operator=(const trace_span&) = delete;

  /// Attach a key/value to the event (recorded at destruction). Capacity is
  /// fixed; surplus args are dropped rather than allocated for.
  void arg(const char* key, double value) noexcept {
    if (lane_ != nullptr && argc_ < kMaxArgs) args_[argc_++] = {key, value};
  }

  /// Close the span early (idempotent; the destructor becomes a no-op).
  void finish();

 private:
  static constexpr std::uint32_t kMaxArgs = 9;

  trace_lane* lane_ = nullptr;
  const char* name_ = nullptr;
  std::int64_t start_ns_ = 0;
  trace_arg args_[kMaxArgs];
  std::uint32_t argc_ = 0;
};

}  // namespace vtm::util
