// Structured leveled logging.
//
// The library never logs by default (CP-friendly: no global mutable state in
// hot paths); components accept an optional logger. The default sink writes
// `level [component] message` lines to a stream.
#pragma once

#include <functional>
#include <iosfwd>
#include <sstream>
#include <string>

namespace vtm::util {

/// Severity levels in increasing order.
enum class log_level { debug, info, warn, error, off };

/// Human-readable name of a level ("debug", "info", ...).
[[nodiscard]] const char* to_string(log_level level) noexcept;

/// Lightweight logger handle: a level threshold plus a sink callback.
///
/// Copies share the sink; a default-constructed logger discards everything,
/// so components can hold one unconditionally.
class logger {
 public:
  using sink_fn = std::function<void(log_level, const std::string&)>;

  /// Discarding logger (level off).
  logger() noexcept = default;

  /// Logger with the given threshold and sink.
  logger(log_level threshold, sink_fn sink)
      : threshold_(threshold), sink_(std::move(sink)) {}

  /// Logger writing to an ostream, tagged with a component name. The sink
  /// serializes writes through an internal mutex (shared by every copy of
  /// the returned logger), so shard lanes and pool workers can log
  /// concurrently without interleaving lines; the stream itself must simply
  /// outlive the logger.
  [[nodiscard]] static logger to_stream(std::ostream& out, std::string component,
                                        log_level threshold = log_level::info);

  /// True when a message at `level` would be emitted.
  [[nodiscard]] bool enabled(log_level level) const noexcept {
    return sink_ && level >= threshold_;
  }

  /// Emit a message if the level passes the threshold.
  void log(log_level level, const std::string& message) const {
    if (enabled(level)) sink_(level, message);
  }

  void debug(const std::string& m) const { log(log_level::debug, m); }
  void info(const std::string& m) const { log(log_level::info, m); }
  void warn(const std::string& m) const { log(log_level::warn, m); }
  void error(const std::string& m) const { log(log_level::error, m); }

 private:
  log_level threshold_ = log_level::off;
  sink_fn sink_;
};

}  // namespace vtm::util
