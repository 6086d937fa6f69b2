#include "util/log.hpp"

#include <memory>
#include <ostream>

#include "util/sync.hpp"

namespace vtm::util {

const char* to_string(log_level level) noexcept {
  switch (level) {
    case log_level::debug:
      return "debug";
    case log_level::info:
      return "info";
    case log_level::warn:
      return "warn";
    case log_level::error:
      return "error";
    case log_level::off:
      return "off";
  }
  return "?";
}

namespace {

/// Shared state of a stream sink: one mutex serializes all writers that
/// hold a copy of the same logger, so concurrent lanes emit whole lines.
struct stream_sink {
  stream_sink(std::ostream& stream, std::string name)
      : out(stream), component(std::move(name)) {}

  void write(log_level level, const std::string& message) {
    const mutex_lock lock(mu);
    out << to_string(level) << " [" << component << "] " << message << '\n';
  }

  mutex mu;
  std::ostream& out VTM_GUARDED_BY(mu);
  const std::string component;
};

}  // namespace

logger logger::to_stream(std::ostream& out, std::string component,
                         log_level threshold) {
  auto sink = std::make_shared<stream_sink>(out, std::move(component));
  return logger(threshold,
                [sink = std::move(sink)](log_level level,
                                         const std::string& message) {
                  sink->write(level, message);
                });
}

}  // namespace vtm::util
