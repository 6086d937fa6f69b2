// util::logger: threshold gating, the discarding default, level names, the
// stream sink's line format, and whole-line integrity when shard lanes log
// concurrently through one shared sink under thread_pool::run_phased.
#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace util = vtm::util;

namespace {

TEST(LogLevel, ToStringNamesEveryLevel) {
  EXPECT_STREQ(util::to_string(util::log_level::debug), "debug");
  EXPECT_STREQ(util::to_string(util::log_level::info), "info");
  EXPECT_STREQ(util::to_string(util::log_level::warn), "warn");
  EXPECT_STREQ(util::to_string(util::log_level::error), "error");
  EXPECT_STREQ(util::to_string(util::log_level::off), "off");
}

TEST(Logger, DefaultConstructedDiscardsEverything) {
  const util::logger log;
  for (const util::log_level level :
       {util::log_level::debug, util::log_level::info, util::log_level::warn,
        util::log_level::error}) {
    EXPECT_FALSE(log.enabled(level));
  }
  log.error("dropped on the floor");  // must not crash without a sink
}

TEST(Logger, ThresholdGatesLowerLevels) {
  std::vector<std::pair<util::log_level, std::string>> captured;
  const util::logger log(util::log_level::warn,
                         [&](util::log_level level, const std::string& m) {
                           captured.emplace_back(level, m);
                         });
  EXPECT_FALSE(log.enabled(util::log_level::debug));
  EXPECT_FALSE(log.enabled(util::log_level::info));
  EXPECT_TRUE(log.enabled(util::log_level::warn));
  EXPECT_TRUE(log.enabled(util::log_level::error));

  log.debug("no");
  log.info("no");
  log.warn("first");
  log.error("second");
  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].first, util::log_level::warn);
  EXPECT_EQ(captured[0].second, "first");
  EXPECT_EQ(captured[1].first, util::log_level::error);
  EXPECT_EQ(captured[1].second, "second");
}

TEST(Logger, StreamSinkFormatsLevelComponentMessage) {
  std::ostringstream out;
  const util::logger log =
      util::logger::to_stream(out, "core", util::log_level::info);
  log.debug("below threshold");
  log.info("window advanced");
  log.warn("pool saturated");
  EXPECT_EQ(out.str(),
            "info [core] window advanced\n"
            "warn [core] pool saturated\n");
}

TEST(Logger, ConcurrentLanesEmitWholeLinesThroughOneSink) {
  constexpr std::size_t kLanes = 4;
  constexpr std::size_t kPhases = 4;
  constexpr std::size_t kPerPhase = 25;

  std::ostringstream out;
  const util::logger log =
      util::logger::to_stream(out, "fleet", util::log_level::info);

  util::thread_pool pool(kLanes);
  pool.run_phased(
      kLanes,
      [&](std::size_t lane, std::size_t phase) {
        for (std::size_t i = 0; i < kPerPhase; ++i)
          log.info("lane " + std::to_string(lane) + " phase " +
                   std::to_string(phase) + " line " + std::to_string(i));
      },
      [&](std::size_t phase) { return phase + 1 < kPhases; });

  // Every emitted line must be intact: correct prefix, correct shape, no
  // interleaving. The sink's mutex is what this proves.
  std::istringstream lines(out.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    ++count;
    ASSERT_EQ(line.rfind("info [fleet] lane ", 0), 0u) << line;
    ASSERT_NE(line.find(" phase "), std::string::npos) << line;
    ASSERT_NE(line.find(" line "), std::string::npos) << line;
  }
  EXPECT_EQ(count, kLanes * kPhases * kPerPhase);
}

}  // namespace
