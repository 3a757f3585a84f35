#include "core/logging.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace sqm {
namespace {

class LoggingTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_level_ = Logger::GetLevel(); }
  void TearDown() override {
    Logger::SetLevel(saved_level_);
    Logger::SetSink(nullptr);
  }

  LogLevel saved_level_;
};

TEST_F(LoggingTest, LevelRoundTrips) {
  Logger::SetLevel(LogLevel::kWarning);
  EXPECT_EQ(Logger::GetLevel(), LogLevel::kWarning);
  Logger::SetLevel(LogLevel::kDebug);
  EXPECT_EQ(Logger::GetLevel(), LogLevel::kDebug);
}

TEST_F(LoggingTest, BelowThresholdIsSuppressed) {
  Logger::SetLevel(LogLevel::kError);
  ::testing::internal::CaptureStderr();
  SQM_LOG(kInfo) << "should not appear";
  SQM_LOG(kWarning) << "nor this";
  const std::string output = ::testing::internal::GetCapturedStderr();
  EXPECT_TRUE(output.empty()) << output;
}

TEST_F(LoggingTest, AtOrAboveThresholdIsEmitted) {
  Logger::SetLevel(LogLevel::kInfo);
  ::testing::internal::CaptureStderr();
  SQM_LOG(kInfo) << "hello " << 42;
  SQM_LOG(kError) << "bad thing";
  const std::string output = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(output.find("[INFO] hello 42"), std::string::npos);
  EXPECT_NE(output.find("[ERROR] bad thing"), std::string::npos);
}

TEST_F(LoggingTest, CheckPassesSilently) {
  ::testing::internal::CaptureStderr();
  SQM_CHECK(1 + 1 == 2);
  EXPECT_TRUE(::testing::internal::GetCapturedStderr().empty());
}

TEST_F(LoggingTest, SinkCapturesStructuredRecords) {
  std::vector<LogRecord> records;
  Logger::SetSink([&records](const LogRecord& r) { records.push_back(r); });
  Logger::SetLevel(LogLevel::kInfo);
  SQM_LOG(kWarning) << "captured " << 7;

  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].level, LogLevel::kWarning);
  EXPECT_EQ(records[0].message, "captured 7");
}

TEST_F(LoggingTest, NullSinkRestoresStderrDefault) {
  std::vector<LogRecord> records;
  Logger::SetSink([&records](const LogRecord& r) { records.push_back(r); });
  Logger::SetSink(nullptr);
  Logger::SetLevel(LogLevel::kInfo);
  ::testing::internal::CaptureStderr();
  SQM_LOG(kInfo) << "back to stderr";
  const std::string output = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(output.find("[INFO] back to stderr"), std::string::npos);
  EXPECT_TRUE(records.empty());
}

TEST_F(LoggingTest, ConcurrentLoggingKeepsRecordsWhole) {
  std::atomic<int> count{0};
  Logger::SetSink([&count](const LogRecord& r) {
    // Sinks run under the logger mutex: each record arrives complete.
    if (r.message == "thread message") count.fetch_add(1);
  });
  Logger::SetLevel(LogLevel::kInfo);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 50; ++i) SQM_LOG(kInfo) << "thread message";
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(count.load(), 8 * 50);
}

using LoggingDeathTest = LoggingTest;

TEST_F(LoggingDeathTest, FatalAborts) {
  EXPECT_DEATH(Logger::Log(LogLevel::kFatal, "boom"), "boom");
}

TEST_F(LoggingDeathTest, CheckFailureAborts) {
  EXPECT_DEATH(SQM_CHECK(false), "Check failed");
}

}  // namespace
}  // namespace sqm
