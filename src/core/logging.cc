#include "core/logging.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <utility>
#include <vector>

namespace sqm {
namespace {

std::atomic<int> g_level{static_cast<int>(LogLevel::kInfo)};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}

/// Mutable logger state behind one mutex: sink and fatal hooks.
/// Heap-allocated and never destroyed so logging from detached threads
/// during process exit stays safe.
struct LoggerState {
  std::mutex mu;
  LogSink sink;  // Null: default stderr sink.
  std::vector<std::function<void()>> fatal_hooks;
};

LoggerState& State() {
  static LoggerState* state = new LoggerState();
  return *state;
}

void DefaultSink(const LogRecord& record) {
  // One formatted line composed up front, emitted with a single fwrite so
  // concurrent parties cannot interleave bytes.
  std::string line = "[";
  line += LevelName(record.level);
  line += "] ";
  line += record.message;
  line += '\n';
  std::fwrite(line.data(), 1, line.size(), stderr);
  std::fflush(stderr);
}

void Dispatch(const LogRecord& record) {
  LoggerState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.sink) {
    state.sink(record);
  } else {
    DefaultSink(record);
  }
}

void RunFatalHooks() {
  // Recursion guard: a hook that itself hits a fatal condition must not
  // re-enter the hook list.
  static std::atomic<bool> ran{false};
  if (ran.exchange(true)) return;
  std::vector<std::function<void()>> hooks;
  {
    LoggerState& state = State();
    std::lock_guard<std::mutex> lock(state.mu);
    hooks = state.fatal_hooks;
  }
  for (const auto& hook : hooks) hook();
}

}  // namespace

void Logger::SetLevel(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel Logger::GetLevel() {
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

void Logger::SetSink(LogSink sink) {
  LoggerState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  state.sink = std::move(sink);
}

void Logger::AddFatalHook(std::function<void()> hook) {
  LoggerState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  state.fatal_hooks.push_back(std::move(hook));
}

void Logger::Log(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) >= g_level.load(std::memory_order_relaxed)) {
    Dispatch(LogRecord{level, message});
  }
  if (level == LogLevel::kFatal) {
    RunFatalHooks();
    std::abort();
  }
}

namespace internal {

void CheckFailed(const char* file, int line, const char* expression) {
  std::string message = "Check failed: ";
  message += expression;
  message += " at ";
  message += file;
  message += ":";
  message += std::to_string(line);
  Logger::Log(LogLevel::kFatal, message);
  std::abort();  // Unreachable: Log aborts on kFatal.
}

}  // namespace internal

}  // namespace sqm
