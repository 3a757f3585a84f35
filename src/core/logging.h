#ifndef SQM_CORE_LOGGING_H_
#define SQM_CORE_LOGGING_H_

#include <functional>
#include <sstream>
#include <string>

namespace sqm {

/// Severity levels for the library logger, lowest to highest.
enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kFatal = 4,
};

/// One log emission, as handed to sinks.
struct LogRecord {
  LogLevel level = LogLevel::kInfo;
  std::string message;
};

/// A pluggable destination for log records. Sinks are called under the
/// logger mutex, so each record is emitted exactly once and whole —
/// concurrent party threads can no longer interleave bytes within a line.
using LogSink = std::function<void(const LogRecord&)>;

/// Thread-safe logger. Messages at or above the global level go to the
/// installed sink — by default one atomic "[LEVEL] message" line on stderr.
/// kFatal runs the registered fatal hooks (e.g. the tracer's crash flush)
/// and aborts. Benchmarks and tests raise the threshold to keep output
/// clean.
class Logger {
 public:
  /// Sets the global minimum severity that will be emitted.
  static void SetLevel(LogLevel level);
  static LogLevel GetLevel();

  /// Replaces the output sink; a null sink restores the default stderr
  /// sink. The sink runs under the logger mutex — keep it fast.
  static void SetSink(LogSink sink);

  /// Registers a hook run (once each) on the fatal path before abort.
  /// Used by obs::Tracer to flush the active trace from crashes.
  static void AddFatalHook(std::function<void()> hook);

  /// Emits one formatted line ("[LEVEL] message"). Aborts on kFatal.
  static void Log(LogLevel level, const std::string& message);
};

namespace internal {

/// Stream-style accumulator used by the SQM_LOG macro; flushes on
/// destruction.
class LogMessage {
 public:
  explicit LogMessage(LogLevel level) : level_(level) {}
  ~LogMessage() { Logger::Log(level_, stream_.str()); }

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Fatal path of SQM_CHECK: one atomic write carrying the failed
/// expression and location, fatal hooks (trace flush), then abort.
[[noreturn]] void CheckFailed(const char* file, int line,
                              const char* expression);

}  // namespace internal

/// Usage: SQM_LOG(kInfo) << "epoch " << e << " done";
#define SQM_LOG(severity) \
  ::sqm::internal::LogMessage(::sqm::LogLevel::severity)

/// Precondition check that survives release builds. On failure, emits the
/// failed expression and location in one atomic write, flushes the active
/// trace buffer (via the logger's fatal hooks), and aborts. The statement
/// form is safe in an unbraced if/else, and the compiler knows execution
/// does not continue past a failed check. Use for programmer errors, not
/// data errors.
#define SQM_CHECK(condition)                                  \
  do {                                                        \
    if (!(condition)) {                                       \
      ::sqm::internal::CheckFailed(__FILE__, __LINE__,        \
                                   #condition);               \
    }                                                         \
  } while (false)

}  // namespace sqm

#endif  // SQM_CORE_LOGGING_H_
