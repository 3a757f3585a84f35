#ifndef SQM_TESTING_TRANSCRIPT_H_
#define SQM_TESTING_TRANSCRIPT_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "net/transport.h"
#include "testing/stat_check.h"

namespace sqm {
namespace testing {

/// One wire message as it actually crossed the network (post-tamper when a
/// ByzantineInterceptor ran first in the chain).
struct TranscriptEntry {
  uint64_t round = 0;  ///< Communication rounds completed at send time.
  std::string phase;
  size_t from = 0;
  size_t to = 0;
  std::vector<uint64_t> payload;

  bool operator==(const TranscriptEntry& other) const {
    return round == other.round && phase == other.phase &&
           from == other.from && to == other.to && payload == other.payload;
  }
};

/// Everything that crossed the wire in one protocol execution, in global
/// send order. A driver-mode run's order is a function of its seeds, so two
/// runs from the same seed record equal `entries`.
struct Transcript {
  std::vector<TranscriptEntry> entries;
};

/// MessageInterceptor that captures every cross-party message. Chain a
/// ByzantineInterceptor in front (Chain) to record the on-the-wire truth
/// *after* tampering: swallowed messages are not recorded, replays are
/// recorded as separate entries. Thread-safe; entries are globally ordered
/// by the interceptor's own lock (concurrent sends are recorded in their
/// serialization order).
class TranscriptRecorder : public MessageInterceptor {
 public:
  /// Runs `next` (non-owning, may be nullptr) before recording — the
  /// tamper-then-record composition.
  void Chain(MessageInterceptor* next) { next_ = next; }

  SendVerdict OnSend(const WireContext& context,
                     std::vector<uint64_t>& payload) override;

  Transcript transcript() const;
  size_t size() const;
  void Clear();

 private:
  MessageInterceptor* next_ = nullptr;
  mutable std::mutex mu_;
  Transcript transcript_;
};

/// Statistical transcript-privacy verifier, generalizing
/// tests/mpc_privacy_test.cc: everything a small coalition receives from
/// honest parties must be statistically uniform over the field — shares
/// below the threshold carry no information. Bins field elements by top
/// bits and chi-square-tests against uniform.
class TranscriptPrivacyVerifier {
 public:
  struct Options {
    size_t bins = 16;
    /// Reject threshold: p-values below this fail. Far below any plausible
    /// test-flakiness level; a genuinely non-uniform view lands at ~0.
    double min_p_value = 1e-9;
  };

  TranscriptPrivacyVerifier() = default;
  explicit TranscriptPrivacyVerifier(Options options) : options_(options) {}

  /// Every payload element of messages received by a coalition member from
  /// a non-member.
  static std::vector<uint64_t> CoalitionView(
      const Transcript& transcript, const std::vector<size_t>& coalition);

  /// Chi-square of the coalition's received elements against uniform.
  Result<ChiSquareResult> VerifyUniform(
      const Transcript& transcript,
      const std::vector<size_t>& coalition) const;

  /// Pass/fail wrapper: kIntegrityViolation with the p-value when the view
  /// is distinguishable from uniform.
  Status CheckCoalitionUniform(const Transcript& transcript,
                               const std::vector<size_t>& coalition) const;

 private:
  Options options_;
};

}  // namespace testing
}  // namespace sqm

#endif  // SQM_TESTING_TRANSCRIPT_H_
