#ifndef SQM_TESTING_TRANSCRIPT_H_
#define SQM_TESTING_TRANSCRIPT_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "net/lockstep.h"
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
/// send order. Driver-mode runs produce the same global order under every
/// transport, which is what makes transcript equality a fuzz invariant and
/// replay bit-exact.
struct Transcript {
  size_t num_parties = 0;
  std::vector<TranscriptEntry> entries;
};

/// Serializes a transcript to JSON; payload elements round-trip exactly
/// (field elements exceed double precision, so the parser's integer path
/// matters here).
std::string TranscriptToJson(const Transcript& transcript);
Result<Transcript> TranscriptFromJson(const std::string& json);

/// First divergence between two transcripts.
struct TranscriptDiff {
  bool identical = true;
  size_t first_divergence = 0;  ///< Entry index (min size when lengths differ).
  std::string description;      ///< Human-readable divergence summary.
};

TranscriptDiff CompareTranscripts(const Transcript& a, const Transcript& b);

/// MessageInterceptor that captures every cross-party message. Chain a
/// ByzantineInterceptor in front (Chain) to record the on-the-wire truth
/// *after* tampering: swallowed messages are not recorded, replays are
/// recorded as separate entries. Thread-safe; entries are globally ordered
/// by the interceptor's own lock (concurrent sends are recorded in their
/// serialization order).
class TranscriptRecorder : public MessageInterceptor {
 public:
  explicit TranscriptRecorder(size_t num_parties) {
    transcript_.num_parties = num_parties;
  }

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

/// Feeds a recorded transcript back into a LockstepTransport: every entry
/// is enqueued on its original channel with its original phase label, with
/// EndRound() reproducing the original round boundaries. After replay, a
/// consumer draining the open-phase broadcasts reconstructs the released
/// values bit-exactly — the repro path for schedule-fuzz failures.
/// Fails when the transport's party count does not match.
Status ReplayIntoLockstep(const Transcript& transcript,
                          LockstepTransport* transport);

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

  /// Two-sample test: are the coalition's views under two different input
  /// databases distinguishable? (They must not be, below threshold.)
  Result<ChiSquareResult> CompareViews(
      const Transcript& a, const Transcript& b,
      const std::vector<size_t>& coalition) const;

 private:
  Options options_;
};

}  // namespace testing
}  // namespace sqm

#endif  // SQM_TESTING_TRANSCRIPT_H_
