#ifndef SQM_TESTING_TAMPER_H_
#define SQM_TESTING_TAMPER_H_

#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "net/transport.h"

namespace sqm {
namespace testing {

/// Which directed traffic a tamper policy applies to (any party, a specific
/// link, a phase label, a round window).
struct TamperTarget {
  static constexpr size_t kAnyParty = std::numeric_limits<size_t>::max();

  size_t from = kAnyParty;
  size_t to = kAnyParty;
  /// Empty matches every phase; otherwise must equal the transport's phase
  /// label at send time ("input", "mul", "open", ...).
  std::string phase;
  uint64_t min_round = 0;
  uint64_t max_round = std::numeric_limits<uint64_t>::max();

  bool Matches(const MessageInterceptor::WireContext& context) const;
};

/// One composable man-in-the-middle behavior.
struct TamperPolicy {
  enum class Kind {
    /// Adds `magnitude` (mod p) to payload element `element` — a perturbed
    /// share.
    kAdditive,
    /// XORs bit `bit` of payload element `element` — wire corruption.
    kBitFlip,
    /// Adds magnitude * alpha_to^degree to the targeted element, turning a
    /// degree-t dealing into a consistent higher-degree polynomial when
    /// applied across a dealer's whole fan-out (wrong-degree dealing).
    kWrongDegree,
    /// Adds magnitude * alpha_to to the targeted element, so different
    /// recipients see different values for the same logical broadcast
    /// (equivocation).
    kEquivocate,
    /// Duplicates the message: an identical copy is enqueued right behind
    /// the original.
    kReplay,
    /// Swallows the message entirely (targeted loss with no retransmit).
    kSwallow,
  };

  Kind kind = Kind::kAdditive;
  TamperTarget target;

  /// Index of the payload element to corrupt (clamped to the payload).
  size_t element = 0;
  /// Field offset for kAdditive/kWrongDegree/kEquivocate.
  uint64_t magnitude = 1;
  /// Bit index for kBitFlip (0..63; bits >= 61 overflow the field range,
  /// which checked decodes must also survive).
  unsigned bit = 0;
  /// Polynomial degree for kWrongDegree (use threshold+1 or higher to
  /// exceed the scheme's degree).
  size_t degree = 0;

  /// How many matching messages to tamper before going dormant.
  /// The default 1 is the "single-message tamper" of the conformance
  /// property; kAnyCount never disarms.
  static constexpr size_t kAnyCount = std::numeric_limits<size_t>::max();
  size_t max_applications = 1;
  /// Number of matching messages to let through untouched before the first
  /// application (pick the k-th matching message).
  size_t skip_matches = 0;
};

const char* TamperKindToString(TamperPolicy::Kind kind);

/// One tampering the interceptor actually performed, for test assertions
/// and failure repro logs.
struct TamperRecord {
  TamperPolicy::Kind kind = TamperPolicy::Kind::kAdditive;
  size_t policy_index = 0;
  size_t from = 0;
  size_t to = 0;
  uint64_t round = 0;
  std::string phase;
  size_t element = 0;
};

/// Man-in-the-middle Transport decorator: applies an ordered list of
/// TamperPolicies to every matching wire message. Attach with
/// Transport::SetInterceptor. Thread-safe (senders on different threads
/// may call OnSend concurrently); deterministic given the send order.
class ByzantineInterceptor : public MessageInterceptor {
 public:
  ByzantineInterceptor() = default;
  explicit ByzantineInterceptor(std::vector<TamperPolicy> policies)
      : policies_(std::move(policies)),
        matches_seen_(policies_.size(), 0),
        applications_(policies_.size(), 0) {}

  /// Adds a policy (before the run; not thread-safe against OnSend).
  void AddPolicy(TamperPolicy policy);

  SendVerdict OnSend(const WireContext& context,
                     std::vector<uint64_t>& payload) override;

  /// Total tamperings performed across all policies.
  size_t total_applications() const;
  /// Tamperings performed by policy `i`.
  size_t applications(size_t i) const;
  /// Everything the interceptor did, in send order.
  std::vector<TamperRecord> log() const;

  /// Re-arms every policy and clears the log (for the next iteration of a
  /// fuzz sweep).
  void ResetCounters();

 private:
  std::vector<TamperPolicy> policies_;

  mutable std::mutex mu_;
  std::vector<size_t> matches_seen_;
  std::vector<size_t> applications_;
  std::vector<TamperRecord> log_;
};

}  // namespace testing
}  // namespace sqm

#endif  // SQM_TESTING_TAMPER_H_
