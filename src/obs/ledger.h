#ifndef SQM_OBS_LEDGER_H_
#define SQM_OBS_LEDGER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/sync.h"
#include "obs/obs.h"

namespace sqm::obs {

/// One privacy spend: a mechanism release the accountant was charged for,
/// with enough context (noise parameter, quantization scale) to audit the
/// run's privacy story after the fact. Entries are
/// report data — they are recorded regardless of the kill switch (the
/// switch only gates forwarding to the global ledger singleton).
struct LedgerEntry {
  uint64_t sequence = 0;          ///< Global monotone id (stamped on append).
  double elapsed_seconds = 0.0;   ///< Seconds on the trace clock (NowMicros).
  std::string mechanism;  ///< "gaussian" | "skellam" | "custom".
  std::string label;      ///< Caller context, e.g. "sqm_release".

  double mu = 0.0;      ///< Noise parameter (sigma for gaussian, mu for Skellam).
  double gamma = 0.0;   ///< Quantization scale in effect, 0 when not applicable.
  size_t dimension = 0; ///< Released vector dimension, 0 when unknown.
  double l1_sensitivity = 0.0;
  double l2_sensitivity = 0.0;
  double sampling_rate = 1.0;
  uint64_t count = 1;   ///< Sequential repetitions charged at once.

  double epsilon = 0.0;     ///< Standalone (epsilon, delta) of this spend.
  double delta = 0.0;       ///< 0 when no delta context was configured.
  double best_alpha = 0.0;  ///< Minimizing Renyi order for the standalone bound.
  double cumulative_epsilon = 0.0;  ///< Accountant total after this entry.
};

/// Process-wide, thread-safe timeline of privacy spends. PrivacyAccountant
/// forwards every Add* here when the kill switch is on; tests and tools
/// query it as an event stream ordered by sequence number.
class PrivacyLedger {
 public:
  static PrivacyLedger& Global();

  /// Stamps sequence + elapsed time and appends. Returns the sequence.
  uint64_t Append(LedgerEntry entry);

  std::vector<LedgerEntry> Entries() const;

  /// Entries with sequence >= `sequence` — incremental consumption.
  std::vector<LedgerEntry> EntriesSince(uint64_t sequence) const;

  size_t size() const;

  /// Sequence the next Append will get; pass to EntriesSince later to read
  /// only what a bracketed operation spent.
  uint64_t NextSequence() const;

  /// Drops buffered entries. Sequence numbers keep increasing so
  /// EntriesSince cursors held across a Clear stay valid.
  void Clear();

 private:
  mutable Mutex mu_;
  std::vector<LedgerEntry> entries_ SQM_GUARDED_BY(mu_);
  uint64_t next_sequence_ SQM_GUARDED_BY(mu_) = 0;
};

}  // namespace sqm::obs

#endif  // SQM_OBS_LEDGER_H_
