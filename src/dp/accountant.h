#ifndef SQM_DP_ACCOUNTANT_H_
#define SQM_DP_ACCOUNTANT_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/status.h"
#include "dp/rdp.h"
#include "obs/ledger.h"

namespace sqm {

/// A privacy event: one mechanism release described by its RDP curve
/// alpha -> tau(alpha), optionally repeated `count` times (composition) and
/// optionally amplified by Poisson subsampling at rate q.
struct PrivacyEvent {
  std::string label;
  /// Base RDP curve at integer orders (must be defined for alpha >= 2).
  std::function<double(double)> rdp;
  /// Poisson sampling rate; 1.0 = no subsampling.
  double sampling_rate = 1.0;
  /// Number of sequential repetitions of this event.
  size_t count = 1;
};

/// Composes heterogeneous DP mechanisms under Rényi accounting — the
/// bookkeeping a deployment needs when SQM releases (PCA one-shot, LR
/// training loops, baselines) share one privacy budget.
///
/// Each tracked event contributes count * amplify(rdp, q)(alpha) at every
/// order alpha (Lemmas 10 and 11); TotalEpsilon converts the summed curve
/// to (epsilon, delta) via Lemma 9, optimizing over the integer alpha grid.
class PrivacyAccountant {
 public:
  PrivacyAccountant() = default;

  /// Tracks a Gaussian release with the given L2 sensitivity and noise std.
  void AddGaussian(const std::string& label, double l2_sensitivity,
                   double sigma, double sampling_rate = 1.0,
                   size_t count = 1);

  /// Tracks a Skellam release (Lemma 1) with L1/L2 sensitivities and noise
  /// parameter mu.
  void AddSkellam(const std::string& label, double l1_sensitivity,
                  double l2_sensitivity, double mu,
                  double sampling_rate = 1.0, size_t count = 1);

  /// Tracks an arbitrary RDP curve.
  void AddEvent(PrivacyEvent event);

  /// Context stamped onto subsequent ledger entries: the delta at which
  /// each spend's standalone and cumulative epsilon are computed (0 leaves
  /// them unevaluated), plus the quantization scale and release dimension
  /// of the surrounding run. The SQM driver sets this before charging.
  void SetLedgerContext(double delta, double gamma = 0.0,
                        size_t dimension = 0);

  /// Spend timeline mirroring events(): one obs::LedgerEntry per Add*
  /// call, with mechanism parameters and (when a ledger delta is set) the
  /// standalone and cumulative epsilon at that point. Always recorded
  /// locally; also forwarded to obs::PrivacyLedger::Global() while the
  /// observability switch is on.
  const std::vector<obs::LedgerEntry>& ledger() const { return ledger_; }

  size_t num_events() const { return events_.size(); }
  const std::vector<PrivacyEvent>& events() const { return events_; }

  /// Total RDP of everything tracked so far, at integer order alpha >= 2.
  double TotalRdp(size_t alpha) const;

  /// Total (epsilon, delta) guarantee; delta in (0, 1).
  Result<double> TotalEpsilon(double delta) const;

  /// Like TotalEpsilon, but also reports the minimizing Rényi order — the
  /// form SqmReport records for BGW releases.
  Result<PrivacyGuarantee> TotalGuarantee(double delta) const;

  /// Remaining repetitions of `event` that fit a target epsilon: the
  /// largest k such that the tracked events plus k copies of `event` stay
  /// within (target_epsilon, delta). Returns 0 when even the tracked
  /// events exceed the target. Useful for "how many more training rounds
  /// can I afford" queries.
  Result<size_t> RemainingRepetitions(const PrivacyEvent& event,
                                      double target_epsilon,
                                      double delta,
                                      size_t max_repetitions = 100000) const;

  /// Drops all tracked events (and the local ledger mirror).
  void Reset();

 private:
  /// Completes a ledger entry for the event just pushed onto events_:
  /// stamps context, computes the standalone and cumulative epsilon when a
  /// ledger delta is configured, and forwards to the global ledger when
  /// observability is enabled.
  void RecordLedgerEntry(obs::LedgerEntry entry);

  std::vector<PrivacyEvent> events_;
  std::vector<obs::LedgerEntry> ledger_;
  double ledger_delta_ = 0.0;
  double ledger_gamma_ = 0.0;
  size_t ledger_dimension_ = 0;
};

}  // namespace sqm

#endif  // SQM_DP_ACCOUNTANT_H_
