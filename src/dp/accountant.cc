#include "dp/accountant.h"

#include <cmath>
#include <limits>

#include "core/logging.h"
#include "dp/gaussian.h"
#include "dp/rdp.h"
#include "dp/skellam.h"
#include "obs/obs.h"

namespace sqm {
namespace {

/// Per-event RDP at integer order alpha, with subsampling amplification
/// applied when the event is sampled.
double EventRdp(const PrivacyEvent& event, size_t alpha) {
  double per_round;
  if (event.sampling_rate >= 1.0) {
    per_round = event.rdp(static_cast<double>(alpha));
  } else {
    per_round = SubsampledRdp(alpha, event.sampling_rate, [&](size_t l) {
      return event.rdp(static_cast<double>(l));
    });
  }
  return static_cast<double>(event.count) * per_round;
}

}  // namespace

void PrivacyAccountant::SetLedgerContext(double delta, double gamma,
                                         size_t dimension) {
  ledger_delta_ = delta;
  ledger_gamma_ = gamma;
  ledger_dimension_ = dimension;
}

void PrivacyAccountant::RecordLedgerEntry(obs::LedgerEntry entry) {
  entry.gamma = ledger_gamma_;
  entry.dimension = ledger_dimension_;
  if (ledger_delta_ > 0.0 && ledger_delta_ < 1.0 && !events_.empty()) {
    const PrivacyEvent& event = events_.back();
    const auto standalone = [&event](double alpha) {
      return EventRdp(event, static_cast<size_t>(alpha));
    };
    const PrivacyGuarantee guarantee =
        GuaranteeFromCurve(standalone, DefaultAlphaGrid(), ledger_delta_);
    entry.epsilon = guarantee.epsilon;
    entry.delta = ledger_delta_;
    entry.best_alpha = guarantee.best_alpha;
    const auto cumulative = [this](double alpha) {
      return TotalRdp(static_cast<size_t>(alpha));
    };
    entry.cumulative_epsilon =
        BestEpsilonFromCurve(cumulative, DefaultAlphaGrid(), ledger_delta_);
  }
  entry.sequence = ledger_.size();
  entry.elapsed_seconds = static_cast<double>(obs::NowMicros()) * 1e-6;
  if (obs::Enabled()) obs::PrivacyLedger::Global().Append(entry);
  ledger_.push_back(std::move(entry));
}

void PrivacyAccountant::AddGaussian(const std::string& label,
                                    double l2_sensitivity, double sigma,
                                    double sampling_rate, size_t count) {
  SQM_CHECK(sigma > 0.0 && count >= 1);
  PrivacyEvent event;
  event.label = label;
  event.rdp = [l2_sensitivity, sigma](double alpha) {
    return GaussianRdp(alpha, l2_sensitivity, sigma);
  };
  event.sampling_rate = sampling_rate;
  event.count = count;
  events_.push_back(std::move(event));

  obs::LedgerEntry entry;
  entry.mechanism = "gaussian";
  entry.label = label;
  entry.mu = sigma;
  entry.l2_sensitivity = l2_sensitivity;
  entry.sampling_rate = sampling_rate;
  entry.count = count;
  RecordLedgerEntry(std::move(entry));
}

void PrivacyAccountant::AddSkellam(const std::string& label,
                                   double l1_sensitivity,
                                   double l2_sensitivity, double mu,
                                   double sampling_rate, size_t count) {
  SQM_CHECK(mu > 0.0 && count >= 1);
  PrivacyEvent event;
  event.label = label;
  event.rdp = [l1_sensitivity, l2_sensitivity, mu](double alpha) {
    return SkellamRdp(alpha, l1_sensitivity, l2_sensitivity, mu);
  };
  event.sampling_rate = sampling_rate;
  event.count = count;
  events_.push_back(std::move(event));

  obs::LedgerEntry entry;
  entry.mechanism = "skellam";
  entry.label = label;
  entry.mu = mu;
  entry.l1_sensitivity = l1_sensitivity;
  entry.l2_sensitivity = l2_sensitivity;
  entry.sampling_rate = sampling_rate;
  entry.count = count;
  RecordLedgerEntry(std::move(entry));
}

void PrivacyAccountant::AddEvent(PrivacyEvent event) {
  SQM_CHECK(event.rdp != nullptr);
  SQM_CHECK(event.count >= 1);
  SQM_CHECK(event.sampling_rate > 0.0 && event.sampling_rate <= 1.0);
  obs::LedgerEntry entry;
  entry.mechanism = "custom";
  entry.label = event.label;
  entry.sampling_rate = event.sampling_rate;
  entry.count = event.count;
  events_.push_back(std::move(event));
  RecordLedgerEntry(std::move(entry));
}

double PrivacyAccountant::TotalRdp(size_t alpha) const {
  SQM_CHECK(alpha >= 2);
  double total = 0.0;
  for (const PrivacyEvent& event : events_) {
    total += EventRdp(event, alpha);
  }
  return total;
}

Result<double> PrivacyAccountant::TotalEpsilon(double delta) const {
  if (delta <= 0.0 || delta >= 1.0) {
    return Status::InvalidArgument("delta must be in (0, 1)");
  }
  if (events_.empty()) return 0.0;
  const auto curve = [this](double alpha) {
    return TotalRdp(static_cast<size_t>(alpha));
  };
  return BestEpsilonFromCurve(curve, DefaultAlphaGrid(), delta);
}

Result<PrivacyGuarantee> PrivacyAccountant::TotalGuarantee(
    double delta) const {
  if (delta <= 0.0 || delta >= 1.0) {
    return Status::InvalidArgument("delta must be in (0, 1)");
  }
  PrivacyGuarantee guarantee;
  guarantee.delta = delta;
  if (events_.empty()) return guarantee;
  const auto curve = [this](double alpha) {
    return TotalRdp(static_cast<size_t>(alpha));
  };
  return GuaranteeFromCurve(curve, DefaultAlphaGrid(), delta);
}

Result<size_t> PrivacyAccountant::RemainingRepetitions(
    const PrivacyEvent& event, double target_epsilon, double delta,
    size_t max_repetitions) const {
  if (target_epsilon <= 0.0) {
    return Status::InvalidArgument("target_epsilon must be positive");
  }
  if (event.rdp == nullptr) {
    return Status::InvalidArgument("event has no RDP curve");
  }
  SQM_ASSIGN_OR_RETURN(const double base_eps, TotalEpsilon(delta));
  if (base_eps > target_epsilon) return size_t{0};

  const auto epsilon_with = [&](size_t k) -> double {
    if (k == 0) return base_eps;
    const auto curve = [&](double alpha) {
      PrivacyEvent scaled = event;
      scaled.count = event.count * k;
      return TotalRdp(static_cast<size_t>(alpha)) +
             EventRdp(scaled, static_cast<size_t>(alpha));
    };
    return BestEpsilonFromCurve(curve, DefaultAlphaGrid(), delta);
  };

  // Exponential probe then binary search on the monotone epsilon(k).
  size_t hi = 1;
  while (hi < max_repetitions && epsilon_with(hi) <= target_epsilon) {
    hi *= 2;
  }
  if (hi >= max_repetitions &&
      epsilon_with(max_repetitions) <= target_epsilon) {
    return max_repetitions;
  }
  size_t lo = hi / 2;  // epsilon_with(lo) <= target (or lo == 0).
  while (lo + 1 < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (epsilon_with(mid) <= target_epsilon) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void PrivacyAccountant::Reset() {
  events_.clear();
  ledger_.clear();
}

}  // namespace sqm
