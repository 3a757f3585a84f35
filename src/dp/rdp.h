#ifndef SQM_DP_RDP_H_
#define SQM_DP_RDP_H_

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"

namespace sqm {

/// Rényi-DP accounting toolkit (Appendix A of the paper).
///
/// All guarantees in the library are derived as RDP curves
/// alpha -> tau(alpha) and converted to classical (epsilon, delta)-DP at
/// reporting time, exactly as the paper does.

/// Converts an (alpha, tau)-RDP guarantee to epsilon at the given delta
/// (Lemma 9, Canonne-Kamath-Steinke conversion). Requires alpha > 1.
double RdpToEpsilon(double alpha, double tau, double delta);

/// Minimizes RdpToEpsilon over a curve tau(alpha) evaluated at `alphas`.
/// Returns the best epsilon; if `best_alpha` is non-null, stores the
/// minimizing order.
double BestEpsilonFromCurve(const std::function<double(double)>& tau_of_alpha,
                            const std::vector<double>& alphas, double delta,
                            double* best_alpha = nullptr);

/// A fully resolved classical guarantee, with the Rényi order that
/// produced it — what a report or a degraded-mode recomputation records.
struct PrivacyGuarantee {
  double epsilon = 0.0;
  double delta = 0.0;
  double best_alpha = 0.0;
};

/// BestEpsilonFromCurve packaged as a PrivacyGuarantee.
PrivacyGuarantee GuaranteeFromCurve(
    const std::function<double(double)>& tau_of_alpha,
    const std::vector<double>& alphas, double delta);

/// Default integer grid of Rényi orders 2..128 used by the calibrators and
/// the accountant. One shared instance, built on first use.
const std::vector<double>& DefaultAlphaGrid();

/// Bisection on a predicate that is true below some threshold and false
/// above it, with above(hi) false: each step sets lo or hi to
/// mid = 0.5 * (lo + hi) and returns hi after `max_steps` steps. A step that
/// leaves (lo, hi) unchanged has reached a fixed point, since every later
/// step would compute the same mid and take the same branch, so the search
/// stops there and returns exactly the double the full run would. That
/// takes about 53 + log2(hi / result) steps: 55 for the calibrators.
double BisectDecreasing(double lo, double hi, size_t max_steps,
                        const std::function<bool(double)>& above);

/// The bracket before a BisectDecreasing: multiplies hi by `growth` until
/// above(hi) is false and returns it, or kInternal "<what> bracket
/// expansion failed" when above(hi) still holds after `max_growths` growths.
Result<double> GrowBracket(double hi, double growth, size_t max_growths,
                           const std::string& what,
                           const std::function<bool(double)>& above);

/// The calibrators' question "is BestEpsilonFromCurve(tau, DefaultAlphaGrid(),
/// delta) above the target epsilon?", asked once per bisection step. Each
/// order's Lemma 9 offset RdpToEpsilon(alpha, 0, delta) is computed once.
class EpsilonTarget {
 public:
  /// kInvalidArgument, prefixed by `who`, unless epsilon > 0, delta is in
  /// (0, 1) and epsilon lies above the grid's floor: even tau = 0 at every
  /// order converts to 0.0446 at delta = 1e-5, so no noise reaches less.
  static Result<EpsilonTarget> Make(const std::string& who, double epsilon,
                                    double delta);

  /// The same decision as BestEpsilonFromCurve(tau_of_alpha, ...) > epsilon,
  /// bit for bit: tau + offset is the double RdpToEpsilon returns, and the
  /// scan stops at the first order whose finite tau meets the target.
  bool MissedBy(const std::function<double(double)>& tau_of_alpha) const;

 private:
  EpsilonTarget(double epsilon, std::vector<double> offsets)
      : epsilon_(epsilon), offsets_(std::move(offsets)) {}

  double epsilon_;
  std::vector<double> offsets_;  // offsets_[i] belongs to DefaultAlphaGrid()[i]
};

/// Composition (Lemma 10): tau values at a common alpha add up.
double ComposeRdp(const std::vector<double>& taus);

/// Privacy amplification by Poisson subsampling (Lemma 11, Mironov et al.).
///
/// `alpha` must be an integer >= 2. `tau_at_order(l)` must return the
/// un-amplified RDP bound of the base mechanism at integer order l, for
/// l = 2..alpha. `q` is the per-record sampling probability. Computed in
/// log-space so it stays finite even when the inner taus are large.
double SubsampledRdp(size_t alpha, double q,
                     const std::function<double(size_t)>& tau_at_order);

/// `rounds` compositions of Lemma 11 at every order of `alphas` (integers
/// >= 2, ascending), for one q and a base mechanism whose noise changes
/// between scans (a calibrator's bisection). The tau-free part of each log
/// term, log[C(alpha, l) (1-q)^{alpha-l} q^l], is computed at construction
/// and the base taus once per SetBase, so each order then costs one
/// log-sum-exp. SubsampledRdp is this curve on one order, so both return
/// the same doubles. Not thread-safe: operator() writes a scratch buffer.
class SubsampledCurve {
 public:
  SubsampledCurve(double q, size_t rounds,
                  const std::vector<double>& alphas = DefaultAlphaGrid());

  /// Tabulates tau_at_order(l) for l = 2..max(alphas); returns *this.
  const SubsampledCurve& SetBase(
      const std::function<double(size_t)>& tau_at_order);

  /// The composed subsampled RDP at an order of `alphas`.
  double operator()(double alpha) const;

 private:
  double q_;
  double rounds_;
  std::vector<std::vector<double>> log_terms_;  // indexed by alpha
  std::vector<double> taus_;                    // indexed by order l
  mutable std::vector<double> terms_;           // scratch
};

/// log(n choose k) via lgamma.
double LogBinomial(size_t n, size_t k);

/// Numerically stable log(sum(exp(x_i))).
double LogSumExp(const std::vector<double>& xs);

}  // namespace sqm

#endif  // SQM_DP_RDP_H_
