#include "core/sqm_plan.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dp/accountant.h"
#include "dp/skellam.h"
#include "mpc/field.h"
#include "obs/trace.h"
#include "sampling/skellam_sampler.h"

// The RNG split schedule of one release. From Rng(options.seed), in order:
//   Split(0x0c0eff)     coefficient rounding (quantize_coefficients only)
//   Split(0xda7a)       data rounding; its Split(col) rounds column col
//   Split(0x4015e + j)  client j's Sk(mu/n) noise share
// and as separate roots:
//   seed ^ 0xb9d7       BGW sharing randomness (Split(j) per party, inside
//                       BgwProtocol / PartyProtocol)
//   seed ^ 0x70b        top-up noise, Split(j) per survivor j in order
// Splits consume parent draws but never data, so deriving every stream up
// front equals replaying the splits where the streams are used — which is
// what lets one party hold exactly the values driver mode assigns it.
// Changing this schedule changes every release and every golden pin.

namespace sqm {
namespace {

double SecondsSince(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// quantize_coefficients=false (PCA-style, Section V-A): the coefficients
/// already are integers of a single-degree polynomial; keep them and
/// down-scale by gamma^lambda only.
Result<QuantizedPolynomial> KeepIntegerCoefficients(const PolynomialVector& f,
                                                    double gamma) {
  QuantizedPolynomial qf;
  qf.degree = f.Degree();
  qf.output_scale = std::pow(gamma, static_cast<double>(qf.degree));
  qf.dims.resize(f.output_dim());
  for (size_t t = 0; t < f.output_dim(); ++t) {
    for (const Monomial& term : f.dims()[t].terms()) {
      if (term.Degree() != f.Degree()) {
        return Status::InvalidArgument(
            "quantize_coefficients=false requires all monomials to have "
            "the polynomial's degree");
      }
      const double c = term.coefficient();
      if (c != std::floor(c)) {
        return Status::InvalidArgument(
            "quantize_coefficients=false requires integer coefficients");
      }
      QuantizedMonomial qm;
      qm.coefficient = static_cast<int64_t>(c);
      qm.exponents = term.exponents();
      qf.dims[t].push_back(std::move(qm));
    }
  }
  return qf;
}

}  // namespace

Result<SqmPlan> SqmPlan::Create(const PolynomialVector& f,
                                const SqmOptions& options, size_t rows,
                                size_t cols) {
  if (f.output_dim() == 0) {
    return Status::InvalidArgument("polynomial has no output dimensions");
  }
  if (f.MinArity() > cols) {
    return Status::InvalidArgument(
        "polynomial references more variables than the database has columns");
  }
  if (rows == 0) {
    return Status::InvalidArgument("empty database");
  }
  const size_t num_clients =
      options.num_clients == 0 ? cols : options.num_clients;
  if (num_clients < 2) {
    return Status::InvalidArgument(
        "SQM needs >= 2 clients (a single client is the centralized "
        "setting)");
  }
  if (num_clients > cols) {
    return Status::InvalidArgument(
        "more clients than columns: every client must own >= 1 column");
  }
  const bool bgw = options.backend == MpcBackend::kBgw;
  if (bgw && num_clients < 3) {
    return Status::InvalidArgument(
        "the BGW backend needs >= 3 clients (threshold < n/2 with "
        "threshold >= 1); use more columns/clients or the plaintext "
        "backend");
  }
  if (options.gamma < 1.0) {
    return Status::InvalidArgument("gamma must be >= 1");
  }
  if (options.mu < 0.0) {
    return Status::InvalidArgument("mu must be >= 0");
  }
  if (options.check_capacity) {
    SQM_RETURN_NOT_OK(CheckFieldCapacity(rows, options.gamma, f.Degree(),
                                         options.max_f_l2, options.mu));
  }

  SqmPlan plan(options);
  plan.rows_ = rows;
  plan.cols_ = cols;
  plan.num_clients_ = num_clients;
  if (bgw) {
    plan.threshold_ = options.bgw_threshold == 0 ? (num_clients - 1) / 2
                                                 : options.bgw_threshold;
    SQM_RETURN_NOT_OK(ShamirScheme::Validate(num_clients, plan.threshold_));
    // Turns the realized noise back into an honest (epsilon, delta).
    if (options.mu > 0.0) {
      plan.sensitivity_ = PolynomialSensitivity(
          f, options.gamma, options.record_norm_bound, options.max_f_l2,
          options.quantize_coefficients);
    }
  }

  const auto quantize_start = std::chrono::steady_clock::now();
  Rng root(options.seed);
  if (options.quantize_coefficients) {
    // Algorithm 3 lines 1-3. Coefficients are public, so every party
    // derives the same quantized polynomial.
    plan.coefficient_rng_ = root.Split(0x0c0eff);
    Rng coefficient_rng = plan.coefficient_rng_;
    SQM_ASSIGN_OR_RETURN(plan.qf_, QuantizePolynomial(f, options.gamma,
                                                      coefficient_rng));
  } else {
    SQM_ASSIGN_OR_RETURN(plan.qf_,
                         KeepIntegerCoefficients(f, options.gamma));
  }
  Rng data_rng = root.Split(0xda7a);
  for (size_t col = 0; col < cols; ++col) {
    plan.column_rngs_.push_back(data_rng.Split(col));
  }
  for (size_t j = 0; j < num_clients; ++j) {
    plan.noise_rngs_.push_back(root.Split(0x4015e + j));
  }
  plan.coefficient_seconds_ = SecondsSince(quantize_start);
  return plan;
}

std::pair<size_t, size_t> SqmPlan::ColumnRange(size_t j) const {
  const size_t base = cols_ / num_clients_;
  const size_t extra = cols_ % num_clients_;
  const size_t begin = j * base + std::min(j, extra);
  return {begin, begin + base + (j < extra ? 1 : 0)};
}

SqmPlan::Inputs SqmPlan::PrepareInputs(const Matrix& x,
                                       size_t client) const {
  Inputs inputs;
  inputs.db.rows = rows_;
  inputs.db.cols = cols_;
  inputs.db.columns.resize(cols_);
  inputs.noise.resize(num_clients_);
  const size_t first = client == kAllClients ? 0 : client;
  const size_t last = client == kAllClients ? num_clients_ : client + 1;

  // Algorithm 3 lines 4-5: a client rounds its own columns privately.
  const auto quantize_start = std::chrono::steady_clock::now();
  {
    obs::Span span("sqm.quantize", "sqm");
    for (size_t j = first; j < last; ++j) {
      const auto [begin, end] = ColumnRange(j);
      for (size_t col = begin; col < end; ++col) {
        Rng column_rng = column_rngs_[col];
        inputs.db.columns[col] =
            StochasticRoundVector(x.Col(col), options_.gamma, column_rng);
      }
    }
  }
  inputs.quantize_seconds = coefficient_seconds_ + SecondsSince(quantize_start);

  // Algorithm 3 lines 6-8: a client draws Sk(mu / n) per output dimension,
  // privately and before the MPC phase (which is what makes the mechanism
  // robust to timing attacks).
  const auto noise_start = std::chrono::steady_clock::now();
  {
    obs::Span span("sqm.noise_sample", "sqm");
    for (size_t j = first; j < last; ++j) {
      inputs.noise[j].assign(output_dim(), 0);
    }
    if (options_.mu > 0.0) {
      const SkellamSampler sampler(options_.mu /
                                   static_cast<double>(num_clients_));
      for (size_t j = first; j < last; ++j) {
        Rng noise_rng = noise_rngs_[j];
        inputs.noise[j] = sampler.SampleVector(noise_rng, output_dim());
      }
    }
  }
  inputs.noise_seconds = SecondsSince(noise_start);
  return inputs;
}

std::vector<int64_t> SqmPlan::CircuitInputs(const Inputs& inputs,
                                            size_t j) const {
  std::vector<int64_t> out;
  const auto [begin, end] = ColumnRange(j);
  for (size_t col = begin; col < end; ++col) {
    const std::vector<int64_t>& column = inputs.db.columns[col];
    out.insert(out.end(), column.begin(), column.end());
  }
  out.insert(out.end(), inputs.noise[j].begin(), inputs.noise[j].end());
  return out;
}

Circuit SqmPlan::BuildCircuit() const {
  const size_t d = output_dim();
  // Exact sizes: per output, its zero accumulator, then per row and term a
  // constant or MulConst (one constant each), the term's Muls and one Add,
  // then one Add per client's noise.
  size_t num_gates = rows_ * cols_ + num_clients_ * d;
  size_t num_constants = 0;
  for (size_t t = 0; t < d; ++t) {
    size_t per_row = 0;
    for (const QuantizedMonomial& term : qf_.dims[t]) {
      size_t degree = 0;
      for (const auto& [var, exp] : term.exponents) degree += exp;
      per_row += (degree > 0 ? degree - 1 : 0) + 2;
    }
    num_gates += 1 + rows_ * per_row + num_clients_;
    num_constants += 1 + rows_ * qf_.dims[t].size();
  }
  Circuit circuit;
  circuit.Reserve(num_gates, num_constants);
  std::vector<std::vector<Circuit::WireId>> column_wires(cols_);  // [col][row]
  std::vector<std::vector<Circuit::WireId>> noise_wires(num_clients_);
  for (size_t j = 0; j < num_clients_; ++j) {
    const auto [begin, end] = ColumnRange(j);
    for (size_t col = begin; col < end; ++col) {
      column_wires[col].reserve(rows_);
      for (size_t i = 0; i < rows_; ++i) {
        column_wires[col].push_back(circuit.AddInput(j));
      }
    }
  }
  for (size_t j = 0; j < num_clients_; ++j) {
    noise_wires[j].reserve(d);
    for (size_t t = 0; t < d; ++t) {
      noise_wires[j].push_back(circuit.AddInput(j));
    }
  }
  for (size_t t = 0; t < d; ++t) {
    Circuit::WireId acc = circuit.AddConstant(0);
    for (size_t i = 0; i < rows_; ++i) {
      for (const QuantizedMonomial& term : qf_.dims[t]) {
        // Product of variable powers, then scale by the public quantized
        // coefficient.
        Circuit::WireId prod = 0;
        bool have_prod = false;
        for (const auto& [var, exp] : term.exponents) {
          for (uint32_t e = 0; e < exp; ++e) {
            prod = have_prod ? circuit.AddMul(prod, column_wires[var][i])
                             : column_wires[var][i];
            have_prod = true;
          }
        }
        const Field::Element coeff = Field::Encode(term.coefficient);
        acc = circuit.AddAdd(acc, have_prod
                                      ? circuit.AddMulConst(prod, coeff)
                                      : circuit.AddConstant(coeff));
      }
    }
    for (size_t j = 0; j < num_clients_; ++j) {
      acc = circuit.AddAdd(acc, noise_wires[j][t]);
    }
    circuit.MarkOutput(acc);
  }
  return circuit;
}

uint64_t SqmPlan::protocol_seed() const { return options_.seed ^ 0xb9d7; }

size_t SqmPlan::max_attempts() const {
  return options_.dropout_policy != DropoutPolicy::kAbort
             ? std::max<size_t>(options_.mpc_max_attempts, 1)
             : 1;
}

SqmPlan::TopUp SqmPlan::PlanTopUp(const LivenessTracker& tracker) const {
  TopUp topup;
  const size_t num_dropped = tracker.num_dead();
  if (options_.dropout_policy != DropoutPolicy::kTopUp || options_.mu <= 0.0 ||
      num_dropped == 0) {
    return topup;
  }
  const std::vector<size_t> survivors = tracker.Survivors();
  topup.per_survivor_mu = options_.mu * static_cast<double>(num_dropped) /
                          (static_cast<double>(num_clients_) *
                           static_cast<double>(survivors.size()));
  Rng topup_root(options_.seed ^ 0x70bu);
  for (size_t j : survivors) {
    topup.dealers.emplace_back(j, topup_root.Split(j));
    topup.total_mu += topup.per_survivor_mu;
  }
  return topup;
}

std::vector<int64_t> SqmPlan::SampleTopUp(const TopUp& topup,
                                          size_t k) const {
  Rng stream = topup.dealers[k].second;
  return SkellamSampler(topup.per_survivor_mu)
      .SampleVector(stream, output_dim());
}

Status SqmPlan::AddNoiseInClear(const Inputs& inputs, Execution* run) const {
  const auto start = std::chrono::steady_clock::now();
  for (size_t t = 0; t < run->raw.size(); ++t) {
    __int128 acc = run->raw[t];
    for (const std::vector<int64_t>& client_noise : inputs.noise) {
      acc += client_noise[t];
    }
    if (acc > Field::kMaxCentered || acc < -Field::kMaxCentered) {
      return Status::OutOfRange("noisy aggregate exceeds field capacity");
    }
    run->raw[t] = static_cast<int64_t>(acc);
  }
  run->noise_deal_seconds = SecondsSince(start);
  return Status::OK();
}

Result<SqmReport> SqmPlan::Finish(const Inputs& inputs, Execution run) const {
  SqmReport report;
  report.timing.mpc_compute_seconds = SecondsSince(run.compute_start);
  report.timing.quantize_seconds = inputs.quantize_seconds;
  report.timing.noise_sampling_seconds = inputs.noise_seconds;
  report.timing.noise_injection_seconds =
      inputs.noise_seconds + run.noise_deal_seconds;
  report.raw = std::move(run.raw);
  for (const int64_t value : report.raw) {
    report.estimate.push_back(static_cast<double>(value) / qf_.output_scale);
  }
  if (run.transport == nullptr) return report;
  report.network = run.transport->stats();
  report.transport = run.transport->Snapshot();
  report.timing.simulated_network_seconds = run.transport->SimulatedSeconds();

  // ---- Dropout accounting. The census is taken only now, so it includes
  // parties that died during the opening itself.
  const DropoutPolicy policy = options_.dropout_policy;
  const bool census = policy != DropoutPolicy::kAbort && run.tracker != nullptr;
  const size_t num_dropped = census ? run.tracker->num_dead() : 0;
  const double mu = options_.mu;
  DropoutReport& dropout = report.dropout;
  dropout.policy = policy;
  dropout.num_parties = num_clients_;
  dropout.num_dropped = num_dropped;
  if (census) {
    dropout.survivors = run.tracker->Survivors();
  } else {
    for (size_t j = 0; j < num_clients_; ++j) dropout.survivors.push_back(j);
  }
  dropout.configured_mu = mu;
  dropout.topup_mu = run.topup_mu;
  dropout.realized_mu =
      mu > 0.0 ? SkellamMuWithDropouts(mu, num_clients_, num_dropped) +
                     run.topup_mu
               : 0.0;
  dropout.delta = options_.dp_delta;
  dropout.mpc_attempts = run.attempts;
  dropout.resumed_from_level = run.resumed_from_level;
  if (mu <= 0.0) return report;
  dropout.configured_epsilon = SkellamEpsilonSingleRelease(
      mu, sensitivity_.l1, sensitivity_.l2, options_.dp_delta);
  if (dropout.realized_mu <= 0.0) {
    // Every noise contributor dropped: the release is unprotected.
    dropout.realized_epsilon = std::numeric_limits<double>::infinity();
    return report;
  }
  PrivacyAccountant accountant;
  accountant.SetLedgerContext(options_.dp_delta, options_.gamma,
                              output_dim());
  accountant.AddSkellamWithDropouts("sqm_release", sensitivity_.l1,
                                    sensitivity_.l2, mu, num_clients_,
                                    num_dropped);
  if (run.topup_mu > 0.0) {
    // The top-up restores noise without adding a release: account the
    // single release at its total realized noise instead.
    accountant.Reset();
    accountant.AddSkellam("sqm_release", sensitivity_.l1, sensitivity_.l2,
                          dropout.realized_mu);
  }
  SQM_ASSIGN_OR_RETURN(const PrivacyGuarantee guarantee,
                       accountant.TotalGuarantee(options_.dp_delta));
  dropout.realized_epsilon = guarantee.epsilon;
  dropout.best_alpha = guarantee.best_alpha;
  // Every spend the accountant witnessed rides along in the report and
  // serializes as "privacy_ledger".
  report.ledger = accountant.ledger();
  return report;
}

}  // namespace sqm
