#ifndef SQM_CORE_PARTY_SQM_H_
#define SQM_CORE_PARTY_SQM_H_

#include <cstdint>
#include <functional>

#include "core/sqm.h"
#include "core/status.h"
#include "math/matrix.h"
#include "net/tcp/party_config.h"
#include "net/transport.h"

namespace sqm {

/// The number of database columns a deployment uses (config.cols, or one
/// column per party when it is 0).
size_t DeploymentCols(const DeploymentConfig& config);

/// The deployment's synthetic database: rows x cols, filled from
/// `data_seed` with every record normalized to ||x||_2 <= 1 (the paper's
/// precondition with the default record_norm_bound). Deterministic, so the
/// coordinator's in-process comparison run and every party generate the
/// SAME matrix; a party then rounds only its own columns.
Matrix GenerateDeploymentMatrix(size_t rows, size_t cols,
                                uint64_t data_seed);

/// SqmOptions that make SqmEvaluator run this deployment in-process over
/// the lockstep transport — the driver-mode reference the deploy_smoke
/// test compares bit-for-bit against the networked run.
Result<SqmOptions> SqmOptionsFromDeployment(const DeploymentConfig& config);

/// Test/chaos hooks threaded into the per-party engine.
struct PartySqmHooks {
  /// Forwarded to BgwEngine::set_mul_level_hook; the sqm-party daemon's
  /// --crash-at-mul-level uses it to raise SIGKILL mid-protocol.
  std::function<void(size_t)> mul_level_hook;

  /// When non-empty AND config.recovery_deadline_seconds > 0 AND the
  /// dropout policy is not kAbort, durable checkpoints (wire shares + RNG
  /// cursor, see mpc/checkpoint_store.h) are written to this directory at
  /// every phase boundary, and the protocol runs in recovery mode: failed
  /// levels resynchronize at a resume barrier instead of degrading
  /// immediately, so a supervised restart can rejoin.
  std::string checkpoint_dir;

  /// This process's restart generation (0 = first spawn). > 0 makes
  /// RunPartySqm load the durable checkpoint and run a resume barrier
  /// BEFORE the first evaluation attempt — the peers of a killed party
  /// are already waiting at theirs.
  uint32_t incarnation = 0;
};

/// Runs party `me`'s side of the full SQM mechanism (Algorithm 3) over
/// `transport` and returns this party's copy of the report. The networked
/// counterpart of SqmEvaluator::Evaluate with backend kBgw: both build the
/// same SqmPlan (core/sqm_plan.h) from SqmOptionsFromDeployment(config)
/// and execute it with SqmPlan::Run, so they validate, quantize, retry
/// and account identically. This function only
///
///  - rounds ONLY this party's own columns and samples ONLY its own
///    Skellam noise share, from this party's streams of the plan's RNG
///    schedule, so the values equal the ones driver mode assigns to it,
///  - hands Run a BgwEngine hosting only this party, so the released
///    values are BIT-IDENTICAL to a driver-mode run of the same config,
///  - under supervised recovery (see PartySqmHooks) adds the durable
///    checkpoint sink, and passes its checkpoint restore and resume
///    barrier to Run as SqmPlan::Recovery hooks.
///
/// Every input to the realized-(epsilon, delta) computation is public
/// (survivor census, mu, sensitivities), so all surviving parties — and
/// the coordinator — report the same guarantee.
///
/// The report's noise_injection_seconds is this party's noise sampling
/// plus the time it spent dealing its own noise inputs inside the real
/// input round (a party never sees the other parties' noise).
///
/// `transport` must already be connected (see TcpTransport::Create) and
/// have num_parties() == config.parties.size().
Result<SqmReport> RunPartySqm(const DeploymentConfig& config, size_t me,
                              Transport* transport,
                              const PartySqmHooks& hooks = {});

}  // namespace sqm

#endif  // SQM_CORE_PARTY_SQM_H_
