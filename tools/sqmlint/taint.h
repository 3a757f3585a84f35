#ifndef SQM_TOOLS_SQMLINT_TAINT_H_
#define SQM_TOOLS_SQMLINT_TAINT_H_

#include <map>
#include <string>
#include <vector>

namespace sqmlint {

struct Project;

/// One diagnostic produced by the flow engine, before suppression
/// resolution. `declassified` marks a finding covered by a
/// `sqmlint:declassify(reason)` directive — reported but not gating.
struct FlowFinding {
  std::string check;
  std::string path;
  int line = 0;
  std::string message;
  bool declassified = false;
};

/// Results of the interprocedural analysis over a whole project:
/// secret-taint flows (`taint-flow`), accountant-coverage gaps
/// (`dp-spend-coverage`), and secret-dependent control flow in src/mpc/
/// (`secret-branch`), keyed by (check, file path).
///
/// The engine is a worklist propagator over the per-file IR and the
/// cross-TU symbol table:
///   1. *Summaries*: for every function, a bitmask describing whose taint
///      its return value carries — bit 0 for "derived from a secret
///      source inside the callee (or below)", bit i+1 for "flows from
///      parameter i". Computed to a global fixpoint.
///   2. *Real taint*: sources (ShamirScheme::Share*, sampler draws) seed
///      concrete taint, which flows through assignments, call returns (via
///      the summaries) and call arguments (marking callee parameters
///      tainted, with provenance), again to a fixpoint.
///   3. *Checks* read the converged state: sink regions (logging, obs
///      export, un-MACed wire sends) holding real taint, secret values
///      steering control flow or indexing in src/mpc/, and sampler draws
///      reachable from the SQM drivers with no accountant spend on the
///      path.
struct FlowAnalysis {
  /// check name -> path -> findings, pre-sorted by line.
  std::map<std::string, std::map<std::string, std::vector<FlowFinding>>>
      findings;

  std::vector<const FlowFinding*> For(const std::string& check,
                                      const std::string& path) const;
};

/// Runs the full flow analysis. Pure function of the project contents.
FlowAnalysis RunFlowAnalysis(const Project& project);

}  // namespace sqmlint

#endif  // SQM_TOOLS_SQMLINT_TAINT_H_
