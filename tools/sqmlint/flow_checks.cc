// Registration shims for the flow-engine checks: the heavy lifting
// (IR, symbol graph, worklist taint propagation) runs once per project in
// BuildProject (taint.cc); these per-file check functions just surface the
// precomputed findings through the same Check interface the lexicon
// checks use, so suppression resolution and rendering treat both engines
// identically.

#include "sqmlint/checker.h"
#include "sqmlint/taint.h"

namespace sqmlint {
namespace {

void SurfaceFlowFindings(const char* check, const Project& project,
                         const SourceFile& file,
                         std::vector<Finding>* findings) {
  for (const FlowFinding* flow : project.flow->For(check, file.path)) {
    Finding finding;
    finding.check = flow->check;
    finding.path = flow->path;
    finding.line = flow->line;
    finding.message = flow->message;
    // A declassify directive downgrades the finding to reported-only;
    // RunChecks may additionally suppress via a plain allow directive.
    finding.suppressed = flow->declassified;
    findings->push_back(std::move(finding));
  }
}

}  // namespace

void CheckTaintFlow(const Project& project, const SourceFile& file,
                    std::vector<Finding>* findings) {
  SurfaceFlowFindings("taint-flow", project, file, findings);
}

void CheckDpSpendCoverage(const Project& project, const SourceFile& file,
                          std::vector<Finding>* findings) {
  SurfaceFlowFindings("dp-spend-coverage", project, file, findings);
}

void CheckSecretBranch(const Project& project, const SourceFile& file,
                       std::vector<Finding>* findings) {
  SurfaceFlowFindings("secret-branch", project, file, findings);
}

}  // namespace sqmlint
