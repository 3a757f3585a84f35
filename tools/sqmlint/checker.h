#ifndef SQM_TOOLS_SQMLINT_CHECKER_H_
#define SQM_TOOLS_SQMLINT_CHECKER_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "sqmlint/lexer.h"

namespace sqmlint {

struct FlowAnalysis;

/// One diagnostic produced by a check.
struct Finding {
  std::string check;    ///< Check name ("taint-flow", ...).
  std::string path;     ///< As the file was given to the tool.
  int line = 0;         ///< 1-based.
  std::string message;  ///< One sentence; no trailing period needed.
  bool suppressed = false;  ///< True when a suppression directive covers it.
};

/// A source file after lexing, with its suppression directives resolved.
///
/// Suppression syntax:  // sqmlint:allow(check-a, check-b)
/// A directive covers its own line and the line immediately after it (so it
/// works both trailing the offending line and on its own line above). A
/// directive without a parenthesized, non-empty check list is itself
/// reported under the non-suppressible check "suppression-syntax" — every
/// suppression must carry the name of the check it silences.
struct SourceFile {
  std::string path;
  std::string content;
  std::vector<std::string> lines;  ///< For snippet rendering.
  std::vector<Token> tokens;
  std::map<int, std::set<std::string>> allows;  ///< line -> check names.
  /// line -> justification, from `// sqmlint:declassify(reason)`. Unlike a
  /// blanket allow, a declassify names *why* the flow is safe; flow-engine
  /// findings it covers are reported but do not gate. A declassify with an
  /// empty reason is malformed and reported under "declassify-syntax".
  std::map<int, std::string> declassify;
  std::vector<Finding> suppression_errors;
};

/// The whole analysis input plus the interprocedural results over it.
struct Project {
  std::vector<SourceFile> files;
  /// Interprocedural taint / coverage results (taint.h). shared_ptr so
  /// Project copies stay cheap and valid.
  std::shared_ptr<const FlowAnalysis> flow;
};

/// A registered check: a pure function from (project, file) to findings.
struct Check {
  const char* name;
  const char* description;
  void (*run)(const Project& project, const SourceFile& file,
              std::vector<Finding>* findings);
};

/// All built-in checks, in reporting order.
const std::vector<Check>& AllChecks();

/// Builds a Project from in-memory (path, content) pairs: lexes each file,
/// resolves suppressions and runs the interprocedural flow analysis. The
/// test suite uses this directly with fixture snippets.
Project BuildProject(
    const std::vector<std::pair<std::string, std::string>>& files);

/// Recursively collects C++ sources (.h .hpp .cc .cpp .cxx) under each
/// path (files are taken as-is), reads them, and returns (path, content)
/// pairs sorted by path. Unreadable paths are reported through `errors`.
std::vector<std::pair<std::string, std::string>> CollectSources(
    const std::vector<std::string>& paths, std::vector<std::string>* errors);

/// Runs the checks (all of them, or the named subset) over every file.
/// Findings covered by a suppression come back with suppressed = true;
/// malformed suppressions are appended as "suppression-syntax" findings.
/// Order: by file, then line.
std::vector<Finding> RunChecks(const Project& project,
                               const std::set<std::string>& only = {});

/// Number of findings that actually gate (not suppressed).
size_t CountActive(const std::vector<Finding>& findings);

/// Human diff-style rendering: "path:line: [check] message" plus the
/// offending source line. Suppressed findings are shown only when
/// `show_suppressed`.
std::string RenderHuman(const Project& project,
                        const std::vector<Finding>& findings,
                        bool show_suppressed);

/// Machine-readable rendering:
/// {"findings":[{check,path,line,message,suppressed}...],
///  "summary":{files,active,suppressed}}.
std::string RenderJson(const Project& project,
                       const std::vector<Finding>& findings);

// --- helpers shared by checks (defined in checker.cc) ---

/// True when `path`, normalized to forward slashes, contains `needle`
/// either at the start or preceded by '/'. Used for module scoping, so
/// fixture trees under a temp directory classify the same as the real
/// repo ("src/mpc/" matches both "src/mpc/field.cc" and
/// "/tmp/x/src/mpc/field.cc").
bool PathInModule(const std::string& path, const std::string& needle);

/// Splits an identifier into lowercase words on '_' and camelCase
/// boundaries ("noiseShares" -> {"noise","shares"}).
std::vector<std::string> IdentifierWords(const std::string& identifier);

}  // namespace sqmlint

#endif  // SQM_TOOLS_SQMLINT_CHECKER_H_
