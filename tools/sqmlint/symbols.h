#ifndef SQM_TOOLS_SQMLINT_SYMBOLS_H_
#define SQM_TOOLS_SQMLINT_SYMBOLS_H_

#include <map>
#include <string>
#include <vector>

#include "sqmlint/ir.h"

namespace sqmlint {

struct Project;

/// Cross-translation-unit view of the project: every recovered function
/// definition, indexed by name, plus the call graph between them.
/// Function resolution is name-based (the
/// lexer has no types): a call site resolves to every definition sharing
/// its name, and analyses union the candidates — the conservative choice
/// for a linter.
class SymbolTable {
 public:
  /// Builds the IR for every file and indexes it. The returned table
  /// keeps pointers into `project`; the project must outlive it.
  static SymbolTable Build(const Project& project);

  const std::vector<FunctionIR>& functions() const { return functions_; }

  /// All definitions named `name` (unqualified).
  std::vector<const FunctionIR*> Resolve(const std::string& name) const;

  /// Functions whose body contains a call site resolving to `fn`.
  std::vector<const FunctionIR*> Callers(const FunctionIR* fn) const;

  /// Direct callees of `fn` (resolved definitions only; calls into code
  /// the project does not contain have no edge).
  std::vector<const FunctionIR*> Callees(const FunctionIR* fn) const;

  /// Stable index of a function within functions().
  size_t IndexOf(const FunctionIR* fn) const;

 private:
  std::vector<FunctionIR> functions_;
  std::map<std::string, std::vector<size_t>> by_name_;
  std::vector<std::vector<size_t>> callees_;  ///< fn index -> fn indices.
  std::vector<std::vector<size_t>> callers_;
};

}  // namespace sqmlint

#endif  // SQM_TOOLS_SQMLINT_SYMBOLS_H_
