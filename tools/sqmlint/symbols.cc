#include "sqmlint/symbols.h"

#include <set>

#include "sqmlint/checker.h"

namespace sqmlint {

SymbolTable SymbolTable::Build(const Project& project) {
  SymbolTable table;
  for (const SourceFile& file : project.files) {
    std::vector<FunctionIR> fns = BuildFileIR(file);
    for (FunctionIR& fn : fns) {
      table.by_name_[fn.name].push_back(table.functions_.size());
      table.functions_.push_back(std::move(fn));
    }
  }
  // Call graph edges by callee name.
  table.callees_.resize(table.functions_.size());
  table.callers_.resize(table.functions_.size());
  for (size_t i = 0; i < table.functions_.size(); ++i) {
    std::set<size_t> out;
    for (const CallSite& call : table.functions_[i].calls) {
      auto it = table.by_name_.find(call.callee);
      if (it == table.by_name_.end()) continue;
      for (size_t j : it->second) {
        if (j != i) out.insert(j);
      }
    }
    table.callees_[i].assign(out.begin(), out.end());
    for (size_t j : table.callees_[i]) table.callers_[j].push_back(i);
  }
  return table;
}

std::vector<const FunctionIR*> SymbolTable::Resolve(
    const std::string& name) const {
  std::vector<const FunctionIR*> out;
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return out;
  for (size_t i : it->second) out.push_back(&functions_[i]);
  return out;
}

size_t SymbolTable::IndexOf(const FunctionIR* fn) const {
  return static_cast<size_t>(fn - functions_.data());
}

std::vector<const FunctionIR*> SymbolTable::Callers(
    const FunctionIR* fn) const {
  std::vector<const FunctionIR*> out;
  for (size_t i : callers_[IndexOf(fn)]) out.push_back(&functions_[i]);
  return out;
}

std::vector<const FunctionIR*> SymbolTable::Callees(
    const FunctionIR* fn) const {
  std::vector<const FunctionIR*> out;
  for (size_t i : callees_[IndexOf(fn)]) out.push_back(&functions_[i]);
  return out;
}

}  // namespace sqmlint
