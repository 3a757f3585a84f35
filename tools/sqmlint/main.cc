// sqmlint — domain-aware static analysis for this repo's MPC/DP invariants.
//
// Usage:
//   sqmlint [--json[=FILE]] [--show-suppressed] [--check=a,b]
//           [--list-checks] PATH...
//
// Exit codes: 0 clean, 1 active findings, 2 usage or I/O error.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "sqmlint/checker.h"

namespace {

void PrintUsage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: sqmlint [--json[=FILE]] [--show-suppressed] [--check=a,b]\n"
      "               [--list-checks] PATH...\n"
      "Scans C++ sources (.h .hpp .cc .cpp .cxx; directories are walked\n"
      "recursively) for violations of the repo's MPC/DP invariants and\n"
      "exits 1 on any active finding.\n"
      "Suppress one line with        // sqmlint:allow(<check-name>)\n"
      "Declassify a secret flow with // sqmlint:declassify(<why it is safe>)\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string json_file;
  bool show_suppressed = false;
  std::set<std::string> only;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json = true;
      json_file = arg.substr(7);
    } else if (arg == "--show-suppressed") {
      show_suppressed = true;
    } else if (arg == "--list-checks") {
      for (const sqmlint::Check& check : sqmlint::AllChecks()) {
        std::printf("%-18s %s\n", check.name, check.description);
      }
      return 0;
    } else if (arg.rfind("--check=", 0) == 0) {
      std::string name;
      for (char c : arg.substr(8) + ",") {
        if (c == ',') {
          if (!name.empty()) only.insert(name);
          name.clear();
        } else {
          name.push_back(c);
        }
      }
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "sqmlint: unknown flag '%s'\n", arg.c_str());
      PrintUsage(stderr);
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    PrintUsage(stderr);
    return 2;
  }
  for (const std::string& name : only) {
    bool known = false;
    for (const sqmlint::Check& check : sqmlint::AllChecks()) {
      known = known || name == check.name;
    }
    if (!known) {
      std::fprintf(stderr, "sqmlint: unknown check '%s' (--list-checks)\n",
                   name.c_str());
      return 2;
    }
  }

  std::vector<std::string> errors;
  const auto sources = sqmlint::CollectSources(paths, &errors);
  for (const std::string& error : errors) {
    std::fprintf(stderr, "sqmlint: %s\n", error.c_str());
  }
  if (!errors.empty()) return 2;

  const sqmlint::Project project = sqmlint::BuildProject(sources);
  const std::vector<sqmlint::Finding> findings =
      sqmlint::RunChecks(project, only);

  // --json alone takes stdout; --json=FILE writes the file and leaves the
  // human report on stdout.
  if (json && json_file.empty()) {
    std::cout << sqmlint::RenderJson(project, findings) << "\n";
  } else {
    std::cout << sqmlint::RenderHuman(project, findings, show_suppressed);
  }
  if (!json_file.empty()) {
    std::ofstream out(json_file, std::ios::binary);
    out << sqmlint::RenderJson(project, findings) << "\n";
    if (!out) {
      std::fprintf(stderr, "sqmlint: cannot write '%s'\n", json_file.c_str());
      return 2;
    }
  }
  return sqmlint::CountActive(findings) == 0 ? 0 : 1;
}
