#include "sqmlint/checker.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "sqmlint/taint.h"

namespace sqmlint {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> SplitLines(const std::string& content) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : content) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else if (c != '\r') {
      current.push_back(c);
    }
  }
  lines.push_back(current);
  return lines;
}

/// Parses "sqmlint:allow(a, b)" directives out of one comment. Returns
/// false (malformed) when the marker is present but the check list is
/// missing, unparenthesized or empty.
bool ParseAllowDirective(const std::string& comment,
                         std::set<std::string>* checks) {
  const std::string marker = "sqmlint:allow";
  const size_t at = comment.find(marker);
  if (at == std::string::npos) return true;  // No directive at all.
  size_t i = at + marker.size();
  while (i < comment.size() &&
         std::isspace(static_cast<unsigned char>(comment[i]))) {
    ++i;
  }
  if (i >= comment.size() || comment[i] != '(') return false;
  const size_t close = comment.find(')', i);
  if (close == std::string::npos) return false;
  std::string list = comment.substr(i + 1, close - i - 1);
  std::string name;
  std::set<std::string> parsed;
  for (char c : list + ",") {
    if (c == ',') {
      if (!name.empty()) {
        parsed.insert(name);
        name.clear();
      }
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) continue;
    name.push_back(c);
  }
  if (parsed.empty()) return false;
  checks->insert(parsed.begin(), parsed.end());
  return true;
}

/// Parses "sqmlint:declassify(reason)" out of one comment. Returns false
/// (malformed) when the marker is present but the reason is missing,
/// unparenthesized or empty — a declassification without a justification
/// is exactly the blanket allowlisting the directive replaces.
bool ParseDeclassifyDirective(const std::string& comment,
                              std::string* reason) {
  const std::string marker = "sqmlint:declassify";
  const size_t at = comment.find(marker);
  if (at == std::string::npos) return true;  // No directive at all.
  size_t i = at + marker.size();
  while (i < comment.size() &&
         std::isspace(static_cast<unsigned char>(comment[i]))) {
    ++i;
  }
  if (i >= comment.size() || comment[i] != '(') return false;
  const size_t close = comment.rfind(')');
  if (close == std::string::npos || close <= i) return false;
  std::string text = comment.substr(i + 1, close - i - 1);
  // Trim.
  size_t b = 0, e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  if (b >= e) return false;
  *reason = text.substr(b, e - b);
  return true;
}

SourceFile MakeSourceFile(const std::string& path,
                          const std::string& content) {
  SourceFile file;
  file.path = path;
  file.content = content;
  file.lines = SplitLines(content);
  LexResult lexed = Lex(content);
  file.tokens = std::move(lexed.tokens);
  for (const Comment& comment : lexed.comments) {
    if (comment.text.find("sqmlint:declassify") != std::string::npos) {
      std::string reason;
      if (!ParseDeclassifyDirective(comment.text, &reason)) {
        Finding finding;
        finding.check = "declassify-syntax";
        finding.path = path;
        finding.line = comment.begin_line;
        finding.message =
            "malformed declassification: every sqmlint:declassify must "
            "carry a parenthesized, non-empty justification, e.g. "
            "sqmlint:declassify(digest is collision-resistant, reveals "
            "no share bits)";
        file.suppression_errors.push_back(std::move(finding));
      } else {
        for (int l = comment.begin_line; l <= comment.end_line + 1; ++l) {
          file.declassify.emplace(l, reason);
        }
      }
      continue;
    }
    if (comment.text.find("sqmlint:allow") == std::string::npos) continue;
    std::set<std::string> checks;
    if (!ParseAllowDirective(comment.text, &checks)) {
      Finding finding;
      finding.check = "suppression-syntax";
      finding.path = path;
      finding.line = comment.begin_line;
      finding.message =
          "malformed suppression: every sqmlint:allow must carry a "
          "parenthesized, non-empty check-name list, e.g. "
          "sqmlint:allow(rng-discipline)";
      file.suppression_errors.push_back(std::move(finding));
      continue;
    }
    // Cover the directive's own extent plus the next line, so the comment
    // works trailing the offending line or on its own line above it.
    for (int l = comment.begin_line; l <= comment.end_line + 1; ++l) {
      file.allows[l].insert(checks.begin(), checks.end());
    }
  }
  return file;
}

}  // namespace

bool PathInModule(const std::string& path, const std::string& needle) {
  std::string normalized = path;
  std::replace(normalized.begin(), normalized.end(), '\\', '/');
  size_t at = normalized.find(needle);
  while (at != std::string::npos) {
    if (at == 0 || normalized[at - 1] == '/') return true;
    at = normalized.find(needle, at + 1);
  }
  return false;
}

std::vector<std::string> IdentifierWords(const std::string& identifier) {
  std::vector<std::string> words;
  std::string current;
  auto flush = [&] {
    if (!current.empty()) {
      words.push_back(current);
      current.clear();
    }
  };
  for (size_t i = 0; i < identifier.size(); ++i) {
    const char c = identifier[i];
    if (c == '_') {
      flush();
      continue;
    }
    if (std::isupper(static_cast<unsigned char>(c)) && i > 0 &&
        std::islower(static_cast<unsigned char>(identifier[i - 1]))) {
      flush();
    }
    current.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  flush();
  return words;
}

Project BuildProject(
    const std::vector<std::pair<std::string, std::string>>& files) {
  Project project;
  project.files.reserve(files.size());
  for (const auto& [path, content] : files) {
    project.files.push_back(MakeSourceFile(path, content));
  }
  project.flow = std::make_shared<const FlowAnalysis>(RunFlowAnalysis(project));
  return project;
}

std::vector<std::pair<std::string, std::string>> CollectSources(
    const std::vector<std::string>& paths, std::vector<std::string>* errors) {
  std::vector<std::pair<std::string, std::string>> out;
  auto read_file = [&](const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    if (!in) {
      errors->push_back("cannot read " + p.string());
      return;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out.emplace_back(p.generic_string(), buffer.str());
  };
  const std::set<std::string> extensions = {".h", ".hpp", ".cc", ".cpp",
                                            ".cxx"};
  for (const std::string& path : paths) {
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      for (fs::recursive_directory_iterator it(path, ec), end;
           !ec && it != end; it.increment(ec)) {
        if (!it->is_regular_file()) continue;
        if (extensions.count(it->path().extension().string()) == 0) continue;
        read_file(it->path());
      }
      if (ec) errors->push_back("cannot walk " + path + ": " + ec.message());
    } else if (fs::exists(path, ec)) {
      read_file(path);
    } else {
      errors->push_back("no such path: " + path);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Finding> RunChecks(const Project& project,
                               const std::set<std::string>& only) {
  std::vector<Finding> findings;
  for (const SourceFile& file : project.files) {
    for (const Check& check : AllChecks()) {
      if (!only.empty() && only.count(check.name) == 0) continue;
      check.run(project, file, &findings);
    }
    for (const Finding& error : file.suppression_errors) {
      findings.push_back(error);  // Never suppressible.
    }
  }
  // Resolve suppressions. Directive-syntax findings are never
  // suppressible — a malformed suppression cannot silence itself.
  for (Finding& finding : findings) {
    if (finding.check == "suppression-syntax" ||
        finding.check == "declassify-syntax") {
      continue;
    }
    for (const SourceFile& file : project.files) {
      if (file.path != finding.path) continue;
      auto it = file.allows.find(finding.line);
      if (it != file.allows.end() && it->second.count(finding.check) > 0) {
        finding.suppressed = true;
      }
      break;
    }
  }
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.path != b.path) return a.path < b.path;
                     return a.line < b.line;
                   });
  return findings;
}

size_t CountActive(const std::vector<Finding>& findings) {
  size_t active = 0;
  for (const Finding& finding : findings) {
    if (!finding.suppressed) ++active;
  }
  return active;
}

std::string RenderHuman(const Project& project,
                        const std::vector<Finding>& findings,
                        bool show_suppressed) {
  std::ostringstream out;
  for (const Finding& finding : findings) {
    if (finding.suppressed && !show_suppressed) continue;
    out << finding.path << ":" << finding.line << ": ["
        << finding.check << "] " << finding.message;
    if (finding.suppressed) out << " (suppressed)";
    out << "\n";
    for (const SourceFile& file : project.files) {
      if (file.path != finding.path) continue;
      if (finding.line >= 1 &&
          static_cast<size_t>(finding.line) <= file.lines.size()) {
        out << "  | " << file.lines[finding.line - 1] << "\n";
      }
      break;
    }
  }
  const size_t active = CountActive(findings);
  out << (active == 0 ? "sqmlint: clean" : "sqmlint: FAIL") << " ("
      << active << " finding(s), " << findings.size() - active
      << " suppressed, " << project.files.size() << " file(s))\n";
  return out.str();
}

namespace {
std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}
}  // namespace

std::string RenderJson(const Project& project,
                       const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "{\"findings\":[";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i > 0) out << ",";
    out << "{\"check\":\"" << JsonEscape(f.check) << "\",\"path\":\""
        << JsonEscape(f.path) << "\",\"line\":" << f.line
        << ",\"message\":\"" << JsonEscape(f.message) << "\",\"suppressed\":"
        << (f.suppressed ? "true" : "false") << "}";
  }
  const size_t active = CountActive(findings);
  out << "],\"summary\":{\"files\":" << project.files.size()
      << ",\"active\":" << active
      << ",\"suppressed\":" << findings.size() - active << "}}";
  return out.str();
}

}  // namespace sqmlint
