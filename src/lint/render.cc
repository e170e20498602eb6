// Text, JSON, and SARIF 2.1.0 renderers for LintReport. All three emit
// diagnostics in the report's (already deterministic) order; SARIF rule
// metadata follows report.rules, which the runner sorts by id.

#include <string>
#include <vector>

#include "common/strutil.h"
#include "lint/lint.h"
#include "obs/journal.h"

namespace dblayout {
namespace {

using obs::JsonString;

std::string JsonStringArray(const std::vector<std::string>& items) {
  std::vector<std::string> quoted;
  quoted.reserve(items.size());
  for (const std::string& s : items) quoted.push_back(JsonString(s));
  return "[" + Join(quoted, ", ") + "]";
}

/// SARIF levels are "note" / "warning" / "error" — same as our names.
const char* SarifLevel(LintSeverity severity) { return LintSeverityName(severity); }

}  // namespace

std::string RenderLintText(const LintReport& report, const std::string& tool) {
  std::string out;
  for (const Diagnostic& d : report.diagnostics) {
    std::string where;
    if (!d.objects.empty()) {
      where += StrFormat(" [objects: %s]", Join(d.objects, ", ").c_str());
    }
    if (!d.disks.empty()) {
      where += StrFormat(" [drives: %s]", Join(d.disks, ", ").c_str());
    }
    std::string at;
    if (!d.file.empty()) {
      at = d.line > 0 ? StrFormat("%s:%d: ", d.file.c_str(), d.line)
                      : StrFormat("%s: ", d.file.c_str());
    }
    out += StrFormat("%s%s: %s: %s%s\n", at.c_str(), LintSeverityName(d.severity),
                     d.rule_id.c_str(), d.message.c_str(), where.c_str());
    if (!d.fix_it.empty()) {
      out += StrFormat("    fix: %s\n", d.fix_it.c_str());
    }
  }
  out += StrFormat("%s: %zu error(s), %zu warning(s), %zu note(s)\n", tool.c_str(),
                   report.Count(LintSeverity::kError),
                   report.Count(LintSeverity::kWarning),
                   report.Count(LintSeverity::kNote));
  return out;
}

std::string RenderLintJson(const LintReport& report, const std::string& tool) {
  std::vector<std::string> entries;
  entries.reserve(report.diagnostics.size());
  for (const Diagnostic& d : report.diagnostics) {
    std::string e = "    {";
    e += "\"rule\": " + JsonString(d.rule_id);
    e += StrFormat(", \"severity\": %s",
                   JsonString(LintSeverityName(d.severity)).c_str());
    e += ", \"objects\": " + JsonStringArray(d.objects);
    e += ", \"disks\": " + JsonStringArray(d.disks);
    if (!d.file.empty()) {
      e += ", \"file\": " + JsonString(d.file);
      e += StrFormat(", \"line\": %d", d.line);
    }
    e += ", \"message\": " + JsonString(d.message);
    if (!d.fix_it.empty()) e += ", \"fix\": " + JsonString(d.fix_it);
    e += "}";
    entries.push_back(std::move(e));
  }
  std::string out = "{\n  \"tool\": " + JsonString(tool) + ",\n  \"diagnostics\": [\n";
  out += Join(entries, ",\n");
  if (!entries.empty()) out += "\n";
  out += "  ],\n";
  out += StrFormat(
      "  \"summary\": {\"errors\": %zu, \"warnings\": %zu, \"notes\": %zu}\n",
      report.Count(LintSeverity::kError), report.Count(LintSeverity::kWarning),
      report.Count(LintSeverity::kNote));
  out += "}\n";
  return out;
}

std::string RenderLintSarif(const LintReport& report, const std::string& tool) {
  std::vector<std::string> rule_entries;
  rule_entries.reserve(report.rules.size());
  for (const LintRuleInfo& r : report.rules) {
    std::string e = "            {";
    e += "\"id\": " + JsonString(r.id);
    e += ", \"shortDescription\": {\"text\": " + JsonString(r.summary) + "}";
    e += StrFormat(
        ", \"defaultConfiguration\": {\"level\": %s}",
        JsonString(SarifLevel(r.severity)).c_str());
    e += "}";
    rule_entries.push_back(std::move(e));
  }

  std::vector<std::string> results;
  results.reserve(report.diagnostics.size());
  for (const Diagnostic& d : report.diagnostics) {
    std::vector<std::string> locations;
    if (!d.file.empty()) {
      locations.push_back(StrFormat(
          "{\"physicalLocation\": {\"artifactLocation\": {\"uri\": %s}, "
          "\"region\": {\"startLine\": %d}}}",
          JsonString(d.file).c_str(), d.line > 0 ? d.line : 1));
    }
    for (const std::string& o : d.objects) {
      locations.push_back(StrFormat(
          "{\"logicalLocations\": [{\"name\": %s, \"kind\": \"object\"}]}",
          JsonString(o).c_str()));
    }
    for (const std::string& disk : d.disks) {
      locations.push_back(StrFormat(
          "{\"logicalLocations\": [{\"name\": %s, \"kind\": \"disk\"}]}",
          JsonString(disk).c_str()));
    }
    std::string e = "        {";
    e += "\"ruleId\": " + JsonString(d.rule_id);
    e += StrFormat(", \"level\": %s", JsonString(SarifLevel(d.severity)).c_str());
    std::string text = d.message;
    if (!d.fix_it.empty()) text += " Suggested fix: " + d.fix_it + ".";
    e += ", \"message\": {\"text\": " + JsonString(text) + "}";
    if (!locations.empty()) {
      e += ", \"locations\": [" + Join(locations, ", ") + "]";
    }
    e += "}";
    results.push_back(std::move(e));
  }

  std::string out;
  out += "{\n";
  out += "  \"version\": \"2.1.0\",\n";
  out +=
      "  \"$schema\": "
      "\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
      "Schemata/sarif-schema-2.1.0.json\",\n";
  out += "  \"runs\": [\n    {\n";
  out += "      \"tool\": {\n        \"driver\": {\n";
  out += "          \"name\": " + JsonString(tool) + ",\n";
  out += "          \"informationUri\": "
         "\"https://github.com/dblayout/dblayout\",\n";
  out += "          \"rules\": [\n";
  out += Join(rule_entries, ",\n");
  if (!rule_entries.empty()) out += "\n";
  out += "          ]\n        }\n      },\n";
  out += "      \"results\": [\n";
  out += Join(results, ",\n");
  if (!results.empty()) out += "\n";
  out += "      ]\n    }\n  ]\n}\n";
  return out;
}

}  // namespace dblayout
