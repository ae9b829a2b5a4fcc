#include "obs/health.h"

#include <unistd.h>

#include <cstdio>
#include <utility>

#include "common/check.h"
#include "common/env.h"
#include "common/parse.h"

namespace ppn::obs {

namespace {

std::string Trim(const std::string& text) {
  size_t begin = text.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  size_t end = text.find_last_not_of(" \t\r\n");
  return text.substr(begin, end - begin + 1);
}

bool Compare(double value, HealthOp op, double threshold) {
  switch (op) {
    case HealthOp::kLt: return value < threshold;
    case HealthOp::kLe: return value <= threshold;
    case HealthOp::kGt: return value > threshold;
    case HealthOp::kGe: return value >= threshold;
    case HealthOp::kEq: return value == threshold;
    case HealthOp::kNe: return value != threshold;
  }
  return false;
}

/// Parses a threshold like "5ms" / "120us" / "0.25s" / "3": a strict
/// double with an optional time-unit suffix converted to seconds.
bool ParseThreshold(const std::string& text, double* out) {
  std::string number = text;
  double scale = 1.0;
  if (text.ends_with("ms")) {
    number = text.substr(0, text.size() - 2);
    scale = 1e-3;
  } else if (text.ends_with("us")) {
    number = text.substr(0, text.size() - 2);
    scale = 1e-6;
  } else if (text.ends_with("s") && text.size() > 1) {
    // Bare "s" is not a number; require digits before the suffix.
    number = text.substr(0, text.size() - 1);
    scale = 1.0;
  }
  std::optional<double> parsed = ParseDouble(number);
  if (!parsed.has_value()) return false;
  *out = *parsed * scale;
  return true;
}

/// Every operator's spelling. Two-character operators must be probed
/// before their one-character prefixes, or "<=" would parse as "<" with
/// threshold "=...".
struct OpSpelling {
  const char* text;
  HealthOp op;
};
constexpr OpSpelling kOps[] = {
    {"<=", HealthOp::kLe}, {">=", HealthOp::kGe}, {"==", HealthOp::kEq},
    {"!=", HealthOp::kNe}, {"<", HealthOp::kLt},  {">", HealthOp::kGt},
};

bool ParseOneRule(const std::string& text, HealthRule* rule,
                  std::string* error) {
  for (const OpSpelling& spelling : kOps) {
    size_t pos = text.find(spelling.text);
    if (pos == std::string::npos) continue;
    rule->metric = Trim(text.substr(0, pos));
    rule->op = spelling.op;
    rule->raw = text;
    std::string threshold_text =
        Trim(text.substr(pos + std::string(spelling.text).size()));
    if (rule->metric.empty()) {
      if (error != nullptr) *error = "health rule has empty metric: " + text;
      return false;
    }
    if (!ParseThreshold(threshold_text, &rule->threshold)) {
      if (error != nullptr) {
        *error = "health rule has malformed threshold \"" + threshold_text +
                 "\" (want a number with optional s/ms/us suffix): " + text;
      }
      return false;
    }
    return true;
  }
  if (error != nullptr) {
    *error = "health rule has no comparison operator (< <= > >= == !=): " +
             text;
  }
  return false;
}

}  // namespace

std::string HealthOpName(HealthOp op) {
  for (const OpSpelling& spelling : kOps) {
    if (spelling.op == op) return spelling.text;
  }
  return "?";
}

bool ParseHealthRules(const std::string& text, std::vector<HealthRule>* out,
                      std::string* error) {
  out->clear();
  size_t begin = 0;
  while (begin <= text.size()) {
    size_t end = text.find(',', begin);
    if (end == std::string::npos) end = text.size();
    std::string piece = Trim(text.substr(begin, end - begin));
    if (!piece.empty()) {
      HealthRule rule;
      if (!ParseOneRule(piece, &rule, error)) return false;
      out->push_back(std::move(rule));
    }
    begin = end + 1;
  }
  return true;
}

std::vector<HealthRule> HealthRulesFromEnv() {
  std::string text = env::StringOr("PPN_HEALTH", "");
  std::vector<HealthRule> rules;
  std::string error;
  PPN_CHECK(ParseHealthRules(text, &rules, &error))
      << "PPN_HEALTH: " << error;
  return rules;
}

bool ResolveHealthMetric(const Snapshot& snapshot, const std::string& metric,
                         double* value) {
  auto counter = snapshot.counters.find(metric);
  if (counter != snapshot.counters.end()) {
    *value = counter->second;
    return true;
  }
  auto gauge = snapshot.gauges.find(metric);
  if (gauge != snapshot.gauges.end()) {
    *value = gauge->second;
    return true;
  }
  // Histogram stat suffixes (`.p99`, `.count`, ...). An exact counter or
  // gauge match took precedence above, so a counter literally named
  // "...count" still resolves as itself.
  for (const HistogramStat& stat : kHistogramStats) {
    const std::string suffix = std::string(".") + stat.key;
    if (!metric.ends_with(suffix) || metric.size() == suffix.size()) continue;
    std::string base = metric.substr(0, metric.size() - suffix.size());
    auto hist = snapshot.histograms.find(base);
    // A stat suffix marks the rule as a histogram rule: an absent or
    // empty histogram is "no data yet" and must be SKIPPED — a latency
    // bound must never pass (or fail) against a defaulted 0.
    if (hist == snapshot.histograms.end() || hist->second.count <= 0) {
      return false;
    }
    *value = stat.of(hist->second);
    return true;
  }
  // Plain names default to 0: a counter that was never bumped — the
  // common shape of "== 0" invariants — should PASS, not skip.
  *value = 0.0;
  return true;
}

HealthMonitor::HealthMonitor(std::vector<HealthRule> rules)
    : rules_(std::move(rules)), tallies_(rules_.size()) {}

std::vector<HealthEval> HealthMonitor::Evaluate(const Snapshot& snapshot) {
  std::vector<HealthEval> evals(rules_.size());
  for (size_t i = 0; i < rules_.size(); ++i) {
    HealthEval& eval = evals[i];
    eval.rule = &rules_[i];
    eval.evaluated = ResolveHealthMetric(snapshot, rules_[i].metric,
                                         &eval.value);
    if (!eval.evaluated) continue;
    eval.ok = Compare(eval.value, rules_[i].op, rules_[i].threshold);
    RuleTally& tally = tallies_[i];
    ++tally.evaluations;
    if (!eval.ok) ++tally.violations;
    tally.last_value = eval.value;
    tally.value_seen = true;
  }
  return evals;
}

bool HealthMonitor::ok() const {
  for (const RuleTally& tally : tallies_) {
    if (tally.violations > 0) return false;
  }
  return true;
}

std::string HealthMonitor::Summary(bool color) const {
  const char* red = color ? "\x1b[31m" : "";
  const char* green = color ? "\x1b[32m" : "";
  const char* reset = color ? "\x1b[0m" : "";
  std::string out;
  char line[512];
  for (size_t i = 0; i < rules_.size(); ++i) {
    const HealthRule& rule = rules_[i];
    const RuleTally& tally = tallies_[i];
    if (tally.evaluations == 0) {
      std::snprintf(line, sizeof(line), "[health] SKIP %s (no data)\n",
                    rule.raw.c_str());
    } else if (tally.violations == 0) {
      std::snprintf(line, sizeof(line),
                    "[health] %sPASS%s %s (last value %.6g, %lld windows)\n",
                    green, reset, rule.raw.c_str(), tally.last_value,
                    static_cast<long long>(tally.evaluations));
    } else {
      std::snprintf(
          line, sizeof(line),
          "[health] %sFAIL%s %s (last value %.6g, violated %lld/%lld "
          "windows)\n",
          red, reset, rule.raw.c_str(), tally.last_value,
          static_cast<long long>(tally.violations),
          static_cast<long long>(tally.evaluations));
    }
    out += line;
  }
  bool failed = !ok();
  std::snprintf(line, sizeof(line), "%sPPN_HEALTH: %s%s\n",
                failed ? red : green, failed ? "FAIL" : "PASS", reset);
  out += line;
  return out;
}

int ReportHealthIfRequested() {
  std::vector<HealthRule> rules = HealthRulesFromEnv();
  if (rules.empty()) return 0;
  HealthMonitor monitor(std::move(rules));
  monitor.Evaluate(TakeSnapshot());
  bool color = ::isatty(2) != 0;
  std::fputs(monitor.Summary(color).c_str(), stderr);
  return monitor.ok() ? 0 : 1;
}

}  // namespace ppn::obs
