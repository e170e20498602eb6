// `service-config-sane`: a lint rule over the continuous advisor's
// configuration, registered by dblayout serve at startup via
// LintRunner::AddRule (the same registry-extension path as
// MakeWorkloadProgressRule — the lint library stays independent of the
// service library; the dependency points this way). Flags configurations
// that are legal to run but can only misbehave: drift thresholds that
// re-advise every window, a zero-window promotion gate that defeats the
// observe-only staging discipline, and a movement budget too small to ever
// move the largest object (promotions permanently stuck).

#ifndef DBLAYOUT_SERVICE_SERVICE_LINT_H_
#define DBLAYOUT_SERVICE_SERVICE_LINT_H_

#include <memory>

#include "lint/lint.h"
#include "service/config.h"

namespace dblayout {

/// The rule checks `config` against the lint run's database and fleet
/// (inputs it needs for the movement-budget-vs-largest-object check; the
/// pure-config checks run regardless).
std::unique_ptr<LintRule> MakeServiceConfigRule(ServiceConfig config);

}  // namespace dblayout

#endif  // DBLAYOUT_SERVICE_SERVICE_LINT_H_
