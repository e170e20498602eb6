#include "resilience/fault.h"

#include <cmath>

#include "common/strutil.h"
#include "obs/metrics.h"

namespace dblayout {

namespace {

Status ParseScalar(const std::string& source, int line, const std::string& key,
                   const std::string& value, double lo, double hi, bool hi_open,
                   double* out) {
  const std::optional<double> v = ParseDouble(value);
  if (!v) {
    return Status::ParseError(StrFormat("%s:%d: %s value '%s' is not a number",
                                        source.c_str(), line, key.c_str(),
                                        value.c_str()));
  }
  // Written so that NaN, which every comparison rejects, is out of range.
  if (!(*v >= lo && (hi_open ? *v < hi : *v <= hi))) {
    return Status::InvalidArgument(
        StrFormat("%s:%d: %s=%g out of range [%g, %g%s", source.c_str(), line,
                  key.c_str(), *v, lo, hi, hi_open ? ")" : "]"));
  }
  *out = *v;
  return Status::OK();
}

}  // namespace

Result<FaultPlan> FaultPlan::FromSpec(const std::string& text,
                                      const std::string& source) {
  FaultPlan plan;
  int line_no = 0;
  for (const std::string& raw : Split(text, '\n')) {
    ++line_no;
    std::string line = raw;
    if (const size_t hash = line.find('#'); hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    line = Trim(line);
    if (line.empty()) continue;

    std::vector<std::string> tokens;
    for (const std::string& t : Split(line, ' ')) {
      const std::string trimmed = Trim(t);
      if (!trimmed.empty()) tokens.push_back(trimmed);
    }
    if (tokens.size() < 2) {
      return Status::ParseError(StrFormat(
          "%s:%d: expected '<drive> fail' or '<drive> degraded [key=value...]', got '%s'",
          source.c_str(), line_no, line.c_str()));
    }

    DriveFault fault;
    fault.drive_name = tokens[0];
    const std::string mode = ToLower(tokens[1]);
    if (mode == "fail") {
      if (tokens.size() != 2) {
        return Status::ParseError(
            StrFormat("%s:%d: 'fail' takes no further arguments", source.c_str(),
                      line_no));
      }
      fault.failed = true;
    } else if (mode == "degraded") {
      for (size_t k = 2; k < tokens.size(); ++k) {
        const size_t eq = tokens[k].find('=');
        if (eq == std::string::npos) {
          return Status::ParseError(
              StrFormat("%s:%d: expected key=value, got '%s'", source.c_str(),
                        line_no, tokens[k].c_str()));
        }
        const std::string key = ToLower(tokens[k].substr(0, eq));
        const std::string value = tokens[k].substr(eq + 1);
        if (key == "transfer") {
          // transfer_scale = 0 would zero a transfer rate and make per-block
          // times infinite; keep it strictly positive.
          DBLAYOUT_RETURN_NOT_OK(ParseScalar(source, line_no, key, value, 1e-6,
                                             1.0, false, &fault.transfer_scale));
        } else if (key == "seek") {
          DBLAYOUT_RETURN_NOT_OK(ParseScalar(source, line_no, key, value, 1.0,
                                             1e6, false, &fault.seek_scale));
        } else if (key == "errors") {
          // Rate 1 would retry forever in expectation; keep it < 1.
          DBLAYOUT_RETURN_NOT_OK(ParseScalar(source, line_no, key, value, 0.0,
                                             1.0, true,
                                             &fault.transient_error_rate));
        } else {
          return Status::ParseError(StrFormat(
              "%s:%d: unknown degraded-mode key '%s' (want transfer, seek, or errors)",
              source.c_str(), line_no, key.c_str()));
        }
      }
    } else {
      return Status::ParseError(
          StrFormat("%s:%d: unknown fault mode '%s' (want 'fail' or 'degraded')",
                    source.c_str(), line_no, tokens[1].c_str()));
    }
    plan.faults.push_back(std::move(fault));
  }
  return plan;
}

Result<ResolvedFaultPlan> ApplyFaultPlan(const DiskFleet& fleet, const FaultPlan& plan) {
  ResolvedFaultPlan resolved;
  resolved.failed.assign(static_cast<size_t>(fleet.num_disks()), false);
  resolved.transient_rate.assign(static_cast<size_t>(fleet.num_disks()), 0.0);
  resolved.degraded_fleet = fleet;

  std::vector<bool> seen(static_cast<size_t>(fleet.num_disks()), false);
  for (const DriveFault& fault : plan.faults) {
    int drive = -1;
    const std::string wanted = ToLower(fault.drive_name);
    for (int j = 0; j < fleet.num_disks(); ++j) {
      if (ToLower(fleet.disk(j).name) == wanted) {
        drive = j;
        break;
      }
    }
    if (drive < 0) {
      return Status::NotFound(StrFormat(
          "fault plan references unknown drive '%s'", fault.drive_name.c_str()));
    }
    if (seen[static_cast<size_t>(drive)]) {
      return Status::InvalidArgument(StrFormat(
          "fault plan lists drive '%s' more than once", fault.drive_name.c_str()));
    }
    seen[static_cast<size_t>(drive)] = true;
    // Every comparison fails for NaN, so each must hold for a valid fault.
    if (!(fault.transfer_scale > 0.0 && fault.transfer_scale <= 1.0 &&
          fault.seek_scale >= 1.0 && std::isfinite(fault.seek_scale) &&
          fault.transient_error_rate >= 0.0 && fault.transient_error_rate < 1.0)) {
      return Status::InvalidArgument(StrFormat(
          "fault for drive '%s' out of range (want 0 < transfer <= 1, "
          "finite seek >= 1, 0 <= errors < 1)",
          fault.drive_name.c_str()));
    }

    DiskDrive& d = resolved.degraded_fleet.disk(drive);
    // Degraded mode applies whether or not the drive also hard-fails (a
    // rebuilding array is typically both).
    d.read_mb_s *= fault.transfer_scale;
    d.write_mb_s *= fault.transfer_scale;
    d.seek_ms *= fault.seek_scale;
    resolved.transient_rate[static_cast<size_t>(drive)] =
        fault.transient_error_rate;
    if (fault.transient_error_rate > resolved.max_transient_rate) {
      resolved.max_transient_rate = fault.transient_error_rate;
    }
    if (!fault.failed) continue;

    resolved.failed[static_cast<size_t>(drive)] = true;
    // Hard failure: how the drive keeps serving depends on its redundancy.
    // All transforms divide transfer rates (or multiply seek time), so every
    // per-block service time only increases — the monotonicity EvaluateResilience
    // relies on.
    switch (d.avail) {
      case Availability::kMirroring:
        d.read_mb_s /= kMirrorDegradedSlowdown;
        break;
      case Availability::kParity:
        d.read_mb_s /= kParityRebuildAmplification;
        d.write_mb_s /= kParityRebuildAmplification;
        break;
      case Availability::kNone:
        d.read_mb_s /= kLostRestorePenalty;
        d.write_mb_s /= kLostRestorePenalty;
        d.seek_ms *= kLostRestorePenalty;
        break;
    }
  }
  DBLAYOUT_OBS_COUNT("resilience/fault_plans_applied", 1);
  return resolved;
}

}  // namespace dblayout
