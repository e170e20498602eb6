// Figure 11 of the paper: running time of TS-GREEDY as the number of drives
// grows from 4 to 64 (doubling), reported as the ratio to the 4-drive time,
// for TPCH-22/TPCH1G, APB-800/APB and SALES-45/SALES, plus one point past
// the paper's range at 128 drives. Each point also prints its own time per
// 1-thread search, so the ratios can be checked against the times.
//
// Expected shape: slightly more than quadratic in the number of drives
// (the paper sees ~6x per doubling: the O(m^2) candidate space plus the
// per-layout evaluation also growing with m).

#include <algorithm>
#include <cmath>

#include "bench/bench_util.h"
#include "benchdata/apb.h"
#include "benchdata/sales.h"
#include "benchdata/tpch.h"

using namespace dblayout;
using namespace dblayout::bench;

namespace {

/// `ms` in fixed notation with three significant digits (more for times of
/// 1000 ms and up).
std::string Ms(double ms) {
  const int digits = ms > 0 ? static_cast<int>(std::floor(std::log10(ms))) + 1 : 1;
  return StrFormat("%.*f ms", std::max(0, 3 - digits), ms);
}

}  // namespace

int main() {
  Database tpch = benchdata::MakeTpchDatabase(1.0);
  Database apb = benchdata::MakeApbDatabase();
  Database sales = benchdata::MakeSalesDatabase();

  struct Case {
    const char* name;
    const Database* db;
    Workload workload;
  };
  std::vector<Case> cases;
  cases.push_back(
      {"TPCH-22", &tpch, Unwrap(benchdata::MakeTpch22Workload(tpch), "tpch22")});
  cases.push_back(
      {"APB-800", &apb, Unwrap(benchdata::MakeApb800Workload(apb), "apb800")});
  cases.push_back(
      {"SALES-45", &sales, Unwrap(benchdata::MakeSales45Workload(sales), "sales45")});

  const int disk_counts[] = {4, 8, 16, 32, 64, 128};

  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> header = {"workload"};
  for (int m : disk_counts) header.push_back(StrFormat("m=%d", m));
  rows.push_back(header);

  for (const Case& c : cases) {
    WorkloadProfile profile = Unwrap(AnalyzeWorkload(*c.db, c.workload), c.name);
    std::vector<std::string> row = {c.name};
    double base_seconds = 0;
    for (int m : disk_counts) {
      DiskFleet fleet = DiskFleet::Heterogeneous(m, 0.3, 42, /*capacity_gb=*/48.0 / 4);
      ResolvedConstraints rc;
      rc.required_avail.assign(c.db->Objects().size(), std::nullopt);
      TsGreedySearch search(*c.db, fleet);
      auto run_once = [&] {
        auto result = search.Run(profile, rc);
        if (!result.ok()) {
          std::fprintf(stderr, "%s m=%d: %s\n", c.name, m,
                       result.status().ToString().c_str());
          std::exit(1);
        }
      };
      // Adaptive repetition: keep doubling until the sample is long enough
      // to time reliably (small fleets finish in microseconds).
      int reps = 1;
      double elapsed = 0;
      for (;;) {
        elapsed = TimeSeconds([&] {
          for (int r = 0; r < reps; ++r) run_once();
        });
        if (elapsed >= 0.2 || reps >= 1 << 14) break;
        reps *= 2;
      }
      const double seconds = elapsed / reps;
      if (m == 4) base_seconds = seconds;
      row.push_back(StrFormat("%.1fx (%s)", seconds / base_seconds,
                              Ms(seconds * 1e3).c_str()));
    }
    rows.push_back(row);
  }

  PrintTable(
      "Figure 11: TS-GREEDY running time vs number of drives "
      "(ratio to m=4 and time per search; paper sees ~6x per doubling)",
      rows);
  return 0;
}
