#include "workload/analyzer.h"

#include <algorithm>
#include <charconv>
#include <map>
#include <set>

#include "common/strutil.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dblayout {

std::vector<double> WorkloadProfile::NodeBlockTotals() const {
  std::vector<double> totals(num_objects, 0.0);
  for (const auto& s : statements) {
    for (const auto& sp : s.subplans) {
      for (const auto& a : sp.accesses) {
        if (a.object_id >= 0 && static_cast<size_t>(a.object_id) < num_objects) {
          totals[static_cast<size_t>(a.object_id)] += s.weight * a.blocks;
        }
      }
    }
  }
  return totals;
}

Result<WorkloadProfile> AnalyzeWorkload(const Database& db, const Workload& workload,
                                        const OptimizerOptions& options) {
  DBLAYOUT_TRACE_SPAN("workload/analyze");
  WorkloadProfile profile;
  profile.num_objects = db.Objects().size();
  Optimizer optimizer(db, options);
  for (const auto& ws : workload.statements()) {
    DBLAYOUT_TRACE_SPAN("workload/plan_statement");
    auto plan = optimizer.Plan(ws.parsed);
    if (!plan.ok()) {
      return Status(plan.status().code(),
                    StrFormat("statement '%.60s...': %s", ws.sql.c_str(),
                              plan.status().message().c_str()));
    }
    StatementProfile sp;
    sp.sql = ws.sql;
    sp.weight = ws.weight;
    sp.stream = ws.stream;
    sp.plan = std::move(plan).value();
    sp.subplans = DecomposeIntoSubplans(*sp.plan);
    DBLAYOUT_OBS_COUNT("workload/statements_planned", 1);
    DBLAYOUT_OBS_COUNT("workload/subplans",
                       static_cast<int64_t>(sp.subplans.size()));
    profile.statements.push_back(std::move(sp));
  }
  return profile;
}

WorkloadProfile AnalyzeWorkloadLenient(const Database& db, const Workload& workload,
                                       std::vector<StatementAnalysisError>* errors,
                                       const OptimizerOptions& options) {
  DBLAYOUT_TRACE_SPAN("workload/analyze");
  WorkloadProfile profile;
  profile.num_objects = db.Objects().size();
  Optimizer optimizer(db, options);
  for (size_t i = 0; i < workload.statements().size(); ++i) {
    const WorkloadStatement& ws = workload.statement(i);
    DBLAYOUT_TRACE_SPAN("workload/plan_statement");
    auto plan = optimizer.Plan(ws.parsed);
    if (!plan.ok()) {
      if (errors != nullptr) {
        errors->push_back(StatementAnalysisError{i, ws.sql, plan.status()});
      }
      DBLAYOUT_OBS_COUNT("workload/statements_unplannable", 1);
      continue;
    }
    StatementProfile sp;
    sp.sql = ws.sql;
    sp.weight = ws.weight;
    sp.stream = ws.stream;
    sp.plan = std::move(plan).value();
    sp.subplans = DecomposeIntoSubplans(*sp.plan);
    DBLAYOUT_OBS_COUNT("workload/statements_planned", 1);
    DBLAYOUT_OBS_COUNT("workload/subplans",
                       static_cast<int64_t>(sp.subplans.size()));
    profile.statements.push_back(std::move(sp));
  }
  return profile;
}

std::vector<bool> ReferencedObjects(const WorkloadProfile& profile) {
  std::vector<bool> referenced(profile.num_objects, false);
  for (const auto& s : profile.statements) {
    for (const auto& sp : s.subplans) {
      for (const auto& a : sp.accesses) {
        if (a.object_id >= 0 && static_cast<size_t>(a.object_id) < referenced.size()) {
          referenced[static_cast<size_t>(a.object_id)] = true;
        }
      }
    }
  }
  return referenced;
}

WorkloadProfile MergeConcurrentStreams(const WorkloadProfile& profile) {
  WorkloadProfile out;
  out.num_objects = profile.num_objects;

  // Per stream, pipelines in execution order (bottom-up within a statement,
  // statements in workload order). Serial statements pass through.
  std::map<int, std::vector<const SubplanAccess*>> streams;
  for (const auto& s : profile.statements) {
    if (s.stream <= 0) {
      StatementProfile copy;
      copy.sql = s.sql;
      copy.weight = s.weight;
      copy.stream = s.stream;
      copy.plan = s.plan ? ClonePlan(*s.plan) : nullptr;
      copy.subplans = s.subplans;
      out.statements.push_back(std::move(copy));
      continue;
    }
    auto& queue = streams[s.stream];
    for (auto it = s.subplans.rbegin(); it != s.subplans.rend(); ++it) {
      queue.push_back(&*it);
    }
  }
  if (streams.empty()) return out;

  size_t rounds = 0;
  for (const auto& [id, queue] : streams) {
    (void)id;
    rounds = std::max(rounds, queue.size());
  }
  for (size_t r = 0; r < rounds; ++r) {
    StatementProfile merged;
    merged.sql = StrFormat("<concurrent round %zu>", r + 1);
    merged.weight = 1.0;
    SubplanAccess combined;
    for (const auto& [id, queue] : streams) {
      (void)id;
      if (r >= queue.size()) continue;
      for (const ObjectAccess& a : queue[r]->accesses) {
        combined.accesses.push_back(a);
      }
    }
    merged.subplans.push_back(std::move(combined));
    out.statements.push_back(std::move(merged));
  }
  return out;
}

namespace {

/// Writes AccessSignature(statement) into `sig`, which is cleared first:
/// `|` per sub-plan, then `%d:%.3f%c%c%c;` per access. std::to_chars prints
/// `%d` and `%.3f` (fixed, 3 decimals, round-to-nearest) byte for byte.
void WriteAccessSignature(const StatementProfile& statement, std::string* sig) {
  // Block counts are rounded to 3 decimals so float noise does not defeat
  // matching. A double's fixed form needs at most 309 integer digits.
  char buf[400];
  sig->clear();
  for (const auto& sp : statement.subplans) {
    *sig += '|';
    for (const auto& a : sp.accesses) {
      char* p = std::to_chars(buf, buf + sizeof(buf), a.object_id).ptr;
      *p++ = ':';
      p = std::to_chars(p, buf + sizeof(buf) - 4, a.blocks, std::chars_format::fixed, 3)
              .ptr;
      *p++ = a.is_write ? 'w' : 'r';
      *p++ = a.random ? '!' : '.';
      *p++ = a.read_modify_write ? 'm' : '.';
      *p++ = ';';
      sig->append(buf, p);
    }
  }
}

}  // namespace

std::string AccessSignature(const StatementProfile& statement) {
  std::string sig;
  WriteAccessSignature(statement, &sig);
  return sig;
}

ProfileAccessStats ComputeProfileStats(const WorkloadProfile& profile) {
  ProfileAccessStats stats;
  std::set<std::string> signatures;
  for (const auto& s : profile.statements) {
    ++stats.statements;
    stats.subplans += static_cast<int64_t>(s.subplans.size());
    if (s.stream > 0) {
      // Stream-tagged statements stay individual under CompressProfile.
      ++stats.distinct_signatures;
    } else {
      signatures.insert(AccessSignature(s));
    }
  }
  stats.distinct_signatures += static_cast<int64_t>(signatures.size());
  return stats;
}

void ProfileCompressor::Fold(const StatementProfile& statement, WorkloadProfile* out) {
  if (statement.stream <= 0) {
    WriteAccessSignature(statement, &signature_);
    const auto it = index_of_.find(signature_);
    if (it != index_of_.end()) {
      out->statements[it->second].weight += statement.weight;
      return;
    }
    index_of_.emplace(signature_, out->statements.size());
  }
  // A new representative; concurrent (stream-tagged) statements stay
  // individual and keep their tag and plan.
  StatementProfile& rep = out->statements.emplace_back();
  rep.sql = statement.sql;
  rep.weight = statement.weight;
  rep.subplans = statement.subplans;
  if (statement.stream > 0) {
    rep.stream = statement.stream;
    rep.plan = statement.plan ? ClonePlan(*statement.plan) : nullptr;
  }
}

WorkloadProfile CompressProfile(const WorkloadProfile& profile) {
  WorkloadProfile out;
  out.num_objects = profile.num_objects;
  ProfileCompressor compressor;
  for (const auto& s : profile.statements) compressor.Fold(s, &out);
  return out;
}

WeightedGraph BuildAccessGraph(const WorkloadProfile& profile) {
  DBLAYOUT_TRACE_SPAN("workload/build_access_graph");
  WeightedGraph g(profile.num_objects);
  for (const auto& s : profile.statements) {
    for (const auto& sp : s.subplans) {
      // Node weights: blocks of each object accessed in the sub-plan.
      for (const auto& a : sp.accesses) {
        g.AddNodeWeight(static_cast<size_t>(a.object_id), s.weight * a.blocks);
      }
      // Edge weights: for each pair of distinct objects co-accessed, the sum
      // of the blocks of the two objects (Fig. 6, step 5).
      for (size_t i = 0; i < sp.accesses.size(); ++i) {
        for (size_t j = i + 1; j < sp.accesses.size(); ++j) {
          const auto& a = sp.accesses[i];
          const auto& b = sp.accesses[j];
          if (a.object_id == b.object_id) continue;
          g.AddEdgeWeight(static_cast<size_t>(a.object_id),
                          static_cast<size_t>(b.object_id),
                          s.weight * (a.blocks + b.blocks));
        }
      }
    }
  }
  return g;
}

std::string AccessGraphToString(const WeightedGraph& g, const Database& db) {
  const auto& objects = db.Objects();
  std::string out = "access graph:\n";
  for (size_t u = 0; u < g.num_nodes(); ++u) {
    if (g.node_weight(u) <= 0 && g.Neighbors(u).empty()) continue;
    out += StrFormat("  %s (%.0f)\n", objects[u].name.c_str(), g.node_weight(u));
    // Sorted-neighbor order: this string lands in --explain output and test
    // expectations, so edge lines must not follow hash order.
    for (const auto& [v, w] : g.SortedNeighbors(u)) {
      if (u < v) {
        out += StrFormat("    -- %s : %.0f\n", objects[v].name.c_str(), w);
      }
    }
  }
  return out;
}

}  // namespace dblayout
