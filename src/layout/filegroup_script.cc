#include "layout/filegroup_script.h"

#include <algorithm>
#include <cmath>

#include "common/strutil.h"

namespace dblayout {

namespace {

std::string Substitute(std::string tmpl, const std::string& key,
                       const std::string& value) {
  size_t pos;
  while ((pos = tmpl.find(key)) != std::string::npos) {
    tmpl.replace(pos, key.size(), value);
  }
  return tmpl;
}

}  // namespace

std::string GenerateFilegroupScript(const Layout& layout, const Database& db,
                                    const DiskFleet& fleet,
                                    const FilegroupScriptOptions& options) {
  const std::vector<int64_t> sizes = db.ObjectSizes();
  if (Status st = layout.Validate(sizes, fleet); !st.ok()) {
    return StrFormat("-- cannot generate script: %s\n", st.ToString().c_str());
  }
  const std::string dbname =
      options.database_name.empty() ? db.name() : options.database_name;
  const auto& objects = db.Objects();
  const std::vector<Filegroup> filegroups = InferFilegroups(layout);

  std::string out;
  out += StrFormat("-- Layout migration script for database [%s]\n", dbname.c_str());
  out += StrFormat("-- %zu filegroups over %d drives\n\n", filegroups.size(),
                   fleet.num_disks());

  for (size_t fg = 0; fg < filegroups.size(); ++fg) {
    const Filegroup& group = filegroups[fg];
    // Reuse the default primary filegroup for the group that spans every
    // drive only if no such convention is wanted; always create named ones.
    const std::string fg_name = StrFormat("FG%zu", fg + 1);
    std::vector<std::string> drive_names;
    for (int j : group.disks) drive_names.push_back(fleet.disk(j).name);
    out += StrFormat("-- filegroup %s on drives {%s}\n", fg_name.c_str(),
                     Join(drive_names, ", ").c_str());
    out += StrFormat("ALTER DATABASE [%s] ADD FILEGROUP [%s];\n", dbname.c_str(),
                     fg_name.c_str());
    std::vector<std::vector<int64_t>> rows;
    for (int i : group.objects) {
      rows.push_back(layout.RowBlocks(i, sizes[static_cast<size_t>(i)]));
    }
    for (int j : group.disks) {
      // File size: sum of this drive's share of every object in the group,
      // plus headroom.
      int64_t blocks = 0;
      for (const std::vector<int64_t>& row : rows) blocks += row[static_cast<size_t>(j)];
      const double mb = std::ceil(static_cast<double>(blocks) * kBlockBytes / 1e6 *
                                  (1.0 + options.headroom)) +
                        1;
      const std::string file_name = StrFormat("%s_%s", fg_name.c_str(),
                                              fleet.disk(j).name.c_str());
      std::string path = Substitute(options.path_template, "{disk}",
                                    fleet.disk(j).name);
      path = Substitute(path, "{file}", file_name);
      out += StrFormat(
          "ALTER DATABASE [%s] ADD FILE (NAME = '%s', FILENAME = '%s', "
          "SIZE = %.0fMB) TO FILEGROUP [%s];\n",
          dbname.c_str(), file_name.c_str(), path.c_str(), mb, fg_name.c_str());
    }
    out += '\n';
  }

  out += "-- object moves (rebuild each object on its filegroup)\n";
  for (size_t fg = 0; fg < filegroups.size(); ++fg) {
    const Filegroup& group = filegroups[fg];
    const std::string fg_name = StrFormat("FG%zu", fg + 1);
    for (int i : group.objects) {
      const DatabaseObject& obj = objects[static_cast<size_t>(i)];
      switch (obj.kind) {
        case ObjectKind::kClusteredIndex: {
          const Table* t = db.FindTable(obj.table_name);
          out += StrFormat(
              "CREATE CLUSTERED INDEX [cix_%s] ON [%s] (%s) WITH "
              "(DROP_EXISTING = ON) ON [%s];\n",
              obj.table_name.c_str(), obj.table_name.c_str(),
              t != nullptr ? Join(t->clustered_key, ", ").c_str() : "?",
              fg_name.c_str());
          break;
        }
        case ObjectKind::kHeap:
        case ObjectKind::kMaterializedView:
        case ObjectKind::kTempDb:
          out += StrFormat("-- move heap/view [%s] to [%s] "
                           "(e.g. via clustered index create/drop)\n",
                           obj.name.c_str(), fg_name.c_str());
          break;
        case ObjectKind::kNonClusteredIndex: {
          const Index* ix = db.FindIndex(obj.table_name, obj.index_name);
          out += StrFormat(
              "CREATE INDEX [%s] ON [%s] (%s) WITH (DROP_EXISTING = ON) "
              "ON [%s];\n",
              obj.index_name.c_str(), obj.table_name.c_str(),
              ix != nullptr ? Join(ix->key_columns, ", ").c_str() : "?",
              fg_name.c_str());
          break;
        }
      }
    }
  }
  return out;
}

}  // namespace dblayout
