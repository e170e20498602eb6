#include "storage/block_map.h"

#include "common/strutil.h"

namespace dblayout {

Result<BlockMap> BlockMap::Materialize(const Layout& layout,
                                       const std::vector<int64_t>& object_blocks,
                                       const DiskFleet& fleet) {
  DBLAYOUT_RETURN_NOT_OK(layout.Validate(object_blocks, fleet));
  BlockMap map;
  map.extents_.resize(static_cast<size_t>(layout.num_objects()));
  map.used_.assign(static_cast<size_t>(fleet.num_disks()), 0);
  for (int i = 0; i < layout.num_objects(); ++i) {
    const std::vector<int64_t> row =
        layout.RowBlocks(i, object_blocks[static_cast<size_t>(i)]);
    for (int j = 0; j < layout.num_disks(); ++j) {
      const int64_t count = row[static_cast<size_t>(j)];
      if (count <= 0) continue;
      auto& used = map.used_[static_cast<size_t>(j)];
      if (used + count > fleet.disk(j).capacity_blocks) {
        return Status::CapacityExceeded(
            StrFormat("materializing object %d overflows disk %s", i,
                      fleet.disk(j).name.c_str()));
      }
      map.extents_[static_cast<size_t>(i)].push_back(
          ObjectExtent{j, used, count});
      used += count;
    }
  }
  return map;
}

int64_t BlockMap::BlocksOnDisk(int i, int j) const {
  for (const auto& e : extents_[static_cast<size_t>(i)]) {
    if (e.disk == j) return e.num_blocks;
  }
  return 0;
}

}  // namespace dblayout
