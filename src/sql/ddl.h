// Schema-description DDL: lets a database (schema + statistics) be loaded
// from a text file instead of built programmatically, so the advisor runs
// standalone (see tools/advise.cc).
//
// Grammar (statements end with ';'):
//
//   CREATE TABLE <name> (
//     <col> <type> [DISTINCT <n>] [RANGE <lo> <hi>]
//     [, ...]
//   ) ROWS <n> [CLUSTERED (<col> [, ...])] [MATERIALIZED VIEW];
//
//   CREATE INDEX <name> ON <table> (<col> [, ...]) [UNIQUE];
//
// Types: INT, BIGINT, DOUBLE, DECIMAL, CHAR(n), VARCHAR(n), DATE.
// RANGE bounds are numbers, or 'yyyy-mm-dd' strings for DATE columns.
// DISTINCT defaults to the table's row count for the leading clustered key
// and to min(rows, 100) otherwise. Line comments start with --.

#ifndef DBLAYOUT_SQL_DDL_H_
#define DBLAYOUT_SQL_DDL_H_

#include <string>

#include "catalog/catalog.h"
#include "common/result.h"

namespace dblayout {

/// Parses a schema script into a Database named `name`.
Result<Database> ParseSchemaScript(const std::string& name, const std::string& script);

/// Renders `db` back into the DDL dialect above (round-trips through
/// ParseSchemaScript); useful for exporting programmatically-built schemas.
std::string DumpSchema(const Database& db);

}  // namespace dblayout

#endif  // DBLAYOUT_SQL_DDL_H_
