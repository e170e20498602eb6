#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/strutil.h"
#include "service/checkpoint.h"
#include "service/config.h"
#include "service/supervisor.h"
#include "storage/layout.h"
#include "tests/golden_test_util.h"

namespace dblayout {
namespace {

Column IntKey(const std::string& name, int64_t distinct) {
  Column c;
  c.name = name;
  c.type = ColumnType::kInt;
  c.distinct_count = distinct;
  c.min_value = 1;
  c.max_value = static_cast<double>(distinct);
  return c;
}

Database MicroDb() {
  Database db("micro");
  for (const char* name : {"big_a", "big_b", "solo"}) {
    Table t;
    t.name = name;
    t.row_count = 300'000;
    t.columns = {IntKey(std::string(name) + "_k", 300'000)};
    Column pay;
    pay.name = std::string(name) + "_p";
    pay.type = ColumnType::kChar;
    pay.declared_length = 120;
    t.columns.push_back(pay);
    t.clustered_key = {t.columns[0].name};
    EXPECT_TRUE(db.AddTable(t).ok());
  }
  return db;
}

constexpr char kJoinAB[] =
    "SELECT COUNT(*) FROM big_a, big_b WHERE big_a_k = big_b_k";
constexpr char kScanA[] = "SELECT COUNT(*) FROM big_a";
constexpr char kScanSolo[] = "SELECT COUNT(*) FROM solo";

ServiceConfig MicroConfig() {
  ServiceConfig config;
  config.window_size = 2;
  config.max_move_fraction = 1.0;
  config.seed = 7;
  return config;
}

/// The phased two-tenant stream the round-trip tests replay: session 1 goes
/// through promote + rollback, session 2 stays light.
std::vector<std::pair<int, std::string>> MicroStream() {
  std::vector<std::pair<int, std::string>> stream;
  for (int i = 0; i < 4; ++i) {
    stream.emplace_back(1, kJoinAB);
    if (i % 2 == 0) stream.emplace_back(2, kScanSolo);
  }
  for (int i = 0; i < 6; ++i) stream.emplace_back(1, kScanA);
  stream.emplace_back(2, kScanSolo);
  return stream;
}

std::string LayoutsDigest(const Supervisor& supervisor, const Database& db,
                          const DiskFleet& fleet) {
  std::vector<std::string> names;
  for (const auto& o : db.Objects()) names.push_back(o.name);
  std::string digest;
  for (const auto& [id, session] : supervisor.sessions()) {
    digest += std::to_string(id) + ":" + SessionModeName(session->mode()) +
              ":" + GuardrailStageName(session->stage()) + ":" +
              std::to_string(session->promotions()) + ":" +
              std::to_string(session->rollbacks()) + "\n";
    digest += session->active_layout().ToCsv(names, fleet);
  }
  return digest;
}

class TempFile {
 public:
  explicit TempFile(const char* name)
      : path_(testing::TempDir() + "/" + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// --- Serialization round-trip -----------------------------------------------

ServiceSnapshot SampleSnapshot() {
  ServiceSnapshot snap;
  snap.config_fingerprint = MicroConfig().Fingerprint();
  snap.statements_consumed = 11;
  snap.windows_closed = 5;
  SessionSnapshot s;
  s.id = 3;
  s.mode = "degraded";
  s.stage = "observing";
  s.streak = 1;
  s.windows_closed = 4;
  s.statements_ingested = 9;
  s.advises = 2;
  s.promotions = 1;
  s.rollbacks = 1;
  s.deadline_misses = 1;
  s.degraded_reason = "profile-budget";
  s.profile = {{kJoinAB, 4.0, 0}, {kScanA, 1.5, 2}};
  s.pending = {{kScanSolo, 1.0, 0}};
  s.active_csv = "object,d0\nbig_a,1\n";
  s.last_good_csv = "object,d0\nbig_a,1\n";
  s.candidate_csv = "";
  s.adopted_shares = {0.5, 0.25, 0.25};
  snap.sessions.push_back(s);
  return snap;
}

TEST(CheckpointTest, SerializeParseRoundTrip) {
  const ServiceSnapshot snap = SampleSnapshot();
  auto parsed = ParseCheckpoint(SerializeCheckpoint(snap));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  EXPECT_EQ(parsed->version, kCheckpointSchemaVersion);
  EXPECT_EQ(parsed->config_fingerprint, snap.config_fingerprint);
  EXPECT_EQ(parsed->statements_consumed, 11);
  EXPECT_EQ(parsed->windows_closed, 5);
  ASSERT_EQ(parsed->sessions.size(), 1u);
  const SessionSnapshot& s = parsed->sessions[0];
  EXPECT_EQ(s.id, 3);
  EXPECT_EQ(s.mode, "degraded");
  EXPECT_EQ(s.stage, "observing");
  EXPECT_EQ(s.streak, 1);
  EXPECT_EQ(s.windows_closed, 4);
  EXPECT_EQ(s.statements_ingested, 9);
  EXPECT_EQ(s.advises, 2);
  EXPECT_EQ(s.promotions, 1);
  EXPECT_EQ(s.rollbacks, 1);
  EXPECT_EQ(s.deadline_misses, 1);
  EXPECT_EQ(s.degraded_reason, "profile-budget");
  ASSERT_EQ(s.profile.size(), 2u);
  EXPECT_EQ(s.profile[0].sql, kJoinAB);
  EXPECT_DOUBLE_EQ(s.profile[0].weight, 4.0);
  EXPECT_EQ(s.profile[1].stream, 2);
  ASSERT_EQ(s.pending.size(), 1u);
  EXPECT_EQ(s.pending[0].sql, kScanSolo);
  EXPECT_EQ(s.active_csv, "object,d0\nbig_a,1\n");
  EXPECT_EQ(s.last_good_csv, "object,d0\nbig_a,1\n");
  EXPECT_TRUE(s.candidate_csv.empty());
  ASSERT_EQ(s.adopted_shares.size(), 3u);
  EXPECT_DOUBLE_EQ(s.adopted_shares[0], 0.5);
}

TEST(CheckpointTest, SerializationIsDeterministic) {
  const ServiceSnapshot snap = SampleSnapshot();
  EXPECT_EQ(SerializeCheckpoint(snap), SerializeCheckpoint(snap));
}

TEST(CheckpointTest, ParseRejectsSchemaVersionMismatch) {
  std::string text = SerializeCheckpoint(SampleSnapshot());
  const std::string needle = "\"v\":" + std::to_string(kCheckpointSchemaVersion);
  const auto pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, needle.size(),
               "\"v\":" + std::to_string(kCheckpointSchemaVersion + 1));
  auto parsed = ParseCheckpoint(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().ToString().find("version"), std::string::npos);
}

TEST(CheckpointTest, ParseRejectsTruncation) {
  const std::string text = SerializeCheckpoint(SampleSnapshot());
  // Every strict prefix must fail — a torn write can stop anywhere.
  for (size_t len : {size_t{0}, size_t{1}, text.size() / 2, text.size() - 2}) {
    EXPECT_FALSE(ParseCheckpoint(text.substr(0, len)).ok())
        << "prefix of length " << len << " parsed";
  }
}

TEST(CheckpointTest, ParseRejectsMissingFields) {
  EXPECT_FALSE(ParseCheckpoint("{}").ok());
  EXPECT_FALSE(ParseCheckpoint("not json").ok());
  EXPECT_FALSE(
      ParseCheckpoint("{\"v\":1,\"statements_consumed\":0}").ok());
}

// Every integer field must hold an integer in its field's range: int64_t
// for the counts that may exceed 2^31, int for the rest.
TEST(CheckpointTest, ParseRejectsNonIntegerCounts) {
  const std::string text = SerializeCheckpoint(SampleSnapshot());
  struct Field {
    const char* key;
    const char* written;  ///< the key and value SampleSnapshot writes
    bool is_int;
  };
  const Field fields[] = {
      {"v", "\"v\":1", true},
      {"statements_consumed", "\"statements_consumed\":11", false},
      {"windows_closed", "\"windows_closed\":5", false},
      {"id", "\"id\":3", true},
      {"streak", "\"streak\":1", true},
      {"windows_closed", "\"windows_closed\":4", true},
      {"statements_ingested", "\"statements_ingested\":9", false},
      {"advises", "\"advises\":2", true},
      {"promotions", "\"promotions\":1", true},
      {"rollbacks", "\"rollbacks\":1", true},
      {"deadline_misses", "\"deadline_misses\":1", true},
      {"stream", "\"stream\":2", true},
  };
  ASSERT_EQ(kCheckpointSchemaVersion, 1);
  for (const Field& f : fields) {
    const size_t pos = text.find(f.written);
    ASSERT_NE(pos, std::string::npos) << f.written;
    ASSERT_EQ(text.find(f.written, pos + 1), std::string::npos) << f.written;
    std::vector<std::string> bad = {"1e300", "-1e300", "1e19", "2.5"};
    if (f.is_int) bad.push_back("3e9");
    for (const std::string& value : bad) {
      std::string edited = text;
      edited.replace(pos, std::strlen(f.written),
                     StrFormat("\"%s\":%s", f.key, value.c_str()));
      const auto parsed = ParseCheckpoint(edited);
      ASSERT_FALSE(parsed.ok()) << f.written << " -> " << value;
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(parsed.status().message().find(StrFormat("field '%s'", f.key)),
                std::string::npos)
          << parsed.status().message();
    }
  }
}

// --- File round-trip --------------------------------------------------------

TEST(CheckpointTest, WriteAtomicReadRoundTrip) {
  TempFile file("ck_roundtrip.json");
  const ServiceSnapshot snap = SampleSnapshot();
  ASSERT_TRUE(WriteCheckpointAtomic(snap, file.path()).ok());
  auto read = ReadCheckpoint(file.path());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(SerializeCheckpoint(read.value()), SerializeCheckpoint(snap));

  // Overwrite in place: the rename replaces the old checkpoint whole.
  ServiceSnapshot snap2 = snap;
  snap2.statements_consumed = 99;
  ASSERT_TRUE(WriteCheckpointAtomic(snap2, file.path()).ok());
  auto read2 = ReadCheckpoint(file.path());
  ASSERT_TRUE(read2.ok());
  EXPECT_EQ(read2->statements_consumed, 99);
}

TEST(CheckpointTest, ReadMissingFileIsNotFound) {
  auto read = ReadCheckpoint(testing::TempDir() + "/no_such_checkpoint.json");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointTest, CorruptedFileIsRejectedWithClearStatus) {
  TempFile file("ck_corrupt.json");
  ASSERT_TRUE(WriteCheckpointAtomic(SampleSnapshot(), file.path()).ok());
  // Truncate the file mid-document (a torn write without the atomic rename).
  auto full = ReadCheckpoint(file.path());
  ASSERT_TRUE(full.ok());
  const std::string text = SerializeCheckpoint(full.value());
  {
    std::ofstream out(file.path(), std::ios::trunc);
    out << text.substr(0, text.size() / 3);
  }
  auto read = ReadCheckpoint(file.path());
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().ToString().find("corrupted or truncated"),
            std::string::npos);
}

// --- Snapshot → restore → continue ------------------------------------------

TEST(CheckpointTest, RestoreRefusesConfigFingerprintMismatch) {
  const Database db = MicroDb();
  const DiskFleet fleet = DiskFleet::Uniform(4);
  Supervisor supervisor(db, fleet, MicroConfig(), nullptr);
  ASSERT_TRUE(supervisor.OnStatement(1, kJoinAB).ok());
  const ServiceSnapshot snap = supervisor.Snapshot();

  ServiceConfig other = MicroConfig();
  other.drift_threshold = 0.5;
  auto restored = Supervisor::Restore(snap, db, fleet, other, nullptr);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(
      restored.status().ToString().find("different service configuration"),
      std::string::npos);
}

TEST(CheckpointTest, ThreadCountDoesNotChangeTheFingerprint) {
  ServiceConfig a = MicroConfig();
  ServiceConfig b = MicroConfig();
  b.num_threads = 8;
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  b.drift_threshold = 0.5;
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

/// The headline robustness contract: snapshot after any prefix, restore,
/// replay the remainder — final layouts and guardrail counters are identical
/// to the uninterrupted run's, at any thread count.
TEST(CheckpointTest, SnapshotRestoreContinueIsBitIdentical) {
  const Database db = MicroDb();
  const DiskFleet fleet = DiskFleet::Uniform(4);
  const auto stream = MicroStream();

  for (int threads : {1, 3}) {
    ServiceConfig config = MicroConfig();
    config.num_threads = threads;

    Supervisor uninterrupted(db, fleet, config, nullptr);
    for (const auto& [sid, sql] : stream) {
      ASSERT_TRUE(uninterrupted.OnStatement(sid, sql).ok());
    }
    ASSERT_TRUE(uninterrupted.FlushAll().ok());
    const std::string expected = LayoutsDigest(uninterrupted, db, fleet);

    // Crash after every possible prefix, including mid-window.
    for (size_t cut = 1; cut < stream.size(); cut += 3) {
      Supervisor first(db, fleet, config, nullptr);
      for (size_t i = 0; i < cut; ++i) {
        ASSERT_TRUE(first.OnStatement(stream[i].first, stream[i].second).ok());
      }
      // Serialize through the wire format, like a real restart would.
      auto parsed = ParseCheckpoint(SerializeCheckpoint(first.Snapshot()));
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      auto second = Supervisor::Restore(parsed.value(), db, fleet, config, nullptr);
      ASSERT_TRUE(second.ok()) << second.status().ToString();
      ASSERT_EQ((*second)->statements_consumed(), static_cast<int64_t>(cut));
      for (size_t i = cut; i < stream.size(); ++i) {
        ASSERT_TRUE(
            (*second)->OnStatement(stream[i].first, stream[i].second).ok());
      }
      ASSERT_TRUE((*second)->FlushAll().ok());
      EXPECT_EQ(LayoutsDigest(**second, db, fleet), expected)
          << "divergence when resuming from a checkpoint after " << cut
          << " statements at " << threads << " thread(s)";
    }
  }
}

// --- Byte goldens ------------------------------------------------------------
//
// The exact bytes a checkpoint serializes to, so that a change to its
// writers (JsonString, JsonDouble, JsonInt, Layout::ToCsv,
// SerializeCheckpoint) that promises identical output can prove it.
//
// Regenerate (only when the checkpoint format is meant to change):
//   DBLAYOUT_UPDATE_GOLDEN=1 build/tests/dblayout_tests --gtest_filter='CheckpointTest.*Golden'

/// The service benchmark's pass: the seed-31 phased stream through one
/// Supervisor (16-statement windows, default config otherwise), serialized
/// every 64 statements and once after the end-of-stream flush. One line per
/// checkpoint: index, statements consumed, bytes, FNV-1a of the bytes.
TEST(CheckpointTest, PhasedStreamMatchesGolden) {
  const Database db = benchdata::MakeTpchDatabase(1.0);
  const DiskFleet fleet = testutil::ServeFleet();
  ServiceConfig config;
  config.window_size = 16;
  Supervisor supervisor(db, fleet, config, nullptr);
  const std::vector<std::string> stream = testutil::PhasedStream(31);
  std::string got;
  int checkpoints = 0;
  const auto record = [&] {
    const std::string text = SerializeCheckpoint(supervisor.Snapshot());
    got += StrFormat("%d %lld %zu %016llx\n", checkpoints++,
                     static_cast<long long>(supervisor.statements_consumed()),
                     text.size(),
                     static_cast<unsigned long long>(testutil::Fnv1a(text)));
  };
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(supervisor.OnStatement(static_cast<int>(i % 3) + 1, stream[i]).ok());
    if ((i + 1) % 64 == 0) record();
  }
  ASSERT_TRUE(supervisor.FlushAll().ok());
  record();
  EXPECT_EQ(checkpoints, 28);
  testutil::ExpectMatchesGolden(got, "checkpoint_digests.txt");
}

/// A hand-built snapshot whose text holds every escape JsonString writes,
/// UTF-8, integer, fractional, tiny, subnormal and non-finite numbers, and a
/// layout CSV with exact and inexact cells. The whole text is the golden.
TEST(CheckpointTest, EdgeValuesMatchGolden) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ServiceSnapshot snap;
  snap.config_fingerprint = "fp \"quoted\" back\\slash";
  snap.statements_consumed = int64_t{9007199254740993};  // 2^53 + 1
  snap.windows_closed = std::numeric_limits<int64_t>::max();
  SessionSnapshot s;
  s.id = 7;
  s.mode = "degraded";
  s.stage = "promoted";
  s.streak = -1;
  s.windows_closed = std::numeric_limits<int>::max();
  s.statements_ingested = std::numeric_limits<int64_t>::min();
  s.degraded_reason = "tab\there";
  const std::string sql =
      "SELECT \"q\" FROM t WHERE a = '\\' --\n\r\t\x01\x1f\x7f caf\xc3\xa9 \xe2\x82\xac";
  int stream = 0;
  for (const double w : {1.0, 34.0, 999999.0, 1e6, 1.5, 0.1, 123456.5, 1e-7, 5e-324}) {
    s.profile.push_back({sql, w, stream++});
  }
  s.pending = {{"", -2.5, -1}, {std::string("nul\0byte", 8), 1e21, 0}};
  const DiskFleet fleet = DiskFleet::Uniform(5);
  Layout layout(3, 5);
  const double cells[3][5] = {{0, 1, 1.0 / 3, 0.1, 5e-324},
                              {2.0 / 3, 1e-300, 0.30000000000000004, 1e16, -0.0},
                              {1.7976931348623157e308, 123456789.125, 1e-7, 0.5, 1e6}};
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 5; ++j) layout.set_x(i, j, cells[i][j]);
  }
  s.active_csv = layout.ToCsv({"alpha", "beta"}, fleet);  // row 3 is named R3
  s.candidate_csv = "object,D1\nalpha,1\n";
  s.adopted_shares = {1.0 / 3, 1e-310, 0, -0.0, 2.0 / 3, 1e21, 1e-5,
                      123456789012345678.0, 0.30000000000000004, 1.7976931348623157e308,
                      -5e-324, std::numeric_limits<double>::quiet_NaN(), kInf, -kInf};
  snap.sessions.push_back(s);
  testutil::ExpectMatchesGolden(SerializeCheckpoint(snap), "checkpoint_edge_golden.json");
}

}  // namespace
}  // namespace dblayout
