// The JSONL result codec and the checkpoint manifest: doubles must
// survive encode/decode *bitwise* (the multi-process determinism and
// kill/resume guarantees rest on it), and the loader must tolerate the
// debris a SIGKILL leaves — a truncated final line — while refusing
// nothing else silently. Since the durability PR the manifest rides on
// the crash-safe durable log: every line carries a CRC-32 suffix,
// corruption anywhere is detected and reported (malformedLines +
// corruptTail — never a silent skip), and reopening a damaged manifest
// quarantines everything past the valid prefix so the resumed run
// recomputes it.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/checkpoint.hpp"
#include "runtime/durable_log.hpp"
#include "runtime/result_io.hpp"
#include "support/error.hpp"

namespace ncg::runtime {
namespace {

std::string tempPath(const char* name) {
  return ::testing::TempDir() + "ncg_checkpoint_test_" + name + ".jsonl";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void spit(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

/// Flips one byte inside the payload of line `index` (0 = header) —
/// mid-file bit rot, not a torn tail.
void garbleLine(const std::string& path, std::size_t index) {
  std::string content = slurp(path);
  std::size_t begin = 0;
  for (std::size_t skipped = 0; skipped < index; ++skipped) {
    begin = content.find('\n', begin);
    ASSERT_NE(begin, std::string::npos);
    ++begin;
  }
  ASSERT_LT(begin + 2, content.size());
  content[begin + 2] = content[begin + 2] == 'Z' ? 'Y' : 'Z';
  spit(path, content);
}

TEST(ResultIo, TrialLineRoundTripsBitwise) {
  const std::vector<double> exotic = {
      0.0,
      -0.0,
      1.0,
      -1.0 / 3.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      6.02214076e23,
  };
  const TrialRecord record{7, 3, exotic};
  const auto decoded = decodeTrialLine(encodeTrialLine(record));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->point, 7);
  EXPECT_EQ(decoded->trial, 3);
  ASSERT_EQ(decoded->metrics.size(), exotic.size());
  for (std::size_t i = 0; i < exotic.size(); ++i) {
    // Bit-pattern comparison: exact for NaN and signed zero too.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded->metrics[i]),
              std::bit_cast<std::uint64_t>(exotic[i]))
        << "metric " << i;
  }
}

TEST(ResultIo, EmptyMetricsRoundTrip) {
  const TrialRecord record{0, 0, {}};
  const auto decoded = decodeTrialLine(encodeTrialLine(record));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->metrics.empty());
}

TEST(ResultIo, RejectsMalformedAndTruncatedTrialLines) {
  const std::string good = encodeTrialLine({1, 2, {1.5, -2.5}});
  ASSERT_TRUE(decodeTrialLine(good).has_value());
  // Every strict prefix is rejected — a torn write can never half-count.
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(decodeTrialLine(good.substr(0, len)).has_value())
        << "prefix length " << len;
  }
  EXPECT_FALSE(decodeTrialLine(good + "x").has_value());
  EXPECT_FALSE(decodeTrialLine("{}").has_value());
  EXPECT_FALSE(decodeTrialLine("").has_value());
  // Indices outside int's range are rejected, never wrapped or cast.
  for (const char* bad :
       {"{\"point\":-1,\"trial\":0,\"bits\":[],\"values\":[]}",
        "{\"point\":18446744073709551616,\"trial\":0,\"bits\":[],"
        "\"values\":[]}",
        "{\"point\":0,\"trial\":4294967297,\"bits\":[],\"values\":[]}"}) {
    EXPECT_FALSE(decodeTrialLine(bad).has_value()) << bad;
  }
  const auto edge =
      decodeTrialLine("{\"point\":2147483647,\"trial\":0,\"bits\":[],"
                      "\"values\":[]}");
  ASSERT_TRUE(edge.has_value());
  EXPECT_EQ(edge->point, std::numeric_limits<int>::max());
}

TEST(ResultIo, HeaderLineRoundTrips) {
  const ResultHeader header{"fig10_convergence", 0xDEADBEEFCAFEF00DULL, 54,
                            432};
  const auto decoded = decodeHeaderLine(encodeHeaderLine(header));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, header);
  EXPECT_FALSE(decodeHeaderLine("not a header").has_value());
  EXPECT_FALSE(
      decodeHeaderLine(encodeTrialLine({0, 0, {1.0}})).has_value());
  EXPECT_FALSE(decodeHeaderLine(encodeHeaderLine(header) + "x").has_value());
}

TEST(Checkpoint, WriteThenLoadRestoresHeaderAndRecords) {
  const std::string path = tempPath("roundtrip");
  std::remove(path.c_str());
  const ResultHeader header{"smoke_dynamics", 42, 4, 12};
  {
    CheckpointWriter writer(path, header);
    ASSERT_TRUE(writer.enabled());
    writer.append({0, 0, {1.0, 2.0}});
    writer.append({3, 2, {-0.5}});
  }
  const CheckpointLoad load = loadCheckpoint(path);
  EXPECT_TRUE(load.exists);
  ASSERT_TRUE(load.headerValid);
  EXPECT_EQ(load.header, header);
  ASSERT_EQ(load.records.size(), 2U);
  EXPECT_EQ(load.records[0], (TrialRecord{0, 0, {1.0, 2.0}}));
  EXPECT_EQ(load.records[1], (TrialRecord{3, 2, {-0.5}}));
  EXPECT_EQ(load.malformedLines, 0U);
  std::remove(path.c_str());
}

TEST(Checkpoint, ReopenAppendsWithoutDuplicatingTheHeader) {
  const std::string path = tempPath("reopen");
  std::remove(path.c_str());
  const ResultHeader header{"smoke_dynamics", 42, 4, 12};
  {
    CheckpointWriter writer(path, header);
    writer.append({0, 0, {1.0}});
  }
  {
    CheckpointWriter writer(path, header);  // simulated resume
    writer.append({0, 1, {2.0}});
  }
  const CheckpointLoad load = loadCheckpoint(path);
  ASSERT_TRUE(load.headerValid);
  ASSERT_EQ(load.records.size(), 2U);
  EXPECT_EQ(load.malformedLines, 0U);
  std::remove(path.c_str());
}

TEST(Checkpoint, TruncatedFinalLineIsSkippedNotFatal) {
  const std::string path = tempPath("torn");
  std::remove(path.c_str());
  {
    CheckpointWriter writer(path, {"s", 1, 1, 2});
    writer.append({0, 0, {1.0}});
  }
  {
    // A kill mid-write: append half a line, no newline.
    std::FILE* f = std::fopen(path.c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"point\":0,\"trial\":1,\"bits\":[\"0x3FF0", f);
    std::fclose(f);
  }
  const CheckpointLoad load = loadCheckpoint(path);
  ASSERT_TRUE(load.headerValid);
  ASSERT_EQ(load.records.size(), 1U);
  EXPECT_EQ(load.malformedLines, 1U);
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileAndGarbageFileAreReportedNotThrown) {
  const CheckpointLoad missing = loadCheckpoint(tempPath("does_not_exist"));
  EXPECT_FALSE(missing.exists);
  EXPECT_FALSE(missing.headerValid);

  const std::string path = tempPath("garbage");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not\na manifest\n", f);
    std::fclose(f);
  }
  const CheckpointLoad garbage = loadCheckpoint(path);
  EXPECT_TRUE(garbage.exists);
  EXPECT_FALSE(garbage.headerValid);
  EXPECT_TRUE(garbage.records.empty());
  EXPECT_EQ(garbage.malformedLines, 2U);
  std::remove(path.c_str());
}

TEST(Checkpoint, WriterThrowsWhenPathIsUnwritable) {
  EXPECT_THROW(
      CheckpointWriter("/nonexistent-dir/ck.jsonl", ResultHeader{}), Error);
}

TEST(DurableLog, ChecksumRoundTripRejectsTamperAcceptsLegacy) {
  const std::string payload = encodeTrialLine({1, 2, {0.25, -8.0}});
  const std::string line = withLineChecksum(payload);
  ASSERT_EQ(line.size(), payload.size() + 9);  // '#' + 8 hex digits
  const auto verified = verifyLineChecksum(line);
  ASSERT_TRUE(verified.has_value());
  EXPECT_TRUE(verified->checksummed);
  EXPECT_EQ(verified->payload, payload);

  // One flipped payload byte under an intact suffix → rejected.
  std::string tampered = line;
  tampered[1] = tampered[1] == 'X' ? 'Y' : 'X';
  EXPECT_FALSE(verifyLineChecksum(tampered).has_value());

  // One flipped suffix digit → rejected.
  std::string badSuffix = line;
  badSuffix.back() = badSuffix.back() == '0' ? '1' : '0';
  EXPECT_FALSE(verifyLineChecksum(badSuffix).has_value());

  // No syntactically valid suffix at all → a legacy line, passed
  // through whole for the strict decoder to judge.
  const auto legacy = verifyLineChecksum(payload);
  ASSERT_TRUE(legacy.has_value());
  EXPECT_FALSE(legacy->checksummed);
  EXPECT_EQ(legacy->payload, payload);
}

TEST(DurableLog, ParseDurabilityPolicyIsStrict) {
  const auto flush = parseDurabilityPolicy("flush");
  ASSERT_TRUE(flush.has_value());
  EXPECT_EQ(flush->kind, DurabilityPolicy::Kind::kFlush);

  const auto fsync = parseDurabilityPolicy("fsync");
  ASSERT_TRUE(fsync.has_value());
  EXPECT_EQ(fsync->kind, DurabilityPolicy::Kind::kFsync);
  EXPECT_EQ(fsync->fsyncEveryN, 1);

  const auto cadence = parseDurabilityPolicy("fsync:4");
  ASSERT_TRUE(cadence.has_value());
  EXPECT_EQ(cadence->kind, DurabilityPolicy::Kind::kFsync);
  EXPECT_EQ(cadence->fsyncEveryN, 4);

  for (const char* bad : {"", "Flush", "fsync:", "fsync:0", "fsync:-1",
                          "fsync:2x", "flush:1", "sync"}) {
    EXPECT_FALSE(parseDurabilityPolicy(bad).has_value()) << bad;
  }
}

TEST(Checkpoint, LegacyManifestWithoutChecksumsStillLoads) {
  const std::string path = tempPath("legacy");
  const ResultHeader header{"smoke_dynamics", 42, 4, 12};
  spit(path, encodeHeaderLine(header) + "\n" +
                 encodeTrialLine({0, 0, {1.5}}) + "\n");
  const CheckpointLoad load = loadCheckpoint(path);
  ASSERT_TRUE(load.headerValid);
  EXPECT_EQ(load.header, header);
  ASSERT_EQ(load.records.size(), 1U);
  EXPECT_EQ(load.records[0], (TrialRecord{0, 0, {1.5}}));
  EXPECT_EQ(load.malformedLines, 0U);
  EXPECT_EQ(load.validPrefixRecords, 1U);
  EXPECT_FALSE(load.corruptTail);
  std::remove(path.c_str());
}

TEST(Checkpoint, MidFileGarbledLineIsDetectedAndReportedNeverSkipped) {
  const std::string path = tempPath("garbled");
  std::remove(path.c_str());
  {
    CheckpointWriter writer(path, {"s", 1, 1, 3});
    writer.append({0, 0, {1.0}});
    writer.append({0, 1, {2.0}});
    writer.append({0, 2, {3.0}});
  }
  garbleLine(path, 2);  // the second record — mid-file, not a torn tail

  const CheckpointLoad load = loadCheckpoint(path);
  ASSERT_TRUE(load.headerValid);
  // The lenient view still decodes the lines around the damage, but
  // the corruption is *reported*: one malformed line, a corrupt tail,
  // and a trusted prefix that stops before it.
  ASSERT_EQ(load.records.size(), 2U);
  EXPECT_EQ(load.records[0], (TrialRecord{0, 0, {1.0}}));
  EXPECT_EQ(load.records[1], (TrialRecord{0, 2, {3.0}}));
  EXPECT_EQ(load.malformedLines, 1U);
  EXPECT_TRUE(load.corruptTail);
  EXPECT_EQ(load.validPrefixRecords, 1U);
  std::remove(path.c_str());
}

TEST(Checkpoint, ReopenQuarantinesTheCorruptTailAndResumesFromThePrefix) {
  const std::string path = tempPath("quarantine");
  const std::string quarantine = quarantinePath(path);
  std::remove(path.c_str());
  std::remove(quarantine.c_str());
  const ResultHeader header{"s", 1, 1, 3};
  {
    CheckpointWriter writer(path, header);
    writer.append({0, 0, {1.0}});
    writer.append({0, 1, {2.0}});
    writer.append({0, 2, {3.0}});
  }
  garbleLine(path, 2);
  const std::string damaged = slurp(path);

  {
    CheckpointWriter writer(path, header);  // the resume reopen
    const LogOpenReport& report = writer.openReport();
    EXPECT_TRUE(report.existed);
    EXPECT_EQ(report.validPrefixLines, 2U);  // header + first record
    EXPECT_GT(report.quarantinedBytes, 0U);
    // The quarantine holds the removed tail verbatim: the garbled line
    // AND the valid-looking record after it (which resume must not
    // trust — it sits past the corruption).
    EXPECT_EQ(slurp(quarantine),
              damaged.substr(damaged.size() - report.quarantinedBytes));
    // The salvaged manifest resumes: recompute what was quarantined.
    writer.append({0, 1, {2.0}});
    writer.append({0, 2, {3.0}});
  }

  const CheckpointLoad load = loadCheckpoint(path);
  ASSERT_TRUE(load.headerValid);
  ASSERT_EQ(load.records.size(), 3U);
  EXPECT_EQ(load.malformedLines, 0U);
  EXPECT_FALSE(load.corruptTail);
  EXPECT_EQ(load.validPrefixRecords, 3U);
  std::remove(path.c_str());
  std::remove(quarantine.c_str());
}

}  // namespace
}  // namespace ncg::runtime
