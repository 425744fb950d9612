// Seeded mutation test of every decoder of untrusted runtime bytes: the
// trial, timing and header lines, the lease-grant and kWelcome
// payloads, and whole CRC-tagged logs (the result manifest and the
// timing sidecar). Mutants are byte flips, digit insertions,
// truncations and splices of valid inputs, drawn from one fixed seed
// with a fixed budget, so a failure reproduces exactly. Invariants:
//
//   F1. No decoder crashes (the sanitizer build turns a memory error
//       into a crash too).
//   F2. Every accepted payload p satisfies
//       decode(encode(decode(p))) == decode(p), metrics compared as
//       bits (a flip can make a NaN).
//   F3. Digits inserted into an integer field that push it past the
//       field's range get the payload rejected, never wrapped or cast.
//   F4. Rescanning a log's reported valid prefix gives the same prefix
//       and records with no malformed line, and the writer's open-time
//       salvage keeps exactly that prefix.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/durable_log.hpp"
#include "runtime/result_io.hpp"
#include "runtime/timing.hpp"
#include "runtime/wire.hpp"
#include "support/random.hpp"

namespace ncg::runtime {
namespace {

constexpr std::uint64_t kSeed = 0xC0DEC5EED;
constexpr int kSeedValues = 40;        // valid inputs per decoder
constexpr int kMutantsPerValue = 20;   // mutants per valid input
constexpr int kLogMutants = 200;       // mutants per log format

bool same(const TrialRecord& a, const TrialRecord& b) {
  const auto sameBits = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  return a.point == b.point && a.trial == b.trial &&
         std::equal(a.metrics.begin(), a.metrics.end(), b.metrics.begin(),
                    b.metrics.end(), sameBits);
}

template <typename Value>
bool same(const Value& a, const Value& b) {
  return a == b;
}

// -------------------------------------------------------------------
// Valid inputs

constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

/// A non-negative value up to `max`, biased toward both ends of the
/// range so that digit insertions land on either side of the bound.
std::int64_t drawCount(Rng& rng, std::int64_t max) {
  switch (rng.nextBounded(4)) {
    case 0:
      return static_cast<std::int64_t>(rng.nextBounded(10));
    case 1:
      return max;
    case 2:
      return max - static_cast<std::int64_t>(rng.nextBounded(10));
    default:
      return static_cast<std::int64_t>(
          rng.nextBounded(static_cast<std::uint64_t>(max)));
  }
}

TrialRecord drawTrial(Rng& rng) {
  TrialRecord record;
  record.point = static_cast<int>(drawCount(rng, kIntMax));
  record.trial = static_cast<int>(drawCount(rng, kIntMax));
  const std::size_t metrics = rng.nextBounded(4);
  for (std::size_t i = 0; i < metrics; ++i) {
    // Raw bit patterns: NaNs, infinities and denormals included.
    record.metrics.push_back(std::bit_cast<double>(rng.next()));
  }
  return record;
}

UnitTiming drawTiming(Rng& rng) {
  UnitTiming timing;
  timing.point = static_cast<int>(drawCount(rng, kIntMax));
  timing.trial = static_cast<int>(drawCount(rng, kIntMax));
  timing.startUs = static_cast<std::int64_t>(rng.next());
  timing.durationUs = rng.nextBernoulli(0.5)
                          ? drawCount(rng, kInt64Max)
                          : static_cast<std::int64_t>(rng.next());
  timing.worker = static_cast<std::uint64_t>(drawCount(rng, kInt64Max));
  return timing;
}

ResultHeader drawHeader(Rng& rng) {
  static const char* const kNames[] = {"fig10_convergence", "smoke_dynamics",
                                        "s", ""};
  ResultHeader header;
  header.scenario = kNames[rng.nextBounded(4)];
  header.fingerprint = rng.next();
  header.points = static_cast<std::size_t>(drawCount(rng, kInt64Max));
  header.trialsTotal = static_cast<std::size_t>(drawCount(rng, kInt64Max));
  return header;
}

LeaseGrant drawGrant(Rng& rng) {
  LeaseGrant grant;
  grant.leaseId = static_cast<std::uint64_t>(drawCount(rng, kInt64Max));
  const std::size_t units = rng.nextBounded(5);
  for (std::size_t i = 0; i < units; ++i) {
    grant.units.push_back(
        static_cast<std::uint64_t>(drawCount(rng, kInt64Max)));
  }
  return grant;
}

Welcome drawWelcome(Rng& rng) {
  return {drawHeader(rng), static_cast<int>(drawCount(rng, 86400000))};
}

// -------------------------------------------------------------------
// Integer fields and their ranges

/// The digits of one integer field and the largest magnitude they may
/// spell, in decimal.
struct IntegerField {
  std::size_t begin = 0;  ///< first digit (after any '-')
  std::size_t end = 0;    ///< one past the last digit
  std::string_view maxMagnitude;
};

constexpr std::string_view kIntMaxText = "2147483647";
constexpr std::string_view kInt64MaxText = "9223372036854775807";
constexpr std::string_view kInt64MinMagnitude = "9223372036854775808";

std::size_t digitsEnd(std::string_view text, std::size_t pos) {
  while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
  return pos;
}

/// Every integer field of a valid payload of any of the formats above.
std::vector<IntegerField> integerFields(std::string_view payload) {
  struct Key {
    std::string_view text;
    std::string_view max;
    bool isSigned;
  };
  static const Key kKeys[] = {
      {"\"point\":", kIntMaxText, false},
      {"\"trial\":", kIntMaxText, false},
      {"\"start_us\":", kInt64MaxText, true},
      {"\"dur_us\":", kInt64MaxText, true},
      {"\"worker\":", kInt64MaxText, false},
      {"\"points\":", kInt64MaxText, false},
      {"\"trials\":", kInt64MaxText, false},
      {"\"lease\":", kInt64MaxText, false},
  };
  std::vector<IntegerField> fields;
  for (const Key& key : kKeys) {
    for (std::size_t at = payload.find(key.text); at != std::string_view::npos;
         at = payload.find(key.text, at + 1)) {
      std::size_t begin = at + key.text.size();
      std::string_view max = key.max;
      if (key.isSigned && begin < payload.size() && payload[begin] == '-') {
        ++begin;
        max = kInt64MinMagnitude;
      }
      fields.push_back({begin, digitsEnd(payload, begin), max});
    }
  }
  constexpr std::string_view kUnits = "\"units\":[";
  if (const std::size_t at = payload.find(kUnits);
      at != std::string_view::npos) {
    std::size_t pos = at + kUnits.size();
    while (pos < payload.size() && payload[pos] != ']') {
      const std::size_t end = digitsEnd(payload, pos);
      fields.push_back({pos, end, kInt64MaxText});
      if (end == payload.size() || payload[end] != ',') break;
      pos = end + 1;
    }
  }
  if (const std::size_t nl = payload.find('\n');
      nl != std::string_view::npos) {
    fields.push_back({nl + 1, payload.size(), "86400000"});  // heartbeat
  }
  return fields;
}

/// True when the decimal `digits` exceed `max` (both without sign).
bool exceeds(std::string_view digits, std::string_view max) {
  while (digits.size() > 1 && digits.front() == '0') digits.remove_prefix(1);
  if (digits.size() != max.size()) return digits.size() > max.size();
  return digits > max;
}

// -------------------------------------------------------------------
// Mutations

std::string randomDigits(Rng& rng) {
  std::string digits(1 + rng.nextBounded(20), '0');
  for (char& c : digits) c = static_cast<char>('0' + rng.nextBounded(10));
  return digits;
}

/// One mutant of `bytes`: a byte flip, digits inserted anywhere, a
/// truncation, or a span replaced by a span of `donor`.
std::string mutate(std::string bytes, const std::string& donor, Rng& rng) {
  const std::size_t at = rng.nextBounded(bytes.size() + 1);
  switch (rng.nextBounded(4)) {
    case 0:
      if (at < bytes.size()) {
        bytes[at] = static_cast<char>(static_cast<unsigned char>(bytes[at]) ^
                                      (1 + rng.nextBounded(255)));
      }
      return bytes;
    case 1:
      return bytes.insert(at, randomDigits(rng));
    case 2:
      return bytes.substr(0, at);
    default: {
      const std::size_t cut = rng.nextBounded(bytes.size() - at + 1);
      const std::size_t from = rng.nextBounded(donor.size() + 1);
      const std::size_t take = rng.nextBounded(donor.size() - from + 1);
      return bytes.replace(at, cut, donor, from, take);
    }
  }
}

// -------------------------------------------------------------------
// Payload decoders (F1–F3)

struct PayloadStats {
  std::size_t accepted = 0;
  std::size_t pastRange = 0;  ///< digit insertions that left the range
};

/// Mutates `kSeedValues` valid payloads of one format and checks F1–F3
/// on every mutant.
template <typename Value>
PayloadStats fuzzPayloads(
    std::uint64_t stream, const std::function<Value(Rng&)>& draw,
    const std::function<std::string(const Value&)>& encode,
    const std::function<std::optional<Value>(std::string_view)>& decode) {
  Rng rng(deriveSeed(kSeed, stream));
  PayloadStats stats;
  std::string donor = encode(draw(rng));
  for (int v = 0; v < kSeedValues; ++v) {
    const Value value = draw(rng);
    const std::string valid = encode(value);
    const auto roundTrip = decode(valid);
    EXPECT_TRUE(roundTrip.has_value() && same(*roundTrip, value)) << valid;
    const std::vector<IntegerField> fields = integerFields(valid);
    EXPECT_FALSE(fields.empty()) << valid;

    for (int m = 0; m < kMutantsPerValue; ++m) {
      // Every fourth mutant, on average, grows one integer field.
      std::string mutant = valid;
      bool mustReject = false;
      if (rng.nextBounded(4) == 0) {
        const IntegerField& field = fields[rng.nextBounded(fields.size())];
        const std::string digits = randomDigits(rng);
        const std::size_t width = field.end - field.begin;
        mutant.insert(field.begin + rng.nextBounded(width + 1), digits);
        mustReject = exceeds(std::string_view(mutant).substr(
                                 field.begin, width + digits.size()),
                             field.maxMagnitude);
        if (mustReject) ++stats.pastRange;
      } else {
        mutant = mutate(valid, donor, rng);
      }
      const auto decoded = decode(mutant);  // F1
      if (mustReject) {
        EXPECT_FALSE(decoded.has_value()) << "F3: " << mutant;
      }
      if (!decoded.has_value()) continue;
      ++stats.accepted;
      const auto again = decode(encode(*decoded));  // F2
      EXPECT_TRUE(again.has_value() && same(*again, *decoded))
          << "F2: " << mutant;
    }
    donor = valid;
  }
  return stats;
}

/// Every format must both accept some mutants and see some pushed past
/// a range, or the invariants above were checked on nothing.
void expectExercised(const PayloadStats& stats) {
  EXPECT_GT(stats.accepted, 0U);
  EXPECT_GT(stats.pastRange, 0U);
}

TEST(CodecFuzz, TrialLines) {
  expectExercised(fuzzPayloads<TrialRecord>(1, drawTrial, encodeTrialLine,
                                            decodeTrialLine));
}

TEST(CodecFuzz, TimingLines) {
  expectExercised(fuzzPayloads<UnitTiming>(2, drawTiming, encodeTimingLine,
                                           decodeTimingLine));
}

TEST(CodecFuzz, HeaderLines) {
  std::uint64_t stream = 3;
  for (const std::string_view tag : {kManifestTag, kTimingTag}) {
    expectExercised(fuzzPayloads<ResultHeader>(
        stream++, drawHeader,
        [tag](const ResultHeader& header) {
          return encodeHeaderLine(header, tag);
        },
        [tag](std::string_view line) { return decodeHeaderLine(line, tag); }));
  }
}

TEST(CodecFuzz, LeaseGrants) {
  expectExercised(fuzzPayloads<LeaseGrant>(5, drawGrant, encodeLeaseGrant,
                                           decodeLeaseGrant));
}

TEST(CodecFuzz, Welcomes) {
  expectExercised(
      fuzzPayloads<Welcome>(6, drawWelcome, encodeWelcome, decodeWelcome));
}

// -------------------------------------------------------------------
// Whole logs (F1, F4)

std::string logPath(const char* name) {
  return ::testing::TempDir() + "ncg_codec_fuzz_" + name + "_" +
         std::to_string(::getpid()) + ".jsonl";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void spit(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A valid log of `Record` lines as the writer leaves it on disk.
template <typename Record>
std::string writeLog(const char* name, Rng& rng, Record (*draw)(Rng&)) {
  const std::string path = logPath(name);
  std::remove(path.c_str());
  {
    LogWriter<Record> writer(path, drawHeader(rng));
    for (int i = 0; i < 6; ++i) writer.append(draw(rng));
  }
  const std::string bytes = slurp(path);
  std::remove(path.c_str());
  return bytes;
}

/// Mutates a valid log of `Record` lines and checks F4 on every mutant,
/// splicing in bytes of `donor` (a log of the other format).
template <typename Record>
void fuzzLog(std::uint64_t stream, const std::string& valid,
             const std::string& donor) {
  Rng rng(deriveSeed(kSeed, stream));
  const std::string path = logPath("mutant");
  const std::string prefixPath = logPath("prefix");
  std::size_t salvaged = 0;
  for (int m = 0; m < kLogMutants; ++m) {
    const std::string mutant = mutate(valid, donor, rng);
    spit(path, mutant);
    const LogLoad<Record> load = loadLog<Record>(path);
    ASSERT_LE(load.validPrefixBytes, mutant.size());
    ASSERT_LE(load.validPrefixRecords, load.records.size());

    spit(prefixPath, std::string_view(mutant).substr(0, load.validPrefixBytes));
    const LogLoad<Record> rescan = loadLog<Record>(prefixPath);
    EXPECT_EQ(rescan.validPrefixBytes, load.validPrefixBytes) << mutant;
    EXPECT_EQ(rescan.malformedLines, 0U) << mutant;
    EXPECT_FALSE(rescan.corruptTail) << mutant;
    EXPECT_EQ(rescan.headerValid, load.validPrefixBytes > 0) << mutant;
    if (rescan.headerValid) {
      EXPECT_EQ(rescan.header, load.header);
    }
    ASSERT_EQ(rescan.validPrefixRecords, load.validPrefixRecords) << mutant;
    ASSERT_EQ(rescan.records.size(), load.validPrefixRecords) << mutant;
    for (std::size_t i = 0; i < rescan.records.size(); ++i) {
      EXPECT_TRUE(same(rescan.records[i], load.records[i])) << mutant;
    }

    {
      const LogWriter<Record> writer(path, load.header);
      EXPECT_EQ(writer.openReport().validPrefixBytes, load.validPrefixBytes)
          << mutant;
      EXPECT_EQ(writer.openReport().quarantinedBytes,
                mutant.size() - load.validPrefixBytes)
          << mutant;
    }
    if (load.validPrefixRecords > 0) ++salvaged;
    std::remove(path.c_str());
    std::remove(quarantinePath(path).c_str());
  }
  std::remove(prefixPath.c_str());
  EXPECT_GT(salvaged, 0U);  // some mutants keep records in their prefix
}

TEST(CodecFuzz, ManifestAndSidecarLogs) {
  Rng rng(deriveSeed(kSeed, 7));
  const std::string manifest = writeLog("manifest", rng, drawTrial);
  const std::string sidecar = writeLog("sidecar", rng, drawTiming);
  fuzzLog<TrialRecord>(8, manifest, sidecar);
  fuzzLog<UnitTiming>(9, sidecar, manifest);
}

}  // namespace
}  // namespace ncg::runtime
