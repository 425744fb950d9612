#include "runtime/durable_log.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "support/crc32.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/string_util.hpp"

namespace ncg::runtime {

namespace {

constexpr std::size_t kCrcSuffixLen = 9;  // '#' + 8 hex digits

bool isHexDigit(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
}

/// Full-write loop with EINTR handling, no fault injection — used for
/// the header and the quarantine file, whose loss the salvage scan
/// already handles (an injected failure here would only slow the chaos
/// campaigns down without exercising a new recovery path).
bool writeAllRaw(int fd, const char* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::optional<DurabilityPolicy> parseDurabilityPolicy(std::string_view text) {
  DurabilityPolicy policy;
  if (text == "flush") return policy;
  if (text == "fsync") {
    policy.kind = DurabilityPolicy::Kind::kFsync;
    return policy;
  }
  if (text.rfind("fsync:", 0) == 0) {
    const auto n = parseInteger(text.substr(6));
    if (!n.has_value() || *n < 1) return std::nullopt;
    policy.kind = DurabilityPolicy::Kind::kFsync;
    policy.fsyncEveryN = *n;
    return policy;
  }
  return std::nullopt;
}

std::string withLineChecksum(std::string_view payload) {
  char suffix[16];
  std::snprintf(suffix, sizeof suffix, "#%08x", crc32(payload));
  std::string line(payload);
  line += suffix;
  return line;
}

std::optional<ChecksummedLine> verifyLineChecksum(std::string_view line) {
  ChecksummedLine result{line, false};
  if (line.size() < kCrcSuffixLen ||
      line[line.size() - kCrcSuffixLen] != '#') {
    return result;  // legacy line, no suffix
  }
  const std::string_view hex = line.substr(line.size() - 8);
  for (const char c : hex) {
    if (!isHexDigit(c)) return result;  // '#' inside the payload, not a tag
  }
  std::uint32_t claimed = 0;
  for (const char c : hex) {
    claimed = (claimed << 4) |
              static_cast<std::uint32_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  }
  const std::string_view payload = line.substr(0, line.size() - kCrcSuffixLen);
  if (crc32(payload) != claimed) return std::nullopt;
  return ChecksummedLine{payload, true};
}

std::string quarantinePath(const std::string& path) {
  return path + ".quarantine";
}

LogScan scanLog(const std::string& path, const LineValidator& validLine) {
  LogScan scan;
  if (std::FILE* file = std::fopen(path.c_str(), "rb")) {
    char buffer[65536];
    std::size_t n;
    while ((n = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
      scan.contents.append(buffer, n);
    }
    std::fclose(file);
  }
  const std::string_view contents = scan.contents;
  bool intact = true;
  std::size_t pos = 0;
  for (std::size_t index = 0; pos < contents.size(); ++index) {
    const std::size_t nl = contents.find('\n', pos);
    if (nl == std::string_view::npos) {
      ++scan.malformedLines;  // torn tail: a kill landed mid-write
      break;
    }
    const auto checked = verifyLineChecksum(contents.substr(pos, nl - pos));
    if (!checked.has_value() || !validLine(checked->payload, index)) {
      ++scan.malformedLines;
      intact = false;  // the first corrupt/alien line ends the prefix
    } else if (intact) {
      scan.validPrefixBytes = nl + 1;
      ++scan.validPrefixLines;
    }
    pos = nl + 1;
  }
  return scan;
}

DurableLogWriter::DurableLogWriter(const std::string& path,
                                   std::string_view headerPayload,
                                   LineValidator validLine,
                                   DurabilityPolicy policy)
    : path_(path), policy_(policy) {
  // ---- Salvage scan: find the longest valid prefix of the existing
  // file (complete lines whose checksum and payload both check out).
  const LogScan scan = scanLog(path, validLine);
  const std::string& contents = scan.contents;
  const std::size_t pos = scan.validPrefixBytes;
  openReport_.existed = !contents.empty();
  openReport_.validPrefixBytes = pos;
  openReport_.validPrefixLines = scan.validPrefixLines;

  // ---- Quarantine: move the corrupt tail aside, byte for byte, then
  // truncate the log to the trusted prefix.
  if (pos < contents.size()) {
    const std::string qPath = quarantinePath(path);
    const int qfd = ::open(qPath.c_str(), O_WRONLY | O_CREAT | O_APPEND |
                                              O_CLOEXEC, 0644);
    if (qfd < 0 ||
        !writeAllRaw(qfd, contents.data() + pos, contents.size() - pos)) {
      if (qfd >= 0) ::close(qfd);
      throw Error("cannot quarantine corrupt tail of '" + path + "' to '" +
                  qPath + "'");
    }
    ::close(qfd);
    openReport_.quarantinedBytes = contents.size() - pos;
    if (::truncate(path.c_str(), static_cast<off_t>(pos)) != 0) {
      throw Error("cannot truncate '" + path + "' to its valid prefix");
    }
  }

  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw Error("cannot open log file '" + path + "' for appending");
  }
  goodOffset_ = static_cast<std::int64_t>(pos);

  // A fresh (or fully quarantined) log starts with the header line. The
  // header bypasses fault injection: without it nothing else in the
  // file is interpretable, so "recovery" would just be rewriting it.
  if (openReport_.validPrefixLines == 0) {
    const std::string line = withLineChecksum(headerPayload) + "\n";
    if (!writeAllRaw(fd_, line.data(), line.size())) {
      ::close(fd_);
      fd_ = -1;
      throw Error("cannot write header line of '" + path + "'");
    }
    goodOffset_ += static_cast<std::int64_t>(line.size());
    openReport_.validPrefixLines = 1;
  }
  if (policy_.kind == DurabilityPolicy::Kind::kFsync) {
    (void)::fdatasync(fd_);
  }
}

DurableLogWriter::DurableLogWriter(DurableLogWriter&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      policy_(other.policy_),
      goodOffset_(other.goodOffset_),
      appendsSinceSync_(other.appendsSinceSync_),
      failedAppends_(other.failedAppends_),
      openReport_(other.openReport_) {}

DurableLogWriter& DurableLogWriter::operator=(
    DurableLogWriter&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    policy_ = other.policy_;
    goodOffset_ = other.goodOffset_;
    appendsSinceSync_ = other.appendsSinceSync_;
    failedAppends_ = other.failedAppends_;
    openReport_ = other.openReport_;
  }
  return *this;
}

DurableLogWriter::~DurableLogWriter() { close(); }

void DurableLogWriter::close() {
  if (fd_ >= 0) {
    if (policy_.kind == DurabilityPolicy::Kind::kFsync) {
      (void)::fdatasync(fd_);
    }
    ::close(fd_);
    fd_ = -1;
  }
}

bool DurableLogWriter::appendLine(std::string_view payload) {
  if (fd_ < 0) return false;
  const std::string line = withLineChecksum(payload) + "\n";
  std::size_t written = 0;
  bool failed = false;
  while (written < line.size()) {
    const ssize_t n = fault::writeWithFaults(fd_, line.data() + written,
                                             line.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      failed = true;
      break;
    }
    written += static_cast<std::size_t>(n);
  }
  if (failed) {
    // Scrub any torn prefix so the file stays a clean run of complete
    // lines; O_APPEND makes the next append land at the new EOF.
    (void)::ftruncate(fd_, static_cast<off_t>(goodOffset_));
    ++failedAppends_;
    return false;
  }
  goodOffset_ += static_cast<std::int64_t>(line.size());
  if (policy_.kind == DurabilityPolicy::Kind::kFsync &&
      ++appendsSinceSync_ >= policy_.fsyncEveryN) {
    (void)::fdatasync(fd_);
    appendsSinceSync_ = 0;
  }
  return true;
}

void DurableLogWriter::sync() {
  if (fd_ >= 0 && policy_.kind == DurabilityPolicy::Kind::kFsync) {
    (void)::fdatasync(fd_);
    appendsSinceSync_ = 0;
  }
}

}  // namespace ncg::runtime
