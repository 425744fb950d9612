#include "storage/arena.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <string_view>
#include <utility>

#include "support/crc32.hpp"
#include "support/error.hpp"

namespace ncg {

namespace {

// On-disk structures. Fixed-width, little-endian (the only platform the
// toolchain targets), sizes pinned below so the format cannot drift
// silently.
constexpr char kMagic[8] = {'N', 'C', 'G', 'A', 'R', 'E', 'N', 'A'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kLayoutPage = 4096;  ///< file-layout alignment unit

struct FileHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t pageSize;
  std::int64_t nodeCount;
  std::int64_t partitionRows;
  std::int64_t partitionCount;
  std::uint64_t fileBytes;  ///< declared total; longer on disk = torn tail
  std::uint32_t headerCrc;  ///< crc32(first 48 B) ^ crc32(directory region)
  std::uint32_t reserved;
};
static_assert(sizeof(FileHeader) == 56, "file header layout is pinned");
constexpr std::size_t kHeaderCrcCover = 48;  // magic..fileBytes

struct DirEntry {
  std::uint64_t offset;  ///< region start, kLayoutPage-aligned
  std::uint64_t bytes;   ///< region size, kLayoutPage-aligned
};
static_assert(sizeof(DirEntry) == 16, "directory entry layout is pinned");

struct PartitionHeader {
  std::uint64_t liveArcs;  ///< sum of row lengths
  std::uint64_t usedArcs;  ///< bump allocation high-water (caps + holes)
  std::uint64_t capArcs;   ///< plane capacity in arcs
  std::uint64_t revision;  ///< monotone mutation stamp, starts at 1
  std::uint32_t crc;       ///< crc32(first 32 B) ^ crc32(body after header)
  std::uint32_t reserved0;
  std::uint64_t reserved1;
  std::uint64_t reserved2;
  std::uint64_t reserved3;
};
static_assert(sizeof(PartitionHeader) == 64, "partition header is pinned");
constexpr std::size_t kPartitionCrcCover = 32;  // liveArcs..revision

struct RowSlot {
  std::uint32_t offsetArcs;  ///< arc index of the row within the planes
  std::uint32_t len;         ///< degree
  std::uint32_t cap;         ///< slot capacity (>= len)
};
static_assert(sizeof(RowSlot) == 12, "row slot layout is pinned");

std::uint64_t alignUp(std::uint64_t value, std::uint64_t unit) {
  return (value + unit - 1) / unit * unit;
}

/// Region bytes for a partition of `rows` rows and `capArcs` arcs:
/// header + row table + ids plane (NodeId) + owned plane (u8), padded.
std::uint64_t regionBytes(std::int64_t rows, std::uint64_t capArcs) {
  return alignUp(sizeof(PartitionHeader) +
                     static_cast<std::uint64_t>(rows) * sizeof(RowSlot) +
                     capArcs * (sizeof(NodeId) + 1),
                 kLayoutPage);
}

std::string_view bytesView(const void* data, std::size_t size) {
  return {static_cast<const char*>(data), size};
}

std::uint32_t regionCrc(const unsigned char* base, std::uint64_t bytes) {
  return crc32(bytesView(base, kPartitionCrcCover)) ^
         crc32(bytesView(base + sizeof(PartitionHeader),
                         bytes - sizeof(PartitionHeader)));
}

std::uint64_t headerRegionBytes(std::int64_t partitionCount) {
  return alignUp(sizeof(FileHeader) +
                     static_cast<std::uint64_t>(partitionCount) *
                         sizeof(DirEntry),
                 kLayoutPage);
}

std::uint32_t headerCrcOf(const unsigned char* map,
                          std::int64_t partitionCount) {
  const std::uint64_t region = headerRegionBytes(partitionCount);
  return crc32(bytesView(map, kHeaderCrcCover)) ^
         crc32(bytesView(map + sizeof(FileHeader),
                         region - sizeof(FileHeader)));
}

std::int64_t partitionCountFor(NodeId nodeCount, NodeId partitionRows) {
  return (static_cast<std::int64_t>(nodeCount) + partitionRows - 1) /
         partitionRows;
}

}  // namespace

/// Decoded pointers into one mapped partition region.
struct CsrArena::Layout {
  unsigned char* base = nullptr;
  std::uint64_t bytes = 0;
  std::int64_t rows = 0;
  PartitionHeader* header = nullptr;
  RowSlot* slots = nullptr;
  NodeId* ids = nullptr;
  std::uint8_t* owned = nullptr;
};

CsrArena::~CsrArena() { close(); }

CsrArena::CsrArena(CsrArena&& other) noexcept { *this = std::move(other); }

CsrArena& CsrArena::operator=(CsrArena&& other) noexcept {
  if (this != &other) {
    close();
    path_ = std::move(other.path_);
    fd_ = std::exchange(other.fd_, -1);
    map_ = std::exchange(other.map_, nullptr);
    fileBytes_ = std::exchange(other.fileBytes_, 0);
    nodeCount_ = std::exchange(other.nodeCount_, 0);
    partitionRows_ = std::exchange(other.partitionRows_, 0);
    partitionCount_ = std::exchange(other.partitionCount_, 0);
    verified_ = std::move(other.verified_);
    dirty_ = std::move(other.dirty_);
    other.path_.clear();
  }
  return *this;
}

std::string arenaQuarantinePath(const std::string& path) {
  return path + ".quarantine";
}

void CsrArena::build(const std::string& path, NodeId nodeCount,
                     std::span<const ArenaEdge> edges,
                     const ArenaOptions& options) {
  buildStreaming(
      path, nodeCount,
      [&edges](const std::function<void(const ArenaEdge&)>& sink) {
        for (const ArenaEdge& e : edges) sink(e);
      },
      options);
}

void CsrArena::buildStreaming(
    const std::string& path, NodeId nodeCount,
    const std::function<void(const std::function<void(const ArenaEdge&)>&)>&
        emitEdges,
    const ArenaOptions& options) {
  NCG_REQUIRE(nodeCount > 0, "arena needs at least one node");
  NCG_REQUIRE(options.partitionRows > 0, "partitionRows must be positive");
  NCG_REQUIRE(options.slackFraction >= 0.0,
              "slackFraction must be non-negative");

  // Pass 1: validate endpoints and count degrees (the only O(n) state
  // the build keeps — no adjacency intermediate).
  std::vector<std::uint32_t> degree(static_cast<std::size_t>(nodeCount), 0);
  emitEdges([&](const ArenaEdge& e) {
    NCG_REQUIRE(e.u >= 0 && e.u < nodeCount && e.v >= 0 && e.v < nodeCount,
                "arena edge (" << e.u << "," << e.v << ") out of range [0,"
                               << nodeCount << ")");
    NCG_REQUIRE(e.u != e.v, "arena rejects self-loop at node " << e.u);
    ++degree[static_cast<std::size_t>(e.u)];
    ++degree[static_cast<std::size_t>(e.v)];
  });

  const std::int64_t partitions =
      partitionCountFor(nodeCount, options.partitionRows);
  const std::uint64_t headerRegion = headerRegionBytes(partitions);

  std::vector<std::uint64_t> liveArcs(static_cast<std::size_t>(partitions),
                                      0);
  for (NodeId u = 0; u < nodeCount; ++u) {
    liveArcs[static_cast<std::size_t>(u / options.partitionRows)] +=
        degree[static_cast<std::size_t>(u)];
  }

  std::vector<DirEntry> directory(static_cast<std::size_t>(partitions));
  std::uint64_t fileBytes = headerRegion;
  for (std::int64_t p = 0; p < partitions; ++p) {
    const std::int64_t rows =
        std::min<std::int64_t>(options.partitionRows,
                               nodeCount - p * options.partitionRows);
    const std::uint64_t live = liveArcs[static_cast<std::size_t>(p)];
    const std::uint64_t cap =
        live +
        std::max<std::uint64_t>(
            static_cast<std::uint64_t>(static_cast<double>(live) *
                                       options.slackFraction),
            64);
    NCG_REQUIRE(cap <= 0xFFFFFFFFull,
                "partition " << p << " capacity " << cap
                             << " exceeds the 32-bit row-offset space; "
                                "use smaller partitions");
    directory[static_cast<std::size_t>(p)] = {fileBytes,
                                              regionBytes(rows, cap)};
    fileBytes += directory[static_cast<std::size_t>(p)].bytes;
    liveArcs[static_cast<std::size_t>(p)] = cap;  // repurposed: capacity
  }

  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  NCG_REQUIRE(fd >= 0, "cannot create arena file " << path << ": "
                                                   << std::strerror(errno));
  NCG_REQUIRE(::ftruncate(fd, static_cast<off_t>(fileBytes)) == 0,
              "cannot size arena file " << path << " to " << fileBytes
                                        << " bytes: "
                                        << std::strerror(errno));
  void* raw = ::mmap(nullptr, fileBytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                     fd, 0);
  NCG_REQUIRE(raw != MAP_FAILED,
              "cannot map arena file " << path << ": "
                                       << std::strerror(errno));
  auto* map = static_cast<unsigned char*>(raw);

  // Header + directory (CRC filled at the end).
  auto* header = reinterpret_cast<FileHeader*>(map);
  std::memcpy(header->magic, kMagic, sizeof(kMagic));
  header->version = kVersion;
  header->pageSize = kLayoutPage;
  header->nodeCount = nodeCount;
  header->partitionRows = options.partitionRows;
  header->partitionCount = partitions;
  header->fileBytes = fileBytes;
  std::memcpy(map + sizeof(FileHeader), directory.data(),
              directory.size() * sizeof(DirEntry));

  // Partition skeletons: headers and packed row tables (cap == degree;
  // the partition-level slack pool handles later growth). Row `len`
  // doubles as the pass-2 fill cursor.
  for (std::int64_t p = 0; p < partitions; ++p) {
    const DirEntry& entry = directory[static_cast<std::size_t>(p)];
    const std::int64_t rows =
        std::min<std::int64_t>(options.partitionRows,
                               nodeCount - p * options.partitionRows);
    auto* ph = reinterpret_cast<PartitionHeader*>(map + entry.offset);
    ph->usedArcs = 0;
    ph->capArcs = liveArcs[static_cast<std::size_t>(p)];
    ph->revision = 1;
    auto* slots =
        reinterpret_cast<RowSlot*>(map + entry.offset +
                                   sizeof(PartitionHeader));
    std::uint64_t cursor = 0;
    for (std::int64_t r = 0; r < rows; ++r) {
      const std::uint32_t d =
          degree[static_cast<std::size_t>(p * options.partitionRows + r)];
      slots[r] = {static_cast<std::uint32_t>(cursor), 0, d};
      cursor += d;
    }
    ph->liveArcs = cursor;
    ph->usedArcs = cursor;
  }

  // Pass 2: place arcs. The stream must replay the same multiset; a row
  // overflowing its degree-sized slot means it did not.
  const auto slotOf = [&](NodeId u) -> std::pair<RowSlot*, const DirEntry*> {
    const std::int64_t p = u / options.partitionRows;
    const DirEntry* entry = &directory[static_cast<std::size_t>(p)];
    auto* slots = reinterpret_cast<RowSlot*>(map + entry->offset +
                                             sizeof(PartitionHeader));
    return {&slots[u % options.partitionRows], entry};
  };
  const auto place = [&](NodeId u, NodeId neighbor, bool owns) {
    auto [slot, entry] = slotOf(u);
    NCG_REQUIRE(slot->len < slot->cap,
                "edge stream changed between build passes at node " << u);
    const std::int64_t p = u / options.partitionRows;
    const std::int64_t rows =
        std::min<std::int64_t>(options.partitionRows,
                               nodeCount - p * options.partitionRows);
    auto* ids = reinterpret_cast<NodeId*>(
        map + entry->offset + sizeof(PartitionHeader) +
        static_cast<std::uint64_t>(rows) * sizeof(RowSlot));
    auto* owned = reinterpret_cast<std::uint8_t*>(
        ids + reinterpret_cast<PartitionHeader*>(map + entry->offset)
                  ->capArcs);
    ids[slot->offsetArcs + slot->len] = neighbor;
    owned[slot->offsetArcs + slot->len] = owns ? 1 : 0;
    ++slot->len;
  };
  emitEdges([&](const ArenaEdge& e) {
    place(e.u, e.v, e.uOwns);
    place(e.v, e.u, e.vOwns);
  });

  // Canonicalize rows (ascending neighbor id, ownership permuted along)
  // and reject duplicates; then seal CRCs.
  std::vector<std::pair<NodeId, std::uint8_t>> rowScratch;
  for (std::int64_t p = 0; p < partitions; ++p) {
    const DirEntry& entry = directory[static_cast<std::size_t>(p)];
    const std::int64_t rows =
        std::min<std::int64_t>(options.partitionRows,
                               nodeCount - p * options.partitionRows);
    auto* ph = reinterpret_cast<PartitionHeader*>(map + entry.offset);
    auto* slots = reinterpret_cast<RowSlot*>(map + entry.offset +
                                             sizeof(PartitionHeader));
    auto* ids = reinterpret_cast<NodeId*>(
        map + entry.offset + sizeof(PartitionHeader) +
        static_cast<std::uint64_t>(rows) * sizeof(RowSlot));
    auto* owned = reinterpret_cast<std::uint8_t*>(ids + ph->capArcs);
    for (std::int64_t r = 0; r < rows; ++r) {
      RowSlot& slot = slots[r];
      NCG_REQUIRE(slot.len == slot.cap,
                  "edge stream changed between build passes at node "
                      << p * options.partitionRows + r);
      rowScratch.clear();
      for (std::uint32_t i = 0; i < slot.len; ++i) {
        rowScratch.emplace_back(ids[slot.offsetArcs + i],
                                owned[slot.offsetArcs + i]);
      }
      std::sort(rowScratch.begin(), rowScratch.end());
      for (std::size_t i = 1; i < rowScratch.size(); ++i) {
        NCG_REQUIRE(rowScratch[i - 1].first != rowScratch[i].first,
                    "duplicate arena edge ("
                        << p * options.partitionRows + r << ","
                        << rowScratch[i].first << ")");
      }
      for (std::uint32_t i = 0; i < slot.len; ++i) {
        ids[slot.offsetArcs + i] = rowScratch[i].first;
        owned[slot.offsetArcs + i] = rowScratch[i].second;
      }
    }
    ph->crc = regionCrc(map + entry.offset, entry.bytes);
  }
  header->headerCrc = headerCrcOf(map, partitions);

  NCG_REQUIRE(::msync(map, fileBytes, MS_SYNC) == 0,
              "msync of arena build failed: " << std::strerror(errno));
  ::munmap(map, fileBytes);
  ::close(fd);
}

ArenaOpenReport CsrArena::open(const std::string& path) {
  NCG_REQUIRE(!isOpen(), "arena is already open (" << path_ << ")");
  ArenaOpenReport report;

  fd_ = ::open(path.c_str(), O_RDWR);
  NCG_REQUIRE(fd_ >= 0, "cannot open arena file " << path << ": "
                                                  << std::strerror(errno));
  struct stat st{};
  NCG_REQUIRE(::fstat(fd_, &st) == 0,
              "cannot stat arena file " << path << ": "
                                        << std::strerror(errno));
  const auto actualBytes = static_cast<std::uint64_t>(st.st_size);

  FileHeader header{};
  NCG_REQUIRE(actualBytes >= sizeof(FileHeader) &&
                  ::pread(fd_, &header, sizeof(header), 0) ==
                      static_cast<ssize_t>(sizeof(header)),
              "arena file " << path << " is too short for a header");
  NCG_REQUIRE(std::memcmp(header.magic, kMagic, sizeof(kMagic)) == 0,
              path << " is not an arena file (bad magic)");
  NCG_REQUIRE(header.version == kVersion,
              "arena " << path << " has unsupported version "
                       << header.version);
  NCG_REQUIRE(header.pageSize == kLayoutPage,
              "arena " << path << " uses layout page " << header.pageSize
                       << ", expected " << kLayoutPage);
  NCG_REQUIRE(header.nodeCount > 0 && header.partitionRows > 0 &&
                  header.partitionCount ==
                      partitionCountFor(
                          static_cast<NodeId>(header.nodeCount),
                          static_cast<NodeId>(header.partitionRows)),
              "arena " << path << " has an inconsistent header geometry");
  NCG_REQUIRE(actualBytes >= header.fileBytes,
              "arena " << path << " is truncated: " << actualBytes
                       << " bytes on disk, header declares "
                       << header.fileBytes);

  // Torn tail: a crash between a grow-append and its directory update
  // leaves bytes past the declared size. Same remedy as a torn JSONL
  // tail (PR 8): move the excess to the quarantine sibling, truncate to
  // the declared prefix, keep going.
  if (actualBytes > header.fileBytes) {
    report.quarantinedBytes = actualBytes - header.fileBytes;
    std::ofstream quarantine(arenaQuarantinePath(path),
                             std::ios::binary | std::ios::app);
    NCG_REQUIRE(quarantine.good(), "cannot open quarantine file for "
                                       << path);
    std::vector<char> buffer(1 << 20);
    std::uint64_t at = header.fileBytes;
    while (at < actualBytes) {
      const auto want = static_cast<std::size_t>(
          std::min<std::uint64_t>(buffer.size(), actualBytes - at));
      const ssize_t got =
          ::pread(fd_, buffer.data(), want, static_cast<off_t>(at));
      NCG_REQUIRE(got > 0, "cannot read torn tail of " << path << ": "
                                                       << std::strerror(errno));
      quarantine.write(buffer.data(), got);
      at += static_cast<std::uint64_t>(got);
    }
    quarantine.flush();
    NCG_REQUIRE(quarantine.good(),
                "cannot write quarantine file for " << path);
    NCG_REQUIRE(::ftruncate(fd_, static_cast<off_t>(header.fileBytes)) == 0,
                "cannot truncate torn tail of " << path << ": "
                                                << std::strerror(errno));
  }

  void* raw = ::mmap(nullptr, header.fileBytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED, fd_, 0);
  NCG_REQUIRE(raw != MAP_FAILED,
              "cannot map arena file " << path << ": "
                                       << std::strerror(errno));
  auto* map = static_cast<unsigned char*>(raw);

  // Validate the header CRC and directory bounds on locals *before*
  // committing member state: a failure must leave the object closed, or
  // the destructor's flush path would walk a corrupt directory.
  try {
    NCG_REQUIRE(headerCrcOf(map, header.partitionCount) == header.headerCrc,
                "arena " << path << " header/directory CRC mismatch");
    const auto* directory =
        reinterpret_cast<const DirEntry*>(map + sizeof(FileHeader));
    NCG_REQUIRE(headerRegionBytes(header.partitionCount) <= header.fileBytes,
                "arena " << path << " directory escapes the file");
    for (std::int64_t p = 0; p < header.partitionCount; ++p) {
      const DirEntry& entry = directory[static_cast<std::size_t>(p)];
      NCG_REQUIRE(entry.offset % kLayoutPage == 0 &&
                      entry.bytes % kLayoutPage == 0 &&
                      entry.offset >= headerRegionBytes(header.partitionCount) &&
                      entry.offset + entry.bytes <= header.fileBytes,
                  "arena " << path << " partition " << p
                           << " directory entry is out of bounds");
    }
  } catch (...) {
    ::munmap(map, header.fileBytes);
    ::close(fd_);
    fd_ = -1;
    throw;
  }

  map_ = map;
  path_ = path;
  fileBytes_ = header.fileBytes;
  nodeCount_ = static_cast<NodeId>(header.nodeCount);
  partitionRows_ = static_cast<NodeId>(header.partitionRows);
  partitionCount_ = header.partitionCount;

  verified_.assign(static_cast<std::size_t>(partitionCount_), false);
  dirty_.assign(static_cast<std::size_t>(partitionCount_), false);
  return report;
}

void CsrArena::close() {
  if (!isOpen()) return;
  for (std::int64_t p = 0; p < partitionCount_; ++p) flushPartition(p);
  writeHeaderCrc();
  ::msync(map_, fileBytes_, MS_SYNC);
  ::munmap(map_, fileBytes_);
  ::close(fd_);
  map_ = nullptr;
  fd_ = -1;
  fileBytes_ = 0;
  nodeCount_ = 0;
  partitionRows_ = 0;
  partitionCount_ = 0;
  verified_.clear();
  dirty_.clear();
  path_.clear();
}

CsrArena::Layout CsrArena::layoutOf(std::int64_t p) const {
  NCG_ASSERT(p >= 0 && p < partitionCount_, "partition " << p
                                                         << " out of range");
  const auto* directory =
      reinterpret_cast<const DirEntry*>(map_ + sizeof(FileHeader));
  const DirEntry& entry = directory[static_cast<std::size_t>(p)];
  Layout layout;
  layout.base = map_ + entry.offset;
  layout.bytes = entry.bytes;
  layout.rows = std::min<std::int64_t>(
      partitionRows_, static_cast<std::int64_t>(nodeCount_) -
                          p * static_cast<std::int64_t>(partitionRows_));
  layout.header = reinterpret_cast<PartitionHeader*>(layout.base);
  layout.slots = reinterpret_cast<RowSlot*>(layout.base +
                                            sizeof(PartitionHeader));
  layout.ids = reinterpret_cast<NodeId*>(
      layout.base + sizeof(PartitionHeader) +
      static_cast<std::uint64_t>(layout.rows) * sizeof(RowSlot));
  layout.owned =
      reinterpret_cast<std::uint8_t*>(layout.ids + layout.header->capArcs);
  return layout;
}

std::uint32_t CsrArena::computeCrc(std::int64_t p) const {
  const Layout layout = layoutOf(p);
  return regionCrc(layout.base, layout.bytes);
}

void CsrArena::verifyPartition(std::int64_t p) {
  NCG_REQUIRE(isOpen(), "arena is not open");
  NCG_REQUIRE(p >= 0 && p < partitionCount_,
              "partition " << p << " out of range [0," << partitionCount_
                           << ")");
  const Layout layout = layoutOf(p);
  // A dirty partition's stored CRC is legitimately stale (it is
  // recomputed on flush); everything resident came from this process.
  if (!dirty_[static_cast<std::size_t>(p)]) {
    NCG_REQUIRE(layout.header->crc == regionCrc(layout.base, layout.bytes),
                "arena " << path_ << " partition " << p
                         << " CRC mismatch — corrupt or tampered");
  }
  verified_[static_cast<std::size_t>(p)] = true;
}

void CsrArena::faultPartition(std::int64_t p) {
  if (!verified_[static_cast<std::size_t>(p)]) verifyPartition(p);
}

std::uint64_t CsrArena::arcCount() {
  NCG_REQUIRE(isOpen(), "arena is not open");
  std::uint64_t total = 0;
  for (std::int64_t p = 0; p < partitionCount_; ++p) {
    total += layoutOf(p).header->liveArcs;
  }
  return total;
}

NodeId CsrArena::degree(NodeId u) {
  NCG_REQUIRE(isOpen(), "arena is not open");
  NCG_REQUIRE(u >= 0 && u < nodeCount_,
              "node " << u << " out of range [0," << nodeCount_ << ")");
  const std::int64_t p = partitionOf(u);
  faultPartition(p);
  const Layout layout = layoutOf(p);
  return static_cast<NodeId>(layout.slots[u % partitionRows_].len);
}

ArenaRowRef CsrArena::row(NodeId u) {
  NCG_REQUIRE(isOpen(), "arena is not open");
  NCG_REQUIRE(u >= 0 && u < nodeCount_,
              "node " << u << " out of range [0," << nodeCount_ << ")");
  const std::int64_t p = partitionOf(u);
  faultPartition(p);
  const Layout layout = layoutOf(p);
  const RowSlot& slot = layout.slots[u % partitionRows_];
  return {{layout.ids + slot.offsetArcs, slot.len},
          {layout.owned + slot.offsetArcs, slot.len}};
}

std::uint64_t CsrArena::partitionRevision(std::int64_t p) {
  NCG_REQUIRE(isOpen(), "arena is not open");
  NCG_REQUIRE(p >= 0 && p < partitionCount_,
              "partition " << p << " out of range");
  return layoutOf(p).header->revision;
}

std::uint64_t CsrArena::partitionBytes(std::int64_t p) const {
  NCG_REQUIRE(isOpen(), "arena is not open");
  NCG_REQUIRE(p >= 0 && p < partitionCount_,
              "partition " << p << " out of range");
  const auto* directory =
      reinterpret_cast<const DirEntry*>(map_ + sizeof(FileHeader));
  return directory[static_cast<std::size_t>(p)].bytes;
}

void CsrArena::patchRow(NodeId u, std::span<const NodeId> ids,
                        std::span<const std::uint8_t> owned) {
  NCG_REQUIRE(isOpen(), "arena is not open");
  NCG_REQUIRE(u >= 0 && u < nodeCount_,
              "node " << u << " out of range [0," << nodeCount_ << ")");
  NCG_REQUIRE(ids.size() == owned.size(),
              "patchRow planes disagree: " << ids.size() << " ids vs "
                                           << owned.size() << " owned");
  for (std::size_t i = 0; i < ids.size(); ++i) {
    NCG_REQUIRE(ids[i] >= 0 && ids[i] < nodeCount_ && ids[i] != u,
                "patchRow id " << ids[i] << " invalid for node " << u);
    NCG_REQUIRE(i == 0 || ids[i - 1] < ids[i],
                "patchRow rows must be strictly ascending (node " << u
                                                                  << ")");
  }

  const std::int64_t p = partitionOf(u);
  faultPartition(p);
  const std::int64_t r = u % partitionRows_;
  const auto newLen = static_cast<std::uint32_t>(ids.size());

  Layout layout = layoutOf(p);
  if (newLen > layout.slots[r].cap) {
    // Relocate to the bump tail with doubling slack (the CsrGraph
    // patchRows discipline); compact, then grow, only as needed.
    const std::uint64_t newCap =
        newLen + std::max<std::uint32_t>(newLen, 4);
    if (layout.header->usedArcs + newCap > layout.header->capArcs) {
      compactPartition(p);
      layout = layoutOf(p);
    }
    if (layout.header->usedArcs + newCap > layout.header->capArcs) {
      growPartition(p, newCap);
      layout = layoutOf(p);
    }
    RowSlot& slot = layout.slots[r];
    layout.header->liveArcs += newLen;
    layout.header->liveArcs -= slot.len;
    slot.offsetArcs = static_cast<std::uint32_t>(layout.header->usedArcs);
    slot.len = newLen;
    slot.cap = static_cast<std::uint32_t>(newCap);
    layout.header->usedArcs += newCap;
  } else {
    RowSlot& slot = layout.slots[r];
    layout.header->liveArcs += newLen;
    layout.header->liveArcs -= slot.len;
    slot.len = newLen;
  }

  // std::copy, not memcpy: an emptied row's spans may hold null data
  // pointers, which memcpy must not be passed even for zero bytes.
  const RowSlot& slot = layout.slots[r];
  std::copy(ids.begin(), ids.end(), layout.ids + slot.offsetArcs);
  std::copy(owned.begin(), owned.end(), layout.owned + slot.offsetArcs);
  ++layout.header->revision;
  dirty_[static_cast<std::size_t>(p)] = true;
}

void CsrArena::compactPartition(std::int64_t p) {
  // Relocated rows sit out of row order at the tail, so in-place sliding
  // could overwrite rows not yet moved; repack through scratch copies of
  // both planes instead (a partition is at most a few MB).
  Layout layout = layoutOf(p);
  std::vector<NodeId> idsCopy(layout.ids,
                              layout.ids + layout.header->capArcs);
  std::vector<std::uint8_t> ownedCopy(layout.owned,
                                      layout.owned + layout.header->capArcs);
  std::uint64_t cursor = 0;
  for (std::int64_t r = 0; r < layout.rows; ++r) {
    RowSlot& slot = layout.slots[r];
    std::memcpy(layout.ids + cursor, idsCopy.data() + slot.offsetArcs,
                slot.len * sizeof(NodeId));
    std::memcpy(layout.owned + cursor, ownedCopy.data() + slot.offsetArcs,
                slot.len);
    slot.offsetArcs = static_cast<std::uint32_t>(cursor);
    slot.cap = slot.len;
    cursor += slot.len;
  }
  // Zero the reclaimed slack so file bytes stay a function of operation
  // history, not of dead data.
  std::memset(layout.ids + cursor, 0,
              (layout.header->capArcs - cursor) * sizeof(NodeId));
  std::memset(layout.owned + cursor, 0, layout.header->capArcs - cursor);
  layout.header->usedArcs = cursor;
  NCG_ASSERT(layout.header->liveArcs == cursor,
             "compaction lost arcs in partition " << p);
  dirty_[static_cast<std::size_t>(p)] = true;
}

void CsrArena::growPartition(std::int64_t p, std::uint64_t minFreeArcs) {
  Layout old = layoutOf(p);
  const std::uint64_t oldOffset =
      static_cast<std::uint64_t>(old.base - map_);
  const std::uint64_t oldBytes = old.bytes;
  const std::uint64_t oldCap = old.header->capArcs;
  const std::uint64_t newCap = std::max<std::uint64_t>(
      oldCap * 2, old.header->usedArcs + minFreeArcs);
  NCG_REQUIRE(newCap <= 0xFFFFFFFFull,
              "partition " << p << " outgrew the 32-bit row-offset space");
  const std::uint64_t newBytes = regionBytes(old.rows, newCap);
  const std::uint64_t newOffset = fileBytes_;

  remap(fileBytes_ + newBytes);

  // Copy the old region into the appended one (plane bases shift because
  // capArcs changed; row-table arc offsets are capacity-independent).
  const unsigned char* src = map_ + oldOffset;
  unsigned char* dst = map_ + newOffset;
  const auto* srcHeader = reinterpret_cast<const PartitionHeader*>(src);
  auto* dstHeader = reinterpret_cast<PartitionHeader*>(dst);
  *dstHeader = *srcHeader;
  dstHeader->capArcs = newCap;
  const std::uint64_t tableBytes =
      static_cast<std::uint64_t>(old.rows) * sizeof(RowSlot);
  std::memcpy(dst + sizeof(PartitionHeader), src + sizeof(PartitionHeader),
              tableBytes);
  const unsigned char* srcIds = src + sizeof(PartitionHeader) + tableBytes;
  unsigned char* dstIds = dst + sizeof(PartitionHeader) + tableBytes;
  std::memcpy(dstIds, srcIds, oldCap * sizeof(NodeId));
  std::memcpy(dstIds + newCap * sizeof(NodeId),
              srcIds + oldCap * sizeof(NodeId), oldCap);

  // Repoint the directory; the old region is dead space until the next
  // rebuild. Punch it out of the page cache so it stops costing RSS.
  auto* directory = reinterpret_cast<DirEntry*>(map_ + sizeof(FileHeader));
  directory[static_cast<std::size_t>(p)] = {newOffset, newBytes};
  writeHeaderCrc();
  ::madvise(map_ + oldOffset, oldBytes, MADV_DONTNEED);
  dirty_[static_cast<std::size_t>(p)] = true;
}

void CsrArena::remap(std::uint64_t newFileBytes) {
  NCG_REQUIRE(::munmap(map_, fileBytes_) == 0,
              "munmap failed during arena grow: " << std::strerror(errno));
  map_ = nullptr;
  NCG_REQUIRE(::ftruncate(fd_, static_cast<off_t>(newFileBytes)) == 0,
              "cannot grow arena file " << path_ << " to " << newFileBytes
                                        << " bytes: "
                                        << std::strerror(errno));
  void* raw = ::mmap(nullptr, newFileBytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED, fd_, 0);
  NCG_REQUIRE(raw != MAP_FAILED,
              "cannot remap arena file " << path_ << ": "
                                         << std::strerror(errno));
  map_ = static_cast<unsigned char*>(raw);
  fileBytes_ = newFileBytes;
}

void CsrArena::writeHeaderCrc() {
  auto* header = reinterpret_cast<FileHeader*>(map_);
  header->fileBytes = fileBytes_;
  header->headerCrc = headerCrcOf(map_, partitionCount_);
}

bool CsrArena::flushPartition(std::int64_t p) {
  NCG_REQUIRE(isOpen(), "arena is not open");
  NCG_REQUIRE(p >= 0 && p < partitionCount_,
              "partition " << p << " out of range");
  if (!dirty_[static_cast<std::size_t>(p)]) return false;
  Layout layout = layoutOf(p);
  layout.header->crc = regionCrc(layout.base, layout.bytes);
  dirty_[static_cast<std::size_t>(p)] = false;
  return true;
}

void CsrArena::flush() {
  NCG_REQUIRE(isOpen(), "arena is not open");
  bool any = false;
  for (std::int64_t p = 0; p < partitionCount_; ++p) {
    any = flushPartition(p) || any;
  }
  if (any) writeHeaderCrc();
  ::msync(map_, fileBytes_, MS_ASYNC);
}

void CsrArena::dropResidency(std::int64_t p) {
  NCG_REQUIRE(isOpen(), "arena is not open");
  NCG_REQUIRE(p >= 0 && p < partitionCount_,
              "partition " << p << " out of range");
  flushPartition(p);
  // The layout page (4096) may be smaller than the system page; shrink
  // the advised range inward to system-page boundaries.
  const auto sysPage =
      static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  const Layout layout = layoutOf(p);
  const auto offset = static_cast<std::uint64_t>(layout.base - map_);
  const std::uint64_t begin = alignUp(offset, sysPage);
  const std::uint64_t end = (offset + layout.bytes) / sysPage * sysPage;
  if (end > begin) ::madvise(map_ + begin, end - begin, MADV_DONTNEED);
}

}  // namespace ncg
