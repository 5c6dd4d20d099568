#include "core/persistence.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/crc32.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace simq {
namespace {

constexpr char kMagicV1[] = "SIMQDB1\n";
constexpr char kMagicV2[] = "SIMQDB2\n";
constexpr char kMagicV3[] = "SIMQDB3\n";
constexpr char kMagicV4[] = "SIMQDB4\n";
constexpr size_t kMagicLength = 8;

// Serializes into an in-memory buffer. The whole snapshot is built in
// memory first so it can be written to disk atomically; databases are
// memory-resident anyway, so the transient copy is acceptable. A writer
// built with no buffer stores nothing and only counts the bytes it is
// given, so a dry run of the same serializer sizes the real buffer
// exactly and the real run writes each byte once, in place.
class BufferWriter {
 public:
  BufferWriter() = default;
  BufferWriter(char* out, size_t capacity) : out_(out), capacity_(capacity) {}

  size_t size() const { return size_; }

  void Bytes(const void* data, size_t size) {
    if (out_ != nullptr) {
      SIMQ_CHECK_LE(size_ + size, capacity_);
      std::memcpy(out_ + size_, data, size);
    }
    size_ += size;
  }
  void U8(uint8_t value) { Bytes(&value, sizeof(value)); }
  void I32(int32_t value) { Bytes(&value, sizeof(value)); }
  void U32(uint32_t value) { Bytes(&value, sizeof(value)); }
  void U64(uint64_t value) { Bytes(&value, sizeof(value)); }
  void String(const std::string& value) {
    U32(static_cast<uint32_t>(value.size()));
    Bytes(value.data(), value.size());
  }
  void Doubles(const std::vector<double>& values) {
    U64(values.size());
    Bytes(values.data(), values.size() * sizeof(double));
  }

  // Opens a [u32 length][u32 crc32][payload] section frame in place: the
  // header is written as a placeholder and the payload follows it
  // directly. Returns the frame's offset for EndSection.
  size_t BeginSection() {
    const size_t at = size_;
    U32(0);
    U32(0);
    return at;
  }
  // Closes the frame opened at `at`: fills in the length and CRC of the
  // payload written since, with no copy of it.
  void EndSection(size_t at) {
    if (out_ == nullptr) {
      return;
    }
    const size_t payload = at + 2 * sizeof(uint32_t);
    const uint32_t length = static_cast<uint32_t>(size_ - payload);
    const uint32_t crc = Crc32(out_ + payload, length);
    std::memcpy(out_ + at, &length, sizeof(length));
    std::memcpy(out_ + at + sizeof(length), &crc, sizeof(crc));
  }

 private:
  char* out_ = nullptr;
  size_t capacity_ = 0;
  size_t size_ = 0;
};

// Pages mapped for one snapshot and unmapped once it is written. A
// multi-megabyte buffer from malloc would outlive the save as resident
// heap: glibc raises its mmap threshold to the size of the last mapping it
// freed, so the next save's buffer of that size comes from the heap and
// stays resident after it is freed.
class MappedBuffer {
 public:
  explicit MappedBuffer(size_t size) : size_(std::max<size_t>(size, 1)) {
    void* pages = ::mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    data_ = pages == MAP_FAILED ? nullptr : static_cast<char*>(pages);
  }
  ~MappedBuffer() {
    if (data_ != nullptr) {
      ::munmap(data_, size_);
    }
  }
  MappedBuffer(const MappedBuffer&) = delete;
  MappedBuffer& operator=(const MappedBuffer&) = delete;

  // Null when the mapping failed.
  char* data() const { return data_; }

 private:
  size_t size_;
  char* data_ = nullptr;
};

// Parses a byte range with bounds checks: every count read from the bytes
// is validated against the bytes actually present before any allocation,
// so a corrupt length field yields kCorruption instead of a huge resize.
class BufferReader {
 public:
  BufferReader(const char* data, size_t size) : data_(data), size_(size) {}

  size_t remaining() const { return size_ - pos_; }

  Status Bytes(void* out, size_t size) {
    if (size > remaining()) {
      return Status::Corruption("snapshot truncated");
    }
    std::memcpy(out, data_ + pos_, size);
    pos_ += size;
    return Status::Ok();
  }
  Status U8(uint8_t* value) { return Bytes(value, sizeof(*value)); }
  Status I32(int32_t* value) { return Bytes(value, sizeof(*value)); }
  Status U32(uint32_t* value) { return Bytes(value, sizeof(*value)); }
  Status U64(uint64_t* value) { return Bytes(value, sizeof(*value)); }
  Status String(std::string* value) {
    uint32_t length = 0;
    SIMQ_RETURN_IF_ERROR(U32(&length));
    if (length > remaining()) {
      return Status::Corruption("snapshot string extends past end of data");
    }
    value->assign(data_ + pos_, length);
    pos_ += length;
    return Status::Ok();
  }
  Status Doubles(std::vector<double>* values) {
    uint64_t count = 0;
    SIMQ_RETURN_IF_ERROR(U64(&count));
    if (count > remaining() / sizeof(double)) {
      return Status::Corruption("snapshot array extends past end of data");
    }
    values->resize(count);
    return count == 0 ? Status::Ok()
                      : Bytes(values->data(), count * sizeof(double));
  }

  // Returns the next `size` bytes without copying, or kCorruption.
  Status Span(size_t size, const char** out) {
    if (size > remaining()) {
      return Status::Corruption("snapshot section extends past end of file");
    }
    *out = data_ + pos_;
    pos_ += size;
    return Status::Ok();
  }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

// Serializes one relation in the version's per-relation layout (ids and
// stats from version 2 on).
void AppendRelationBlock(const std::string& name, const Relation& relation,
                         int version, BufferWriter* writer) {
  writer->String(name);
  writer->I32(relation.series_length());
  writer->U64(static_cast<uint64_t>(relation.size()));
  if (version >= 2) {
    const StatsSummary stats = SummarizeRelation(relation);
    writer->Bytes(&stats, sizeof(stats));
  }
  for (const Record& record : relation.records()) {
    if (version >= 2) {
      writer->U64(static_cast<uint64_t>(record.id));
    }
    writer->String(record.name);
    writer->Doubles(record.raw);
  }
  if (version >= 4) {
    // Tombstone block: ids of deleted records. The records themselves are
    // still stored above (their names stay reserved), so the loader
    // restores by bulk-loading everything and re-deleting these ids.
    std::vector<uint64_t> dead;
    for (const Record& record : relation.records()) {
      if (!relation.sharded().alive(record.id)) {
        dead.push_back(static_cast<uint64_t>(record.id));
      }
    }
    writer->U64(dead.size());
    for (const uint64_t id : dead) {
      writer->U64(id);
    }
  }
}

// Parses one relation block and restores it into `db` via bulk load,
// validating ids and stats for version >= 2.
Status ParseRelationBlock(BufferReader* reader, int version, Database* db) {
  std::string relation_name;
  SIMQ_RETURN_IF_ERROR(reader->String(&relation_name));
  int32_t series_length = 0;
  SIMQ_RETURN_IF_ERROR(reader->I32(&series_length));
  uint64_t record_count = 0;
  SIMQ_RETURN_IF_ERROR(reader->U64(&record_count));
  StatsSummary stored_stats;
  if (version >= 2) {
    SIMQ_RETURN_IF_ERROR(reader->Bytes(&stored_stats, sizeof(stored_stats)));
  }
  SIMQ_RETURN_IF_ERROR(db->CreateRelation(relation_name));

  // Every record carries at least a length-prefixed name and a double
  // count, so `record_count` cannot exceed the bytes left to parse.
  if (record_count > reader->remaining() / sizeof(uint64_t)) {
    return Status::Corruption("snapshot record count extends past end of "
                              "data in relation '" + relation_name + "'");
  }
  std::vector<TimeSeries> series(record_count);
  for (uint64_t i = 0; i < record_count; ++i) {
    if (version >= 2) {
      uint64_t id = 0;
      SIMQ_RETURN_IF_ERROR(reader->U64(&id));
      // The engine assigns dense ids in insertion order; a snapshot with
      // any other sequence is corrupt (and restoring it would silently
      // renumber the records).
      if (id != i) {
        return Status::Corruption(
            "snapshot record ids are not the dense insertion sequence in "
            "relation '" + relation_name + "'");
      }
    }
    SIMQ_RETURN_IF_ERROR(reader->String(&series[i].id));
    SIMQ_RETURN_IF_ERROR(reader->Doubles(&series[i].values));
    if (series[i].length() != series_length) {
      return Status::Corruption(
          "snapshot record length mismatch in relation '" + relation_name +
          "'");
    }
  }
  SIMQ_RETURN_IF_ERROR(db->BulkLoad(relation_name, series));
  if (version >= 2 && record_count > 0) {
    const StatsSummary recomputed =
        SummarizeRelation(*db->GetRelation(relation_name));
    // Bit-pattern comparison (not ==): NaN stats from NaN-bearing series
    // must round-trip like any other value.
    if (std::memcmp(&recomputed, &stored_stats, sizeof(recomputed)) != 0) {
      return Status::Corruption(
          "snapshot relation stats do not match the restored records in "
          "relation '" + relation_name + "'");
    }
  }
  if (version >= 4) {
    uint64_t tombstone_count = 0;
    SIMQ_RETURN_IF_ERROR(reader->U64(&tombstone_count));
    if (tombstone_count > reader->remaining() / sizeof(uint64_t) ||
        tombstone_count > record_count) {
      return Status::Corruption(
          "snapshot tombstone count extends past end of data in relation '" +
          relation_name + "'");
    }
    for (uint64_t i = 0; i < tombstone_count; ++i) {
      uint64_t id = 0;
      SIMQ_RETURN_IF_ERROR(reader->U64(&id));
      if (id >= record_count) {
        return Status::Corruption(
            "snapshot tombstone id out of range in relation '" +
            relation_name + "'");
      }
      SIMQ_RETURN_IF_ERROR(
          db->Delete(relation_name, static_cast<int64_t>(id)));
    }
  }
  return Status::Ok();
}

// Reads one section frame, validates its CRC, and returns the payload as
// a view into the file buffer.
Status ReadSection(BufferReader* file, const char** payload, size_t* size) {
  uint32_t length = 0;
  uint32_t crc = 0;
  SIMQ_RETURN_IF_ERROR(file->U32(&length));
  SIMQ_RETURN_IF_ERROR(file->U32(&crc));
  SIMQ_RETURN_IF_ERROR(file->Span(length, payload));
  if (Crc32(*payload, length) != crc) {
    return Status::Corruption("snapshot section checksum mismatch");
  }
  *size = length;
  return Status::Ok();
}

// Writes `data` to `path` via the atomic protocol: temp file, fsync,
// rename, parent-directory fsync. On any failure the temp file is
// unlinked and the previous contents of `path` are untouched.
Status AtomicWriteFile(const std::string& path, const char* data,
                       size_t size) {
  const std::string tmp_path = path + ".tmp";
  SIMQ_RETURN_IF_FAILPOINT("save.open");
  const int fd = ::open(tmp_path.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open '" + tmp_path +
                           "' for writing: " + std::strerror(errno));
  }
  Status status = [&]() -> Status {
    size_t offset = 0;
    while (offset < size) {
      SIMQ_RETURN_IF_FAILPOINT("save.write");
      const ssize_t written = ::write(fd, data + offset, size - offset);
      if (written < 0) {
        if (errno == EINTR) continue;
        return Status::IoError("write to '" + tmp_path +
                               "' failed: " + std::strerror(errno));
      }
      offset += static_cast<size_t>(written);
    }
    SIMQ_RETURN_IF_FAILPOINT("save.sync");
    if (::fsync(fd) != 0) {
      return Status::IoError("fsync of '" + tmp_path +
                             "' failed: " + std::strerror(errno));
    }
    return Status::Ok();
  }();
  if (::close(fd) != 0 && status.ok()) {
    status = Status::IoError("close of '" + tmp_path +
                             "' failed: " + std::strerror(errno));
  }
  if (status.ok()) {
    if (SIMQ_FAILPOINT_FIRED("save.rename")) {
      status = Status::IoError("injected failure at failpoint 'save.rename'");
    } else if (::rename(tmp_path.c_str(), path.c_str()) != 0) {
      status = Status::IoError("rename of '" + tmp_path + "' to '" + path +
                               "' failed: " + std::strerror(errno));
    }
  }
  if (!status.ok()) {
    ::unlink(tmp_path.c_str());
    return status;
  }
  // Persist the rename itself: fsync the parent directory so the new
  // directory entry survives a crash. Best-effort -- some filesystems
  // refuse O_RDONLY opens of directories.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return Status::Ok();
}

// Reads the whole file into `out`, sized from fstat -- allocations are
// bounded by the bytes actually on disk, never by counts inside them.
Status ReadFile(const std::string& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("cannot open snapshot '" + path + "'");
    }
    return Status::IoError("cannot open snapshot '" + path +
                           "': " + std::strerror(errno));
  }
  Status status = [&]() -> Status {
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      return Status::IoError("fstat of '" + path +
                             "' failed: " + std::strerror(errno));
    }
    out->resize(static_cast<size_t>(st.st_size));
    size_t offset = 0;
    while (offset < out->size()) {
      const ssize_t n =
          ::read(fd, out->data() + offset, out->size() - offset);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IoError("read of '" + path +
                               "' failed: " + std::strerror(errno));
      }
      if (n == 0) {
        // Shrank under us; parse what we got and let validation decide.
        out->resize(offset);
        break;
      }
      offset += static_cast<size_t>(n);
    }
    return Status::Ok();
  }();
  ::close(fd);
  return status;
}

// Serializes the whole snapshot of `db` in `format_version`'s layout.
void WriteSnapshot(const Database& db, int format_version,
                   BufferWriter* file) {
  const FeatureConfig& config = db.config();
  const std::vector<std::string> names = db.RelationNames();
  if (format_version >= 3) {
    file->Bytes(format_version == 4 ? kMagicV4 : kMagicV3, kMagicLength);
    const size_t header = file->BeginSection();
    file->I32(config.num_coefficients);
    file->I32(static_cast<int32_t>(config.space));
    file->U8(config.include_mean_std ? 1 : 0);
    file->U64(names.size());
    file->EndSection(header);
    for (const std::string& name : names) {
      const size_t section = file->BeginSection();
      AppendRelationBlock(name, *db.GetRelation(name), format_version, file);
      file->EndSection(section);
    }
  } else {
    file->Bytes(format_version == 2 ? kMagicV2 : kMagicV1, kMagicLength);
    file->I32(config.num_coefficients);
    file->I32(static_cast<int32_t>(config.space));
    file->U8(config.include_mean_std ? 1 : 0);
    file->U64(names.size());
    for (const std::string& name : names) {
      AppendRelationBlock(name, *db.GetRelation(name), format_version, file);
    }
  }
}

}  // namespace

Status SaveDatabase(const Database& db, const std::string& path,
                    int format_version) {
  if (format_version < 1 || format_version > 4) {
    return Status::InvalidArgument("unsupported snapshot format version " +
                                   std::to_string(format_version));
  }
  BufferWriter counter;
  WriteSnapshot(db, format_version, &counter);
  const MappedBuffer buffer(counter.size());
  if (buffer.data() == nullptr) {
    return Status::IoError("cannot map " + std::to_string(counter.size()) +
                           " bytes for snapshot '" + path +
                           "': " + std::strerror(errno));
  }
  BufferWriter file(buffer.data(), counter.size());
  WriteSnapshot(db, format_version, &file);
  SIMQ_CHECK_EQ(file.size(), counter.size());
  return AtomicWriteFile(path, buffer.data(), file.size());
}

Result<Database> LoadDatabase(const std::string& path) {
  std::string bytes;
  SIMQ_RETURN_IF_ERROR(ReadFile(path, &bytes));
  if (bytes.size() < kMagicLength) {
    return Status::Corruption("'" + path + "' is not a simq snapshot");
  }
  int version = 0;
  if (std::memcmp(bytes.data(), kMagicV1, kMagicLength) == 0) {
    version = 1;
  } else if (std::memcmp(bytes.data(), kMagicV2, kMagicLength) == 0) {
    version = 2;
  } else if (std::memcmp(bytes.data(), kMagicV3, kMagicLength) == 0) {
    version = 3;
  } else if (std::memcmp(bytes.data(), kMagicV4, kMagicLength) == 0) {
    version = 4;
  } else {
    return Status::Corruption("'" + path + "' is not a simq snapshot");
  }
  BufferReader file(bytes.data() + kMagicLength, bytes.size() - kMagicLength);

  FeatureConfig config;
  int32_t space = 0;
  uint8_t include_mean_std = 0;
  uint64_t relation_count = 0;

  if (version >= 3) {
    const char* header_bytes = nullptr;
    size_t header_size = 0;
    SIMQ_RETURN_IF_ERROR(ReadSection(&file, &header_bytes, &header_size));
    BufferReader header(header_bytes, header_size);
    SIMQ_RETURN_IF_ERROR(header.I32(&config.num_coefficients));
    SIMQ_RETURN_IF_ERROR(header.I32(&space));
    SIMQ_RETURN_IF_ERROR(header.U8(&include_mean_std));
    SIMQ_RETURN_IF_ERROR(header.U64(&relation_count));
    if (header.remaining() != 0) {
      return Status::Corruption("snapshot header has trailing bytes");
    }
  } else {
    SIMQ_RETURN_IF_ERROR(file.I32(&config.num_coefficients));
    SIMQ_RETURN_IF_ERROR(file.I32(&space));
    SIMQ_RETURN_IF_ERROR(file.U8(&include_mean_std));
    SIMQ_RETURN_IF_ERROR(file.U64(&relation_count));
  }
  if (config.num_coefficients <= 0 || space < 0 || space > 1) {
    return Status::Corruption("snapshot has a corrupt configuration");
  }
  config.space = static_cast<FeatureSpace>(space);
  config.include_mean_std = include_mean_std != 0;

  Database db(config);
  for (uint64_t r = 0; r < relation_count; ++r) {
    if (version >= 3) {
      const char* section_bytes = nullptr;
      size_t section_size = 0;
      SIMQ_RETURN_IF_ERROR(ReadSection(&file, &section_bytes, &section_size));
      BufferReader section(section_bytes, section_size);
      SIMQ_RETURN_IF_ERROR(ParseRelationBlock(&section, version, &db));
      if (section.remaining() != 0) {
        return Status::Corruption("snapshot relation section has trailing "
                                  "bytes");
      }
    } else {
      SIMQ_RETURN_IF_ERROR(ParseRelationBlock(&file, version, &db));
    }
  }
  if (version >= 3 && file.remaining() != 0) {
    return Status::Corruption("snapshot has trailing bytes after the last "
                              "section");
  }
  return db;
}

StatsSummary SummarizeRelation(const Relation& relation) {
  StatsSummary stats;
  const ShardedRelation& data = relation.sharded();
  for (int64_t id = 0; id < relation.size(); ++id) {
    const double mean = data.mean(id);
    const double std_dev = data.std_dev(id);
    if (id == 0) {
      stats.mean_min = stats.mean_max = mean;
      stats.std_min = stats.std_max = std_dev;
    } else {
      stats.mean_min = std::min(stats.mean_min, mean);
      stats.mean_max = std::max(stats.mean_max, mean);
      stats.std_min = std::min(stats.std_min, std_dev);
      stats.std_max = std::max(stats.std_max, std_dev);
    }
  }
  return stats;
}

}  // namespace simq
