#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>

#include "core/failpoint.h"
#include "core/telemetry.h"
#include "storage/posix_io.h"

namespace vdb {

namespace {

constexpr std::uint8_t kInsertRecord = 1;
constexpr std::uint8_t kDeleteRecord = 2;

std::string ErrnoText(const char* op) {
  return std::string(op) + ": " + std::strerror(errno);
}

/// Short-write/EINTR handling lives in posix_io (shared with the paged
/// file, the serializer, and the network client).
Status WriteFully(int fd, const std::uint8_t* data, std::size_t len) {
  return posix_io::WriteFully(fd, data, len, "wal write");
}

void PutU16(std::vector<std::uint8_t>* out, std::uint16_t v) {
  out->push_back(v & 0xff);
  out->push_back((v >> 8) & 0xff);
}
void PutU32(std::vector<std::uint8_t>* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back((v >> (8 * i)) & 0xff);
}
void PutU64(std::vector<std::uint8_t>* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back((v >> (8 * i)) & 0xff);
}
void PutBytes(std::vector<std::uint8_t>* out, const void* data,
              std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  out->insert(out->end(), p, p + len);
}

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t len) : data_(data), len_(len) {}
  bool U8(std::uint8_t* v) { return Fixed(v, 1); }
  bool U16(std::uint16_t* v) { return Fixed(v, 2); }
  bool U32(std::uint32_t* v) { return Fixed(v, 4); }
  bool U64(std::uint64_t* v) { return Fixed(v, 8); }
  bool Bytes(void* out, std::size_t n) {
    if (at_ + n > len_) return false;
    if (n == 0) return true;  // empty payloads hand us data()==null
    std::memcpy(out, data_ + at_, n);
    at_ += n;
    return true;
  }
  std::size_t at() const { return at_; }

 private:
  template <typename T>
  bool Fixed(T* v, std::size_t n) {
    if (at_ + n > len_) return false;
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      acc |= static_cast<std::uint64_t>(data_[at_ + i]) << (8 * i);
    }
    *v = static_cast<T>(acc);
    at_ += n;
    return true;
  }
  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t at_ = 0;
};

}  // namespace

// fsync the directory containing `path` so a freshly created (or renamed)
// file's directory entry itself is durable — the classic create-then-crash
// durability bug: the file's data survives but its name does not.
Status Wal::SyncDirOf(const std::string& path) {
  std::size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("open dir " + dir + ": " + std::strerror(errno));
  }
  Status status = Status::Ok();
  if (::fsync(fd) != 0) {
    status = Status::IoError("fsync dir " + dir + ": " + std::strerror(errno));
  }
  ::close(fd);
  return status;
}

std::uint32_t Wal::Crc32(const std::uint8_t* data, std::size_t len) {
  // Slicing-by-8: eight bytes per step through eight derived tables, the
  // same CRC as the bytewise loop at several times its speed. Snapshot
  // and checkpoint loads checksum whole files, so this is most of their
  // CPU time.
  static const auto t = [] {
    std::array<std::array<std::uint32_t, 256>, 8> tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      tables[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      for (int s = 1; s < 8; ++s) {
        const std::uint32_t prev = tables[s - 1][i];
        tables[s][i] = (prev >> 8) ^ tables[0][prev & 0xff];
      }
    }
    return tables;
  }();
  auto word = [](const std::uint8_t* p) {
    return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
           std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
  };
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; len >= 8; data += 8, len -= 8) {
    const std::uint32_t lo = word(data) ^ crc;
    const std::uint32_t hi = word(data + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++data, --len) {
    crc = t[0][(crc ^ *data) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& path) {
  if (FailpointFires("wal.open.fail")) {
    return Status::IoError("injected failure: wal.open.fail");
  }
  struct stat st;
  bool existed = ::stat(path.c_str(), &st) == 0;
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  if (!existed) {
    // Make the new log file's directory entry durable before anyone
    // trusts appends to it.
    Status dir_sync = SyncDirOf(path);
    if (!dir_sync.ok()) {
      ::close(fd);
      return dir_sync;
    }
  }
  return Result<std::unique_ptr<Wal>>(std::unique_ptr<Wal>(new Wal(fd)));
}

Wal::~Wal() {
  if (fd_ >= 0) ::close(fd_);
}

Status Wal::AppendRecord(std::uint8_t type,
                         const std::vector<std::uint8_t>& body) {
  auto& reg = Registry::Global();
  static Counter& appends = reg.GetCounter("vdb_wal_appends_total");
  static Counter& failures = reg.GetCounter("vdb_wal_append_failures_total");
  static Histogram& latency = reg.GetHistogram("vdb_wal_append_seconds");
  appends.Inc();
  ScopedLatencyTimer timer(latency);
  // Frame: [u32 body_len][u8 type][body][u32 crc(type+body)].
  std::vector<std::uint8_t> frame;
  frame.reserve(body.size() + 9);
  PutU32(&frame, static_cast<std::uint32_t>(body.size()));
  frame.push_back(type);
  PutBytes(&frame, body.data(), body.size());
  std::vector<std::uint8_t> crc_input;
  crc_input.push_back(type);
  PutBytes(&crc_input, body.data(), body.size());
  PutU32(&frame, Crc32(crc_input.data(), crc_input.size()));
  if (FailpointFires("wal.append.fail")) {
    failures.Inc();
    return Status::IoError("injected failure: wal.append.fail");
  }
  if (FailpointFires("wal.append.short_write")) {
    // Simulate a crash mid-append: a torn prefix of the frame reaches the
    // file, then the "process dies" (the caller sees an I/O error). Replay
    // must stop cleanly at the preceding record.
    (void)WriteFully(fd_, frame.data(), frame.size() / 2);
    failures.Inc();
    return Status::IoError("injected failure: wal.append.short_write");
  }
  if (FailpointFires("crash.wal.append.torn")) {
    // The real thing: die with half a frame on disk (torture harness).
    (void)WriteFully(fd_, frame.data(), frame.size() / 2);
    ::_exit(2);
  }
  Status status = WriteFully(fd_, frame.data(), frame.size());
  // Frame fully written but the caller never sees the ack.
  FailpointCrashSite("crash.wal.append.full");
  if (!status.ok()) failures.Inc();
  return status;
}

Status Wal::AppendInsert(VectorId id, std::span<const float> vec,
                         const std::vector<AttrBinding>& attrs) {
  std::vector<std::uint8_t> body;
  PutU64(&body, id);
  PutU32(&body, static_cast<std::uint32_t>(vec.size()));
  PutBytes(&body, vec.data(), vec.size() * sizeof(float));
  PutU32(&body, static_cast<std::uint32_t>(attrs.size()));
  for (const auto& a : attrs) {
    PutU16(&body, static_cast<std::uint16_t>(a.column.size()));
    PutBytes(&body, a.column.data(), a.column.size());
    body.push_back(static_cast<std::uint8_t>(TypeOf(a.value)));
    switch (TypeOf(a.value)) {
      case AttrType::kInt64:
        PutU64(&body,
               static_cast<std::uint64_t>(std::get<std::int64_t>(a.value)));
        break;
      case AttrType::kDouble: {
        double d = std::get<double>(a.value);
        std::uint64_t bits;
        std::memcpy(&bits, &d, 8);
        PutU64(&body, bits);
        break;
      }
      case AttrType::kString: {
        const auto& s = std::get<std::string>(a.value);
        PutU32(&body, static_cast<std::uint32_t>(s.size()));
        PutBytes(&body, s.data(), s.size());
        break;
      }
    }
  }
  return AppendRecord(kInsertRecord, body);
}

Status Wal::AppendDelete(VectorId id) {
  std::vector<std::uint8_t> body;
  PutU64(&body, id);
  return AppendRecord(kDeleteRecord, body);
}

Status Wal::Sync() {
  auto& reg = Registry::Global();
  static Counter& fsyncs = reg.GetCounter("vdb_wal_fsyncs_total");
  static Counter& failures = reg.GetCounter("vdb_wal_fsync_failures_total");
  static Histogram& latency = reg.GetHistogram("vdb_wal_fsync_seconds");
  fsyncs.Inc();
  ScopedLatencyTimer timer(latency);
  if (FailpointFires("wal.sync.fail")) {
    failures.Inc();
    return Status::IoError("injected failure: wal.sync.fail");
  }
  Status synced = posix_io::SyncFd(fd_, "wal fsync");
  if (!synced.ok()) {
    failures.Inc();
    return synced;
  }
  FailpointCrashSite("crash.wal.synced");
  return Status::Ok();
}

Status Wal::Replay(const std::string& path, Visitor* visitor,
                   std::size_t* applied, std::size_t* valid_bytes) {
  if (applied != nullptr) *applied = 0;
  if (valid_bytes != nullptr) *valid_bytes = 0;
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::Ok();  // nothing logged yet
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  off_t size = ::lseek(fd, 0, SEEK_END);
  std::vector<std::uint8_t> all(static_cast<std::size_t>(size));
  if (size > 0 && ::pread(fd, all.data(), all.size(), 0) != size) {
    ::close(fd);
    return Status::IoError("wal read failed");
  }
  ::close(fd);

  Reader file(all.data(), all.size());
  while (true) {
    std::uint32_t body_len;
    if (!file.U32(&body_len)) break;  // clean EOF or torn length
    std::uint8_t type;
    if (!file.U8(&type)) break;
    if (file.at() + body_len + 4 > all.size()) break;  // torn body
    const std::uint8_t* body = all.data() + file.at();
    std::vector<std::uint8_t> crc_input;
    crc_input.push_back(type);
    crc_input.insert(crc_input.end(), body, body + body_len);
    std::vector<std::uint8_t> skip(body_len);
    file.Bytes(skip.data(), body_len);
    std::uint32_t stored_crc = 0;
    file.U32(&stored_crc);
    if (Crc32(crc_input.data(), crc_input.size()) != stored_crc) break;

    Reader rec(body, body_len);
    if (type == kInsertRecord) {
      std::uint64_t id;
      std::uint32_t dim;
      if (!rec.U64(&id) || !rec.U32(&dim)) break;
      std::vector<float> vec(dim);
      if (!rec.Bytes(vec.data(), dim * sizeof(float))) break;
      std::uint32_t nattrs;
      if (!rec.U32(&nattrs)) break;
      std::vector<AttrBinding> attrs;
      bool ok = true;
      for (std::uint32_t a = 0; a < nattrs && ok; ++a) {
        std::uint16_t name_len;
        ok = rec.U16(&name_len);
        if (!ok) break;
        std::string name(name_len, '\0');
        ok = rec.Bytes(name.data(), name_len);
        if (!ok) break;
        std::uint8_t vtype;
        ok = rec.U8(&vtype);
        if (!ok) break;
        switch (static_cast<AttrType>(vtype)) {
          case AttrType::kInt64: {
            std::uint64_t v;
            ok = rec.U64(&v);
            if (ok) attrs.push_back({name, static_cast<std::int64_t>(v)});
            break;
          }
          case AttrType::kDouble: {
            std::uint64_t bits;
            ok = rec.U64(&bits);
            if (ok) {
              double d;
              std::memcpy(&d, &bits, 8);
              attrs.push_back({name, d});
            }
            break;
          }
          case AttrType::kString: {
            std::uint32_t len;
            ok = rec.U32(&len);
            if (!ok) break;
            std::string s(len, '\0');
            ok = rec.Bytes(s.data(), len);
            if (ok) attrs.push_back({name, s});
            break;
          }
          default:
            ok = false;
        }
      }
      if (!ok) break;
      if (visitor != nullptr) visitor->OnInsert(id, vec, attrs);
    } else if (type == kDeleteRecord) {
      std::uint64_t id;
      if (!rec.U64(&id)) break;
      if (visitor != nullptr) visitor->OnDelete(id);
    } else {
      break;  // unknown record type: treat as corruption
    }
    if (applied != nullptr) ++(*applied);
    if (valid_bytes != nullptr) *valid_bytes = file.at();
  }
  return Status::Ok();
}

Status Wal::TruncateTo(const std::string& path, std::size_t valid_bytes) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    if (errno == ENOENT) return Status::Ok();  // nothing to truncate
    return Status::IoError(ErrnoText("wal stat"));
  }
  if (static_cast<std::size_t>(st.st_size) <= valid_bytes) {
    return Status::Ok();  // tail is clean
  }
  static Counter& torn = Registry::Global().GetCounter(
      "vdb_recovery_torn_bytes_truncated_total");
  torn.Inc(static_cast<std::size_t>(st.st_size) - valid_bytes);
  int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) return Status::IoError(ErrnoText("wal open for truncate"));
  Status status = Status::Ok();
  if (::ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0) {
    status = Status::IoError(ErrnoText("wal ftruncate"));
  } else {
    status = posix_io::SyncFd(fd, "wal fsync after truncate");
  }
  ::close(fd);
  return status;
}

}  // namespace vdb
