#include "mpc/checkpoint_store.h"

#include <cstdio>
#include <utility>

#include "core/atomic_file.h"

namespace sqm {
namespace {

// "SQMCKPT" + format generation in the last byte.
constexpr uint64_t kMagic = 0x53514d434b505431ULL;
constexpr uint32_t kFormatVersion = 1;

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(uint8_t(v >> (8 * i)));
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(uint8_t(v >> (8 * i)));
}

// Bounds-checked little-endian reader (same defensive shape as the TCP
// frame decoder: length errors surface as status, never as UB).
class Reader {
 public:
  Reader(const uint8_t* data, size_t len) : data_(data), len_(len) {}

  bool U32(uint32_t* out) {
    if (len_ - pos_ < 4) return false;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= uint32_t(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    *out = v;
    return true;
  }

  bool U64(uint64_t* out) {
    if (len_ - pos_ < 8) return false;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= uint64_t(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    *out = v;
    return true;
  }

  size_t remaining() const { return len_ - pos_; }

 private:
  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

Status Corrupt(const std::string& path, const std::string& what) {
  return Status::IntegrityViolation("checkpoint " + path + ": " + what);
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t len) {
  // Bitwise CRC-32/ISO-HDLC (reflected 0xEDB88320). Snapshot files are a
  // few KB at phase boundaries; no table needed.
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return crc ^ 0xffffffffu;
}

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {}

std::string CheckpointStore::path() const { return dir_ + "/checkpoint.bin"; }

Status CheckpointStore::Save(const DurableCheckpoint& checkpoint) const {
  std::vector<uint8_t> buffer;
  buffer.reserve(96 + 8 * checkpoint.phase.wire_shares.size());
  PutU64(&buffer, kMagic);
  PutU32(&buffer, kFormatVersion);
  PutU64(&buffer, checkpoint.run_id);
  PutU32(&buffer, checkpoint.party);
  PutU32(&buffer, checkpoint.incarnation);
  PutU64(&buffer, checkpoint.fingerprint);
  PutU32(&buffer, checkpoint.phase.valid ? 1 : 0);
  PutU64(&buffer, checkpoint.phase.next_level);
  PutU64(&buffer, checkpoint.phase.mul_rounds_done);
  for (int i = 0; i < 4; ++i) PutU64(&buffer, checkpoint.rng_state[i]);
  PutU64(&buffer, checkpoint.phase.wire_shares.size());
  for (uint64_t word : checkpoint.phase.wire_shares) PutU64(&buffer, word);
  const uint32_t crc = Crc32(buffer.data(), buffer.size());
  PutU32(&buffer, crc);

  return WriteFileAtomically(path(), buffer.data(), buffer.size());
}

Result<DurableCheckpoint> CheckpointStore::Load() const {
  const std::string file_path = path();
  std::FILE* f = std::fopen(file_path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("no checkpoint at " + file_path);
  }
  std::vector<uint8_t> buffer;
  uint8_t chunk[4096];
  size_t got;
  while ((got = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
    buffer.insert(buffer.end(), chunk, chunk + got);
  }
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) return Status::IoError("cannot read " + file_path);

  if (buffer.size() < 4) return Corrupt(file_path, "truncated");
  const size_t body_len = buffer.size() - 4;
  uint32_t stored_crc = 0;
  for (int i = 0; i < 4; ++i) {
    stored_crc |= uint32_t(buffer[body_len + i]) << (8 * i);
  }
  if (Crc32(buffer.data(), body_len) != stored_crc) {
    return Corrupt(file_path, "CRC mismatch");
  }

  Reader reader(buffer.data(), body_len);
  uint64_t magic = 0;
  uint32_t version = 0;
  if (!reader.U64(&magic) || magic != kMagic) {
    return Corrupt(file_path, "bad magic");
  }
  if (!reader.U32(&version) || version != kFormatVersion) {
    return Corrupt(file_path,
                   "unsupported format version " + std::to_string(version));
  }
  DurableCheckpoint checkpoint;
  uint32_t valid_word = 0;
  uint64_t next_level = 0;
  uint64_t mul_rounds_done = 0;
  uint64_t count = 0;
  if (!reader.U64(&checkpoint.run_id) || !reader.U32(&checkpoint.party) ||
      !reader.U32(&checkpoint.incarnation) ||
      !reader.U64(&checkpoint.fingerprint) || !reader.U32(&valid_word) ||
      !reader.U64(&next_level) || !reader.U64(&mul_rounds_done)) {
    return Corrupt(file_path, "truncated header");
  }
  checkpoint.phase.valid = valid_word != 0;
  checkpoint.phase.next_level = static_cast<size_t>(next_level);
  checkpoint.phase.mul_rounds_done = static_cast<size_t>(mul_rounds_done);
  for (int i = 0; i < 4; ++i) {
    if (!reader.U64(&checkpoint.rng_state[i])) {
      return Corrupt(file_path, "truncated rng state");
    }
  }
  if (!reader.U64(&count) || count != reader.remaining() / 8 ||
      count * 8 != reader.remaining()) {
    return Corrupt(file_path, "wire count does not match file length");
  }
  checkpoint.phase.wire_shares.resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    reader.U64(&checkpoint.phase.wire_shares[i]);
  }
  return checkpoint;
}

bool CheckpointStore::Exists() const {
  std::FILE* f = std::fopen(path().c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

Status CheckpointStore::Clear() const {
  std::remove(path().c_str());
  return Status::OK();
}

}  // namespace sqm
