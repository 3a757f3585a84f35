#ifndef SQM_CORE_ATOMIC_FILE_H_
#define SQM_CORE_ATOMIC_FILE_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>

#include "core/status.h"

namespace sqm {

/// Replaces the file at `path` with `size` bytes from `data`: they go to a
/// temporary `<path>.tmp<k>` beside it (k unique within the process, so
/// concurrent writers never share one), are flushed, and the temporary is
/// renamed over `path`. A reader, or a crash mid-write, sees the previous
/// file or the new one, never a torn one.
inline Status WriteFileAtomically(const std::string& path, const void* data,
                                  size_t size) {
  static std::atomic<uint64_t> next_temporary{0};
  const std::string tmp = path + ".tmp" + std::to_string(next_temporary++);
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open " + tmp);
  const bool written = std::fwrite(data, 1, size, f) == size;
  const bool flushed = std::fflush(f) == 0;
  if (std::fclose(f) != 0 || !written || !flushed) {
    std::remove(tmp.c_str());
    return Status::IoError("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename " + tmp + " into place");
  }
  return Status::OK();
}

}  // namespace sqm

#endif  // SQM_CORE_ATOMIC_FILE_H_
