#ifndef SQM_MPC_CHECKPOINT_STORE_H_
#define SQM_MPC_CHECKPOINT_STORE_H_

#include <cstdint>
#include <string>

#include "core/status.h"
#include "mpc/circuit.h"

namespace sqm {

/// Everything a restarted party needs to resume its side of the protocol
/// bit-identically: the in-memory BgwCheckpoint phase state (one share per
/// wire) plus the party's RNG-split cursor (so re-dealt sub-shares and
/// noise come out of the same stream positions) and enough identity to
/// refuse a snapshot from the wrong run, party, or circuit.
struct DurableCheckpoint {
  uint64_t run_id = 0;
  uint32_t party = 0;
  /// Incarnation that WROTE the snapshot. A restarted party loads any
  /// incarnation <= its own (its predecessors wrote them).
  uint32_t incarnation = 0;
  /// Caller-chosen fingerprint of the circuit/config (gate count, seed,
  /// roster size, ... mixed by the caller); a mismatch means the config
  /// changed under the run and the snapshot must be refused.
  uint64_t fingerprint = 0;
  /// The protocol's phase state; phase.valid == false means the input
  /// phase had not completed when the snapshot was taken.
  BgwCheckpoint phase;
  /// Rng::SaveState words of the party's protocol stream at snapshot time.
  uint64_t rng_state[4] = {0, 0, 0, 0};
};

/// Versioned, CRC-guarded on-disk snapshot of one party's protocol state.
///
/// One file per party directory (`<dir>/checkpoint.bin`). Save is atomic
/// (WriteFileAtomically), so a crash mid-save leaves either the previous
/// snapshot or none — never a torn file. Load verifies magic, format
/// version, length, and a CRC-32 over the whole payload before believing a
/// single field, and then the caller re-checks run_id/party/fingerprint
/// against the live config.
class CheckpointStore {
 public:
  /// `dir` must exist; the store never creates directories.
  explicit CheckpointStore(std::string dir);

  const std::string& dir() const { return dir_; }
  std::string path() const;

  /// Atomically replaces the snapshot on disk.
  Status Save(const DurableCheckpoint& checkpoint) const;

  /// Reads and validates the snapshot. kNotFound when no file exists,
  /// kIntegrityViolation on any corruption (bad magic, version, length,
  /// CRC).
  Result<DurableCheckpoint> Load() const;

  bool Exists() const;

  /// Removes the snapshot (idempotent; missing file is OK).
  Status Clear() const;

 private:
  std::string dir_;
};

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `len` bytes. Exposed for
/// tests that corrupt snapshots deliberately.
uint32_t Crc32(const uint8_t* data, size_t len);

}  // namespace sqm

#endif  // SQM_MPC_CHECKPOINT_STORE_H_
