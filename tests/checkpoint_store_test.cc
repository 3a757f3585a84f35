// Durable checkpoint store: round-trip fidelity, atomicity guarantees at
// the API level, and — most important for recovery correctness — refusal
// of anything corrupt. A restarted party that trusted a torn or bit-
// flipped snapshot would rejoin with wrong shares and poison the quorum,
// so every corruption must come back kIntegrityViolation, never a
// half-plausible checkpoint.

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mpc/checkpoint_store.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#else
static int getpid() { return 0; }
#endif

namespace {

std::string MakeTempDir(const std::string& tag) {
  static int counter = 0;
  const std::string dir = testing::TempDir() + "/ckpt_" + tag + "_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(counter++);
  EXPECT_EQ(std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str()),
            0);
  return dir;
}

sqm::DurableCheckpoint SampleCheckpoint() {
  sqm::DurableCheckpoint snap;
  snap.run_id = 0xdecafbadULL;
  snap.party = 3;
  snap.incarnation = 2;
  snap.fingerprint = 0x1234567890abcdefULL;
  snap.phase.valid = true;
  snap.phase.next_level = 5;
  snap.phase.mul_rounds_done = 7;
  snap.phase.wire_shares = {1, 2, (uint64_t{1} << 61) - 2, 0, 42};
  snap.rng_state[0] = 11;
  snap.rng_state[1] = 22;
  snap.rng_state[2] = 33;
  snap.rng_state[3] = 44;
  return snap;
}

TEST(CheckpointStore, SaveLoadRoundTripsEveryField) {
  const sqm::CheckpointStore store(MakeTempDir("roundtrip"));
  EXPECT_FALSE(store.Exists());

  const sqm::DurableCheckpoint snap = SampleCheckpoint();
  ASSERT_TRUE(store.Save(snap).ok());
  EXPECT_TRUE(store.Exists());

  sqm::Result<sqm::DurableCheckpoint> loaded = store.Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const sqm::DurableCheckpoint& got = loaded.ValueOrDie();
  EXPECT_EQ(got.run_id, snap.run_id);
  EXPECT_EQ(got.party, snap.party);
  EXPECT_EQ(got.incarnation, snap.incarnation);
  EXPECT_EQ(got.fingerprint, snap.fingerprint);
  EXPECT_EQ(got.phase.valid, snap.phase.valid);
  EXPECT_EQ(got.phase.next_level, snap.phase.next_level);
  EXPECT_EQ(got.phase.mul_rounds_done, snap.phase.mul_rounds_done);
  EXPECT_EQ(got.phase.wire_shares, snap.phase.wire_shares);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(got.rng_state[i], snap.rng_state[i]);
  }
}

TEST(CheckpointStore, SaveOverwritesAtomically) {
  const sqm::CheckpointStore store(MakeTempDir("overwrite"));
  sqm::DurableCheckpoint snap = SampleCheckpoint();
  ASSERT_TRUE(store.Save(snap).ok());

  snap.phase.next_level = 9;
  snap.phase.wire_shares = {99};
  ASSERT_TRUE(store.Save(snap).ok());

  sqm::Result<sqm::DurableCheckpoint> loaded = store.Load();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.ValueOrDie().phase.next_level, 9u);
  EXPECT_EQ(loaded.ValueOrDie().phase.wire_shares, std::vector<uint64_t>{99});
}

TEST(CheckpointStore, MissingFileIsNotFound) {
  const sqm::CheckpointStore store(MakeTempDir("missing"));
  sqm::Result<sqm::DurableCheckpoint> loaded = store.Load();
  EXPECT_EQ(loaded.status().code(), sqm::StatusCode::kNotFound);
}

TEST(CheckpointStore, ClearIsIdempotent) {
  const sqm::CheckpointStore store(MakeTempDir("clear"));
  EXPECT_TRUE(store.Clear().ok());  // Nothing there yet.
  ASSERT_TRUE(store.Save(SampleCheckpoint()).ok());
  EXPECT_TRUE(store.Clear().ok());
  EXPECT_FALSE(store.Exists());
  EXPECT_TRUE(store.Clear().ok());
}

TEST(CheckpointStore, FlippedByteFailsCrc) {
  const sqm::CheckpointStore store(MakeTempDir("bitflip"));
  ASSERT_TRUE(store.Save(SampleCheckpoint()).ok());

  // Flip one byte in the middle of the payload.
  std::fstream file(store.path(),
                    std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good());
  file.seekg(40);
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  file.seekp(40);
  file.write(&byte, 1);
  file.close();

  sqm::Result<sqm::DurableCheckpoint> loaded = store.Load();
  EXPECT_EQ(loaded.status().code(), sqm::StatusCode::kIntegrityViolation)
      << loaded.status().ToString();
}

TEST(CheckpointStore, TruncatedFileIsRejected) {
  const sqm::CheckpointStore store(MakeTempDir("truncated"));
  ASSERT_TRUE(store.Save(SampleCheckpoint()).ok());

  std::ifstream in(store.path(), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 16u);
  std::ofstream out(store.path(), std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 9));
  out.close();

  sqm::Result<sqm::DurableCheckpoint> loaded = store.Load();
  EXPECT_EQ(loaded.status().code(), sqm::StatusCode::kIntegrityViolation);
}

TEST(CheckpointStore, WrongMagicIsRejected) {
  const sqm::CheckpointStore store(MakeTempDir("magic"));
  ASSERT_TRUE(store.Save(SampleCheckpoint()).ok());

  std::fstream file(store.path(),
                    std::ios::in | std::ios::out | std::ios::binary);
  const char zeros[8] = {0};
  file.seekp(0);
  file.write(zeros, 8);
  file.close();

  sqm::Result<sqm::DurableCheckpoint> loaded = store.Load();
  EXPECT_EQ(loaded.status().code(), sqm::StatusCode::kIntegrityViolation);
}

TEST(Crc32, MatchesKnownVector) {
  // IEEE 802.3 CRC-32 of "123456789" is the classic check value.
  const uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(sqm::Crc32(data, sizeof(data)), 0xcbf43926u);
}

}  // namespace
