#ifndef PPN_CKPT_CHECKPOINT_H_
#define PPN_CKPT_CHECKPOINT_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/binio.h"
#include "common/atomic_file.h"

/// \file
/// Crash-safe, versioned binary checkpoints. One checkpoint file is
///
///   magic "PPNCKPT1" (8 bytes)
///   u32 format version
///   payload: named sections in writer order
///   u32 CRC-32 footer over every preceding byte
///
/// with all scalars little-endian (see binio.h). Files are written
/// temp-then-rename (`common/atomic_file.h`), so a crash mid-write leaves
/// the previous checkpoint intact and never a truncated file; truncation
/// or corruption introduced afterwards is caught by the CRC before a
/// single payload byte is handed to the caller — there are no partial
/// loads.
///
/// `Checkpointer` manages a directory of rotating snapshots
/// (`step-<n>.ckpt`), retaining the newest `kRetain` and restoring from
/// the newest intact one. Observability (when enabled): `ckpt.write.seconds`
/// / `ckpt.restore.seconds` histograms, `ckpt.write.bytes` /
/// `ckpt.restore.bytes` / `ckpt.writes` / `ckpt.restores` counters, and
/// `ckpt.corrupt` counting rejected files.

namespace ppn::ckpt {

inline constexpr char kMagic[8] = {'P', 'P', 'N', 'C', 'K', 'P', 'T', '1'};
inline constexpr uint32_t kFormatVersion = 1;

/// Streams one checkpoint file. Usage: construct, write sections
/// (`BeginSection` then payload through `writer()`), then `Commit`.
/// Destruction without `Commit` leaves the target path untouched.
class CheckpointWriter {
 public:
  explicit CheckpointWriter(const std::string& path);
  ~CheckpointWriter();

  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Marks the start of a named section; the reader re-validates names in
  /// order, so load errors carry section context.
  void BeginSection(const std::string& name);

  /// The payload writer (CRC-tracked).
  BinWriter& writer() { return *writer_; }

  /// Appends the CRC footer and atomically renames the file into place.
  /// False on IO failure (with a message in *error when non-null).
  bool Commit(std::string* error = nullptr);

 private:
  std::string path_;
  AtomicFileWriter file_;
  std::unique_ptr<BinWriter> writer_;
  std::chrono::steady_clock::time_point start_;
  bool committed_ = false;
};

/// Loads and validates one checkpoint file, then hands out a reader over
/// the payload. `Open` verifies magic, version, and CRC up front.
class CheckpointReader {
 public:
  CheckpointReader() = default;

  /// False (with a contextual *error) on missing file, short file, bad
  /// magic, unsupported version, or CRC mismatch. On success `reader()`
  /// is positioned at the first section.
  bool Open(const std::string& path, std::string* error);

  /// Consumes a section header and checks its name; false (with *error)
  /// on mismatch — a versioning or call-order bug, or a foreign file.
  bool EnterSection(const std::string& expected, std::string* error);

  /// Payload reader. Valid after a successful `Open`.
  BinReader& reader() { return *reader_; }

  /// Checks the payload was fully consumed and no read failed; false with
  /// *error otherwise. Call after the last section.
  bool Finish(std::string* error);

 private:
  std::string path_;
  std::string buffer_;
  std::unique_ptr<BinReader> reader_;
};

/// Rotating snapshot manager over one directory. Not thread-safe: one
/// Checkpointer per training run (concurrent runs use distinct dirs).
class Checkpointer {
 public:
  /// Snapshots kept; older ones are pruned after each write.
  static constexpr int64_t kRetain = 3;

  /// Creates `dir` if needed. Aborts on an empty dir.
  explicit Checkpointer(std::string dir);

  /// `dir/step-<n zero-padded>.ckpt`.
  std::string SnapshotPath(int64_t step) const;

  /// Steps that have a snapshot file, ascending (existence only; validity
  /// is established at restore time).
  std::vector<int64_t> ListSnapshots() const;

  /// Writes the snapshot for `step`: `fill` serializes sections into the
  /// writer, then the file is committed atomically and snapshots beyond
  /// `kRetain` are pruned (oldest first). False with *error on IO failure
  /// (any partially written temp file is removed; existing snapshots are
  /// untouched).
  bool WriteSnapshot(int64_t step,
                     const std::function<void(CheckpointWriter*)>& fill,
                     std::string* error);

  /// Restores from the newest intact snapshot: corrupt files and failed
  /// `load` calls are reported to stderr (and `ckpt.corrupt`) and the
  /// next older snapshot is tried. `load` deserializes sections and
  /// returns false with an error message on mismatch. On success `*step`
  /// is the restored step. False when no snapshot could be restored
  /// (*error explains; "no snapshots" when the directory is empty).
  bool RestoreLatest(
      const std::function<bool(CheckpointReader*, std::string*)>& load,
      int64_t* step, std::string* error);

 private:
  std::string dir_;
};

}  // namespace ppn::ckpt

#endif  // PPN_CKPT_CHECKPOINT_H_
