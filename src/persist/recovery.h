// Restart-by-rebuild recovery: snapshot + WAL tail -> sorted image
// (DESIGN.md §13).
//
// RecoverImage() turns a data directory back into the logical content of
// the index:
//
//   1. mmap + validate the installed snapshot (if any) — the base image,
//      already in ascending raw-key order;
//   2. read every WAL segment in sequence order, keeping records with
//      lsn > snapshot.last_lsn (older ones are already folded into the
//      snapshot — the fuzzy-scan protocol makes replay idempotent, see
//      below); a torn tail is legal only in the NEWEST segment, anywhere
//      else it is corruption and recovery fails loudly;
//   3. sort the tail by (key, lsn), keep the last op per key, and two-way
//      merge it over the snapshot stream: puts override, deletes drop.
//
// The result is a duplicate-free, key-sorted record vector — exactly the
// input ParallelBulkBuild wants, which is what makes restart O(image) with
// a multi-Mkeys/s constant instead of O(ops-since-genesis) replay.
//
// Records are views, not copies.  A snapshot record's key points into the
// mapped snapshot file, a tail record's key into the read buffer of its
// WAL segment; the RecoveryResult owns both, so its records stay valid
// exactly as long as the result itself.  Restart therefore allocates no
// memory per key before the record store takes the bytes.  The tail sort
// compares an 8-byte big-endian key prefix first (zero-padded, which
// orders like the full keys wherever the prefixes differ) and falls back
// to the full key, then the LSN, only on equal prefixes.
//
// Fuzzy snapshots and idempotence.  The snapshot scan runs while writers
// keep writing: the server rotates the WAL first (cut C = last LSN of the
// old segment), then scans.  A write that lands during the scan is in the
// new segment (lsn > C) and may or may not have made the scanned image —
// both are fine, because replaying it is idempotent: put(k,v) over an
// image that already has (k,v) is a no-op overwrite, delete(k) over an
// image that already dropped k is a no-op.  The merge therefore never
// needs to know what the scan saw.
//
// Crash points the protocol survives (tests/recovery_test.cc and the
// crash-injection harness walk them): mid-scan (tmp file only, ignored and
// deleted), after rename but before pruning (old segments replay as stale
// lsn <= C records, skipped), mid-append (torn tail, truncated).

#ifndef HOT_PERSIST_RECOVERY_H_
#define HOT_PERSIST_RECOVERY_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/key.h"
#include "persist/snapshot.h"
#include "persist/wal.h"

namespace hot {
namespace persist {

// One key/value of the recovered image.  The key bytes belong to the
// RecoveryResult the record came from.
struct RecoveredRecord {
  const uint8_t* key_data = nullptr;  // raw wire key bytes
  uint32_t key_len = 0;
  uint64_t value = 0;

  KeyRef key_ref() const { return KeyRef(key_data, key_len); }
};

struct RecoveryResult {
  // The merged image: unique keys, ascending raw-key order.
  std::vector<RecoveredRecord> records;

  // Where the WAL writer resumes (tail segment + truncation point + LSN).
  WalResume resume;

  uint64_t last_lsn = 0;          // highest LSN folded into `records`
  bool snapshot_loaded = false;
  bool torn_tail = false;         // newest segment ended in a torn frame
  uint64_t snapshot_records = 0;
  uint64_t wal_segments = 0;
  uint64_t wal_records_applied = 0;  // lsn > snapshot cut
  uint64_t wal_records_stale = 0;    // lsn <= snapshot cut (pre-prune crash)

  // What the records' keys point into: the mapped snapshot and the read
  // buffers of the WAL segments that hold tail records.
  std::unique_ptr<SnapshotReader> snapshot;
  std::vector<std::vector<uint8_t>> wal_buffers;
};

// CRC32C over the ordered image (key bytes framed by their length, then the
// value) — the scan-parity fingerprint the recovery gate and the crash
// harness compare against the pre-crash oracle.
inline uint32_t ImageChecksum(const std::vector<RecoveredRecord>& records) {
  uint32_t state = Crc32cBegin();
  for (const RecoveredRecord& r : records) {
    uint32_t klen = r.key_len;
    state = Crc32cExtend(state, &klen, sizeof(klen));
    state = Crc32cExtend(state, r.key_data, r.key_len);
    state = Crc32cExtend(state, &r.value, sizeof(r.value));
  }
  return Crc32cFinish(state);
}

namespace detail {

// The first 8 bytes of `key` as a big-endian integer, zero-padded: where
// two prefixes differ they order like the full keys.
inline uint64_t KeyPrefix8(KeyRef key) {
  uint8_t buf[8] = {};
  if (key.size() != 0) {
    std::memcpy(buf, key.data(), std::min<size_t>(key.size(), sizeof(buf)));
  }
  uint64_t v;
  std::memcpy(&v, buf, sizeof(v));
  return __builtin_bswap64(v);
}

}  // namespace detail

// Rebuilds the logical image from `dir`.  Returns false (with *error) on
// real corruption — a snapshot that fails validation, or a torn/invalid
// frame anywhere but the newest segment's tail.  An empty directory is a
// valid empty image.
inline bool RecoverImage(const std::string& dir, RecoveryResult* out,
                         std::string* error) {
  *out = RecoveryResult();

  // A tmp snapshot is a crash mid-scan: garbage by protocol, remove it so
  // it can never be confused for an image.
  ::unlink(SnapshotTmpPath(dir).c_str());

  uint64_t cut = 0;  // snapshot's WAL cut; tail records must exceed it
  std::string snap_path = SnapshotPath(dir);
  struct stat st;
  if (::stat(snap_path.c_str(), &st) == 0) {
    out->snapshot = std::make_unique<SnapshotReader>();
    if (!out->snapshot->Open(snap_path, error)) return false;
    cut = out->snapshot->last_lsn();
    out->snapshot_loaded = true;
    out->snapshot_records = out->snapshot->count();
    out->last_lsn = cut;
  }

  // WAL tail: op stream with lsn > cut, in append order.  Keys point into
  // the segment buffers kept in out->wal_buffers.
  struct TailOp {
    uint64_t prefix;  // detail::KeyPrefix8 of the key
    const uint8_t* key;
    uint32_t klen;
    uint8_t op;
    uint64_t lsn;
    uint64_t value;

    KeyRef key_ref() const { return KeyRef(key, klen); }
  };
  std::vector<TailOp> tail;
  auto segments = ListWalSegments(dir);
  out->wal_segments = segments.size();
  for (size_t i = 0; i < segments.size(); ++i) {
    const auto& [seq, path] = segments[i];
    const size_t tail_before = tail.size();
    std::vector<uint8_t> buffer;
    WalReadResult r = ReadWalSegment(
        path,
        [&](const WalRecord& rec) {
          if (rec.lsn <= cut) {
            out->wal_records_stale++;
            return;
          }
          out->wal_records_applied++;
          tail.push_back({detail::KeyPrefix8(rec.key), rec.key.data(),
                          static_cast<uint32_t>(rec.key.size()), rec.op,
                          rec.lsn, rec.value});
          if (rec.lsn > out->last_lsn) out->last_lsn = rec.lsn;
        },
        &buffer);
    if (tail.size() != tail_before) {
      out->wal_buffers.push_back(std::move(buffer));
    }
    if (!r.ok) {
      if (error != nullptr) *error = r.error;
      return false;
    }
    if (r.torn) {
      if (i + 1 != segments.size()) {
        if (error != nullptr) {
          *error = path + ": torn/corrupt frame in a non-tail segment";
        }
        return false;
      }
      out->torn_tail = true;
    }
    if (i + 1 == segments.size()) {
      out->resume.seq = seq;
      out->resume.valid_end = r.valid_end;
      out->resume.segment_exists = true;
    }
  }
  out->resume.next_lsn = out->last_lsn + 1;

  // Last-writer-wins per key: stable order is (key, lsn), keep the highest
  // lsn of each run.
  std::sort(tail.begin(), tail.end(), [](const TailOp& a, const TailOp& b) {
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    int c = a.key_ref().Compare(b.key_ref());
    if (c != 0) return c < 0;
    return a.lsn < b.lsn;
  });
  std::vector<TailOp> delta;
  delta.reserve(tail.size());
  for (size_t i = 0; i < tail.size(); ++i) {
    if (i + 1 < tail.size() && tail[i].prefix == tail[i + 1].prefix &&
        tail[i].key_ref().Compare(tail[i + 1].key_ref()) == 0) {
      continue;
    }
    delta.push_back(tail[i]);
  }
  tail = std::vector<TailOp>();

  // Merge snapshot stream x delta: both ascending, delta wins on ties.
  out->records.reserve(out->snapshot_records + delta.size());
  size_t di = 0;
  auto emit = [&](KeyRef key, uint64_t value) {
    out->records.push_back(
        {key.data(), static_cast<uint32_t>(key.size()), value});
  };
  if (out->snapshot_loaded) {
    std::string merge_err;
    bool merge_ok = out->snapshot->ForEach(
        [&](KeyRef key, uint64_t value) {
          // Deltas strictly below the snapshot key first.
          while (di < delta.size()) {
            int c = delta[di].key_ref().Compare(key);
            if (c > 0) break;
            if (delta[di].op == kWalPut) {
              emit(delta[di].key_ref(), delta[di].value);
            }
            ++di;
            // Same key: the delta supersedes the snapshot record.
            if (c == 0) return;
          }
          emit(key, value);
        },
        &merge_err);
    if (!merge_ok) {
      if (error != nullptr) *error = merge_err;
      return false;
    }
  }
  for (; di < delta.size(); ++di) {  // deltas above the whole snapshot
    if (delta[di].op == kWalPut) emit(delta[di].key_ref(), delta[di].value);
  }
  return true;
}

}  // namespace persist
}  // namespace hot

#endif  // HOT_PERSIST_RECOVERY_H_
