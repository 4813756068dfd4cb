// Record storage behind the network KV front-end, plus the order-preserving
// escape that maps arbitrary wire keys onto the tries' prefix-free key space.
//
// The tries in this repository store 63-bit values and re-derive key bytes
// through a KeyExtractor (common/extractors.h).  The server therefore keeps
// each key as a record { raw wire key, escaped trie key, u64 value } and
// indexes the RECORD ID: the extractor returns the escaped key bytes owned
// by the record, GET resolves id -> value, SCAN resolves id -> (raw key,
// value).  A record's key bytes never change once appended; its value is
// an atomic that a PUT to an existing key overwrites in place, so an
// overwrite leaves both the id and the trie alone (DESIGN.md §12).  Only a
// PUT that misses the index appends a record and upserts its id.  A DELETE
// removes the id from the index but leaves the record behind: dead records
// are not reclaimed yet, so the store grows with inserts, never with
// overwrites.  ServerStats::records_appended reports the total.
//
// Key bytes are kept once where the escape allows it.  A key with no 0x00
// byte escapes to itself followed by the terminator 00 00, so the record
// stores only `raw || 00 00` (raw_len + 2 bytes): the raw key is its first
// raw_len bytes and the escaped key is all of them.  A key containing a NUL
// escapes to different bytes and keeps the raw form followed by the escaped
// form.  esc_len == raw_len + 2 holds exactly for NUL-free keys, so the two
// layouts need no tag.  key_bytes() counts the bytes so stored.
//
// The bytes come from a store-wide bump allocator of 1 MiB blocks, taken
// under the append mutex.  Blocks are not zero-filled, so a block's pages
// become resident only as keys are written into them.  A key that does not
// fit the current block's remainder starts a new block; keys are at most
// 2 * kMaxKeyBytes bytes, so that waste stays under 0.05%.
//
// Bulk path.  Restart refills the store with the whole recovered image at
// once (TryAppendBulk): ids [base, base + n) in image order, written by
// several threads.  The range is split at chunk boundaries, so each thread
// owns whole chunks of records, and each thread takes key bytes from its
// own blocks; the blocks join the store's under the append mutex at the
// end, which the call holds throughout.  Every record, bulk or single, is
// written by one helper (WriteRecord), so both paths share one layout and
// one key_bytes() count, whatever the thread count.
//
// Capacity is bounded (2^30 records by default; the constructor takes a
// smaller chunk budget for tests).  TryAppend and TryAppendBulk report
// exhaustion; Append is for callers that cannot handle it and aborts with
// a message.
//
// Key escape.  Trie keys must be prefix-free (common/key.h); wire keys are
// arbitrary bytes, so "append a terminator" alone is not enough ("a\0" vs
// "a\0\0").  EscapeKey uses the classic memcomparable encoding:
//
//   0x00        ->  0x00 0x01
//   terminator  ->  0x00 0x00
//
// The image is prefix-free (0x00 0x00 can only appear as the terminator)
// and the map preserves lexicographic order, so escaped-key order equals
// raw-key order and ordered scans over escaped keys yield raw keys in raw
// order.  Escaped length is raw_len + (#0x00 bytes) + 2; keys whose escaped
// form exceeds hot::kMaxKeyBytes are rejected before touching the index
// (protocol kKeyTooLong).
//
// Concurrency: appends take a mutex; reads are lock-free.  A reader only
// ever resolves ids it obtained from the index, and the record's bytes are
// fully written before the id is published through the trie's release
// store, so the index's own acquire/release synchronization carries the
// record's visibility (the chunk directory uses acquire/release atomics for
// the same reason — a reader may enter a chunk its own thread never saw
// appended).  Values are read with acquire loads and overwritten with
// acq_rel exchanges; the server serializes writers of one key with its
// write stripes, so the store itself does not order competing overwrites.

#ifndef HOT_NET_RECORD_STORE_H_
#define HOT_NET_RECORD_STORE_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/extractors.h"
#include "common/key.h"
#include "hot/node.h"  // kMaxKeyBytes

namespace hot {
namespace net {

// Writes the escaped (prefix-free, order-preserving) form of `raw` to
// `out`, which must have room for EscapedKeyLength(raw) bytes.  Returns the
// number of bytes written.
inline size_t EscapeKey(KeyRef raw, uint8_t* out) {
  uint8_t* p = out;
  for (size_t i = 0; i < raw.size(); ++i) {
    uint8_t b = raw.data()[i];
    *p++ = b;
    if (b == 0x00) *p++ = 0x01;
  }
  *p++ = 0x00;
  *p++ = 0x00;
  return static_cast<size_t>(p - out);
}

// Escaped length without materializing: raw length + embedded NULs + 2.
inline size_t EscapedKeyLength(KeyRef raw) {
  size_t nuls = 0;
  for (size_t i = 0; i < raw.size(); ++i) {
    if (raw.data()[i] == 0x00) ++nuls;
  }
  return raw.size() + nuls + 2;
}

// Whether `raw` may be indexed at all (escaped form fits the tries'
// kMaxKeyBytes bound).
inline bool KeyFitsIndex(KeyRef raw) {
  return EscapedKeyLength(raw) <= kMaxKeyBytes;
}

// Appends the escaped form of `raw` to *out.  Returns the number of bytes
// appended.
inline size_t EscapeKey(KeyRef raw, std::vector<uint8_t>* out) {
  size_t before = out->size();
  out->resize(before + EscapedKeyLength(raw));
  return EscapeKey(raw, out->data() + before);
}

class RecordStore {
 public:
  struct Record {
    std::atomic<uint64_t> value;  // overwritten in place by PUT
    uint32_t raw_len;
    uint32_t esc_len;
    // NUL-free key: raw_len raw bytes then 00 00, shared by both views.
    // Otherwise: raw_len raw bytes then esc_len escaped bytes.
    const uint8_t* bytes;

    bool shares_bytes() const { return esc_len == raw_len + 2; }
    KeyRef raw_key() const { return KeyRef(bytes, raw_len); }
    KeyRef escaped_key() const {
      return KeyRef(bytes + (shares_bytes() ? 0 : raw_len), esc_len);
    }
  };

  static constexpr size_t kChunkRecords = 1u << 14;  // 16K records per chunk
  static constexpr size_t kMaxChunks = 1u << 16;     // 2^30 records total
  static constexpr size_t kBlockBytes = 1u << 20;    // key-byte block size
  static_assert(2 * kMaxKeyBytes <= kBlockBytes, "a key must fit one block");

  // `max_chunks` (1..kMaxChunks) caps capacity at max_chunks *
  // kChunkRecords records; only tests pass less than the default.
  explicit RecordStore(size_t max_chunks = kMaxChunks)
      : max_chunks_(std::clamp<size_t>(max_chunks, 1, kMaxChunks)) {}
  RecordStore(const RecordStore&) = delete;
  RecordStore& operator=(const RecordStore&) = delete;

  // Appends one record and returns its id (dense, starting at 0, < 2^63 —
  // valid as a trie value), or nullopt once capacity() records exist.
  // `raw` must satisfy KeyFitsIndex.
  std::optional<uint64_t> TryAppend(KeyRef raw, uint64_t value) {
    size_t esc_len = EscapedKeyLength(raw);
    assert(esc_len <= kMaxKeyBytes);
    std::lock_guard<std::mutex> guard(append_mu_);
    uint64_t id = size_.load(std::memory_order_relaxed);
    if (id >= capacity()) return std::nullopt;
    size_t used = WriteRecord(&Slot(id), raw, esc_len, value, &keys_);
    size_.store(id + 1, std::memory_order_relaxed);
    bytes_.fetch_add(used, std::memory_order_relaxed);
    return id;
  }

  // Appends n records as ids [base, base + n) and returns base (the
  // appended() count at the call).  Record i is source(i), a
  // std::pair<KeyRef, uint64_t> of raw key and value.  Up to `threads`
  // threads (the caller's among them) fill whole chunks each; the result
  // does not depend on the thread count.  Returns nullopt and leaves
  // appended() and key_bytes() unchanged when n more records do not fit,
  // or when a key fails KeyFitsIndex — then *overlong_key_len (if given)
  // is that key's raw length, and stays 0 otherwise.  Readers may run
  // concurrently; other appends wait for the whole call.
  template <typename Source>
  std::optional<uint64_t> TryAppendBulk(size_t n, unsigned threads,
                                        const Source& source,
                                        size_t* overlong_key_len = nullptr) {
    if (overlong_key_len != nullptr) *overlong_key_len = 0;
    std::lock_guard<std::mutex> guard(append_mu_);
    const uint64_t base = size_.load(std::memory_order_relaxed);
    if (n > capacity() - base) return std::nullopt;
    if (n == 0) return base;
    const uint64_t end = base + n;
    const uint64_t first_chunk = base / kChunkRecords;
    const uint64_t chunks = (end - 1) / kChunkRecords - first_chunk + 1;
    const unsigned workers = static_cast<unsigned>(
        std::clamp<uint64_t>(threads, 1, chunks));

    struct Part {
      KeyBlocks keys;
      uint64_t bytes = 0;
      size_t overlong = 0;  // raw length of the first overlong key
    };
    std::vector<Part> parts(workers);
    auto fill = [&](unsigned w) {
      Part& part = parts[w];
      uint64_t lo = std::max(base, (first_chunk + chunks * w / workers) *
                                       kChunkRecords);
      uint64_t hi = std::min(end, (first_chunk + chunks * (w + 1) / workers) *
                                      kChunkRecords);
      for (uint64_t id = lo; id < hi; ++id) {
        const auto [raw, value] = source(static_cast<size_t>(id - base));
        size_t esc_len = EscapedKeyLength(raw);
        if (esc_len > kMaxKeyBytes) {
          part.overlong = raw.size();
          return;
        }
        part.bytes += WriteRecord(&Slot(id), raw, esc_len, value, &part.keys);
      }
    };
    std::vector<std::thread> helpers;
    helpers.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w) helpers.emplace_back(fill, w);
    fill(0);
    for (std::thread& t : helpers) t.join();

    uint64_t bytes = 0;
    for (Part& part : parts) {
      if (part.overlong != 0) {
        if (overlong_key_len != nullptr) *overlong_key_len = part.overlong;
        return std::nullopt;  // the parts' blocks are freed with them
      }
      bytes += part.bytes;
    }
    for (Part& part : parts) keys_.Adopt(std::move(part.keys));
    size_.store(end, std::memory_order_relaxed);
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
    return base;
  }

  // TryAppend for callers with no way to report exhaustion: aborts with a
  // message instead of returning nullopt.
  uint64_t Append(KeyRef raw, uint64_t value) {
    std::optional<uint64_t> id = TryAppend(raw, value);
    if (!id) {
      std::fprintf(stderr, "RecordStore: capacity of %llu records exhausted\n",
                   static_cast<unsigned long long>(capacity()));
      std::abort();
    }
    return *id;
  }

  // Lock-free; `id` must come from a successful append whose publication
  // the caller observed (typically through the index).
  const Record& At(uint64_t id) const {
    const Chunk* c = chunks_[static_cast<size_t>(id / kChunkRecords)].load(
        std::memory_order_acquire);
    return c->records[id % kChunkRecords];
  }
  Record& At(uint64_t id) {
    return const_cast<Record&>(std::as_const(*this).At(id));
  }

  // Appended record count / stored key bytes (quiescent-only exactness).
  uint64_t appended() const { return size_.load(std::memory_order_relaxed); }
  uint64_t key_bytes() const { return bytes_.load(std::memory_order_relaxed); }
  uint64_t capacity() const {
    return static_cast<uint64_t>(max_chunks_) * kChunkRecords;
  }

  ~RecordStore() {
    for (auto& slot : chunks_) {
      delete slot.load(std::memory_order_relaxed);
    }
  }

 private:
  struct Chunk {
    Record records[kChunkRecords];
  };

  // Bump allocator over key-byte blocks of kBlockBytes.  The bytes never
  // move, and a block lives as long as its owner.
  class KeyBlocks {
   public:
    uint8_t* Allocate(size_t n) {
      if (n > left_) {
        blocks_.push_back(
            std::make_unique_for_overwrite<uint8_t[]>(kBlockBytes));
        next_ = blocks_.back().get();
        left_ = kBlockBytes;
      }
      uint8_t* p = next_;
      next_ += n;
      left_ -= n;
      return p;
    }

    // Takes over `other`'s blocks; later allocations continue in whichever
    // current block has more room left.
    void Adopt(KeyBlocks&& other) {
      for (auto& block : other.blocks_) blocks_.push_back(std::move(block));
      if (other.left_ > left_) {
        next_ = other.next_;
        left_ = other.left_;
      }
      other = KeyBlocks();
    }

   private:
    std::vector<std::unique_ptr<uint8_t[]>> blocks_;
    uint8_t* next_ = nullptr;
    size_t left_ = 0;
  };

  // The slot of record `id`, allocating its chunk on first use.  Only the
  // chunk's writer calls this: the append_mu_ holder, or the bulk thread
  // that owns the chunk.
  Record& Slot(uint64_t id) {
    std::atomic<Chunk*>& slot =
        chunks_[static_cast<size_t>(id / kChunkRecords)];
    Chunk* c = slot.load(std::memory_order_relaxed);
    if (c == nullptr) {
      c = new Chunk();
      slot.store(c, std::memory_order_release);
    }
    return c->records[id % kChunkRecords];
  }

  // Writes the one record layout (see the header comment): `raw`, whose
  // escaped length is `esc_len` (<= kMaxKeyBytes), and `value`, with key
  // bytes from `keys`.  Returns the number of key bytes used.
  static size_t WriteRecord(Record* rec, KeyRef raw, size_t esc_len,
                            uint64_t value, KeyBlocks* keys) {
    bool shared = esc_len == raw.size() + 2;
    size_t need = shared ? esc_len : raw.size() + esc_len;
    uint8_t* dst = keys->Allocate(need);
    if (raw.size() != 0) std::memcpy(dst, raw.data(), raw.size());
    if (shared) {
      dst[raw.size()] = 0x00;
      dst[raw.size() + 1] = 0x00;
    } else {
      EscapeKey(raw, dst + raw.size());
    }
    rec->value.store(value, std::memory_order_relaxed);
    rec->raw_len = static_cast<uint32_t>(raw.size());
    rec->esc_len = static_cast<uint32_t>(esc_len);
    rec->bytes = dst;
    return need;
  }

  const size_t max_chunks_;
  std::mutex append_mu_;
  std::atomic<Chunk*> chunks_[kMaxChunks] = {};
  std::atomic<uint64_t> size_{0};
  std::atomic<uint64_t> bytes_{0};
  // Guarded by append_mu_ (readers follow Record::bytes).
  KeyBlocks keys_;
};

// KeyExtractor over record ids: the indexed key of record `id` is its
// escaped key, whose bytes the record owns for the store's lifetime.
class RecordKeyExtractor {
 public:
  RecordKeyExtractor() : store_(nullptr) {}
  explicit RecordKeyExtractor(const RecordStore* store) : store_(store) {}

  KeyRef operator()(uint64_t id, KeyScratch&) const {
    return store_->At(id).escaped_key();
  }

  const RecordStore* store() const { return store_; }

 private:
  const RecordStore* store_;
};

}  // namespace net
}  // namespace hot

#endif  // HOT_NET_RECORD_STORE_H_
