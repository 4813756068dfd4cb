// Correctness model of the served key/value image.
//
// The client is one thread, so it orders every send and every reply on a
// logical clock.  Each write keeps its send time s and ack time e (e stays
// open while the write is outstanding, and forever if it failed).  A read
// with send time t may return write w of its key only if
//
//   * the value encodes the key it was asked for (no cross-key reply),
//   * w was issued before the reply arrived, and
//   * no other write to the key started after w was acked and was itself
//     acked before t: e_w >= max{ s_x : e_x < t }, the key's "frontier"
//     captured when the read was sent.
//
// Concurrent writes to one key may therefore land in either order, as the
// server applies them on two workers.  Presence follows the same rule:
// preloaded keys are always present, a fresh key is definitely present once
// its insert was acked before the read was sent, and possibly present once
// its insert was sent before the reply arrived.

#ifndef SERVEBENCH_CHECKER_H_
#define SERVEBENCH_CHECKER_H_

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "workload.h"

namespace servebench {

class Checker {
 public:
  static constexpr uint64_t kOpen = std::numeric_limits<uint64_t>::max();
  static constexpr uint64_t kAbsent = std::numeric_limits<uint64_t>::max();

  Checker(const KeyUniverse& u, bool has_writes) : u_(u) {
    if (has_writes) {
      frontier_.assign(u.size(), 0);
      max_send_.assign(u.size(), 0);
      insert_.assign(u.size(), 0);
    }
  }

  uint64_t Tick() { return ++now_; }
  // Bytes the model grows by while the run records writes.
  uint64_t tracked_bytes() const { return writes_.size() * sizeof(Write); }
  uint64_t now() const { return now_; }
  uint64_t acked_inserts() const { return acked_inserts_; }

  // --- writes ----------------------------------------------------------------

  // Records a PUT being sent; returns its write id (the value's low bits).
  uint64_t BeginWrite(uint32_t key) {
    writes_.push_back({key, Tick(), kOpen});
    uint64_t id = writes_.size();
    max_send_[key] = writes_.back().s;
    if (!u_.preloaded[key] && insert_[key] == 0) {
      insert_[key] = static_cast<uint32_t>(id);
    }
    return id;
  }

  // PUT reply kOk: `created`/`prev` must match the key's history.
  bool AckWrite(uint64_t id, bool created, uint64_t prev, std::string* why) {
    Write& w = writes_[id - 1];
    w.e = Tick();
    if (w.s > frontier_[w.key]) frontier_[w.key] = w.s;
    bool first_insert = !u_.preloaded[w.key] && insert_[w.key] == id;
    if (first_insert && created) ++acked_inserts_;
    if (created != first_insert) {
      return Fail(why, "put created=" + std::to_string(created) + " on key " +
                           std::to_string(w.key));
    }
    if (!created && ValueKey(prev) != w.key) {
      return Fail(why, "put replaced another key's value on key " +
                           std::to_string(w.key));
    }
    return true;
  }

  // --- reads -----------------------------------------------------------------

  uint64_t Frontier(uint32_t key) const {
    return frontier_.empty() ? 0 : frontier_[key];
  }

  // GET reply.  Every key of the GET workloads is preloaded and never
  // deleted, so kNotFound is a lost key.
  bool CheckGet(uint32_t key, uint64_t frontier_at_send, bool found,
                uint64_t value, std::string* why) const {
    if (!found) return Fail(why, "get: key " + std::to_string(key) + " lost");
    return CheckValue(key, value, frontier_at_send, why);
  }

  // SCAN reply of `limit` items from preloaded key `start`, sent at `t_send`.
  bool CheckScan(uint32_t start, uint32_t limit, uint64_t t_send,
                 const std::vector<hot::net::ScanEntry>& items,
                 std::string* why) const {
    if (items.size() > limit) return Fail(why, "scan: more items than limit");
    size_t j = start;
    for (const hot::net::ScanEntry& item : items) {
      if (!Advance(&j, item.key, t_send, why)) return false;
      if (!PossiblyPresent(j, now_)) {
        return Fail(why, "scan: key " + std::to_string(j) +
                             " returned before it was inserted");
      }
      if (!CheckValue(static_cast<uint32_t>(j), item.value, 0, why)) {
        return false;
      }
      ++j;
    }
    if (items.size() < limit) {
      for (; j < u_.size(); ++j) {
        if (DefinitelyPresent(j, t_send)) {
          return Fail(why, "scan: stopped short of key " + std::to_string(j));
        }
      }
    }
    return true;
  }

  // --- the whole image, read back with chunked scans at quiescence ----------

  class Image {
   public:
    explicit Image(const Checker& c)
        : c_(c), values_(c.u_.size(), kAbsent) {}

    // Items must arrive in ascending key order across chunks.
    bool Add(const hot::net::ScanEntry& item, std::string* why) {
      if (!c_.Advance(&j_, item.key, c_.now_ + 1, why)) return false;
      if (!c_.PossiblyPresent(j_, c_.now_ + 1)) {
        return Fail(why, "image: key " + std::to_string(j_) +
                             " present but never inserted");
      }
      uint64_t frontier = c_.max_send_.empty() ? 0 : c_.max_send_[j_];
      if (!c_.CheckValue(static_cast<uint32_t>(j_), item.value, frontier,
                         why)) {
        return false;
      }
      values_[j_++] = item.value;
      return true;
    }
    bool Finish(std::string* why) {
      for (; j_ < c_.u_.size(); ++j_) {
        if (c_.DefinitelyPresent(j_, c_.now_ + 1)) {
          return Fail(why, "image: acked key " + std::to_string(j_) +
                               " missing");
        }
      }
      return true;
    }
    const std::vector<uint64_t>& values() const { return values_; }

   private:
    const Checker& c_;
    std::vector<uint64_t> values_;
    size_t j_ = 0;
  };

  // Exact comparison of a second read-back (after restart) with an image.
  class Replica {
   public:
    Replica(const KeyUniverse& u, const std::vector<uint64_t>& expect)
        : u_(u), expect_(expect) {}
    bool Add(const hot::net::ScanEntry& item, std::string* why) {
      while (j_ < u_.size() && Less(u_.key(j_), item.key)) {
        if (expect_[j_] != kAbsent) {
          return Fail(why, "restart: key " + std::to_string(j_) + " lost");
        }
        ++j_;
      }
      if (j_ == u_.size() || !Equal(u_.key(j_), item.key)) {
        return Fail(why, "restart: unknown key returned");
      }
      if (expect_[j_] != item.value) {
        return Fail(why, "restart: key " + std::to_string(j_) +
                             (expect_[j_] == kAbsent ? " resurrected"
                                                     : " changed value"));
      }
      ++j_;
      return true;
    }
    bool Finish(std::string* why) {
      for (; j_ < u_.size(); ++j_) {
        if (expect_[j_] != kAbsent) {
          return Fail(why, "restart: key " + std::to_string(j_) + " lost");
        }
      }
      return true;
    }

   private:
    const KeyUniverse& u_;
    const std::vector<uint64_t>& expect_;
    size_t j_ = 0;
  };

 private:
  struct Write {
    uint32_t key;
    uint64_t s;
    uint64_t e;
  };

  static bool Fail(std::string* why, const std::string& text) {
    if (why != nullptr) *why = text;
    return false;
  }
  static int Compare(hot::KeyRef a, const std::string& b) {
    size_t n = a.size() < b.size() ? a.size() : b.size();
    int c = n == 0 ? 0 : std::memcmp(a.data(), b.data(), n);
    if (c != 0) return c;
    return a.size() < b.size() ? -1 : a.size() > b.size() ? 1 : 0;
  }
  static bool Less(hot::KeyRef a, const std::string& b) {
    return Compare(a, b) < 0;
  }
  static bool Equal(hot::KeyRef a, const std::string& b) {
    return Compare(a, b) == 0;
  }

  bool DefinitelyPresent(size_t key, uint64_t t) const {
    if (u_.preloaded[key]) return true;
    uint32_t id = insert_.empty() ? 0 : insert_[key];
    return id != 0 && writes_[id - 1].e < t;
  }
  bool PossiblyPresent(size_t key, uint64_t t) const {
    if (u_.preloaded[key]) return true;
    uint32_t id = insert_.empty() ? 0 : insert_[key];
    return id != 0 && writes_[id - 1].s < t;
  }

  // Moves *j to the universe position of `key`; every key skipped on the
  // way must have been allowed to be absent at time t.
  bool Advance(size_t* j, const std::string& key, uint64_t t,
               std::string* why) const {
    while (*j < u_.size() && Less(u_.key(*j), key)) {
      if (DefinitelyPresent(*j, t)) {
        return Fail(why, "key " + std::to_string(*j) + " skipped");
      }
      ++*j;
    }
    if (*j == u_.size() || !Equal(u_.key(*j), key)) {
      return Fail(why, "unknown or out-of-order key returned");
    }
    return true;
  }

  bool CheckValue(uint32_t key, uint64_t value, uint64_t frontier,
                  std::string* why) const {
    if (ValueKey(value) != key) {
      return Fail(why, "key " + std::to_string(key) + " returned key " +
                           std::to_string(ValueKey(value)) + "'s value");
    }
    uint64_t id = ValueWrite(value);
    if (id == 0) {
      if (u_.preloaded[key] && frontier == 0) return true;
      return Fail(why, "key " + std::to_string(key) +
                           " returned the preloaded value after an ack");
    }
    if (id > writes_.size() || writes_[id - 1].key != key) {
      return Fail(why, "key " + std::to_string(key) +
                           " returned a write never issued to it");
    }
    if (writes_[id - 1].e < frontier) {
      return Fail(why, "key " + std::to_string(key) +
                           " returned a value overwritten by an acked write");
    }
    return true;
  }

  const KeyUniverse& u_;
  uint64_t now_ = 0;
  uint64_t acked_inserts_ = 0;
  std::vector<Write> writes_;
  std::vector<uint64_t> frontier_;  // max s of acked writes, per key
  std::vector<uint64_t> max_send_;  // max s of all writes, per key
  std::vector<uint32_t> insert_;    // first write id of a fresh key
};

}  // namespace servebench

#endif  // SERVEBENCH_CHECKER_H_
