// The bounded containers every trace, cache and accounting table shares:
// an overwrite-oldest ring, an LRU table and a string interner. The ring
// counts overwrites and the table evictions, so truncation is never
// silent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace prism::sim {

/// Overwrite-oldest ring. Grows by push_back up to capacity (call
/// reserve() to allocate every slot up front instead), then each push
/// replaces the oldest record and counts it in dropped().
template <typename T>
class BoundedRing {
 public:
  explicit BoundedRing(std::size_t capacity) : capacity_(capacity) {
    if (capacity == 0) {
      throw std::invalid_argument("BoundedRing: capacity must be positive");
    }
  }

  /// Allocates storage for every slot now rather than on first use.
  void reserve() { data_.reserve(capacity_); }

  void push(const T& v) {
    if (data_.size() < capacity_) {
      data_.push_back(v);
      return;
    }
    data_[head_] = v;
    if (++head_ == capacity_) head_ = 0;
    ++dropped_;
  }

  /// i-th retained record, oldest first.
  const T& at(std::size_t i) const {
    const std::size_t j = head_ + i;
    return data_[j < data_.size() ? j : j - data_.size()];
  }

  std::size_t size() const noexcept { return data_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  /// Records overwritten because the ring was full.
  std::uint64_t dropped() const noexcept { return dropped_; }
  /// Records ever pushed since construction or clear().
  std::uint64_t pushed() const noexcept { return data_.size() + dropped_; }

  /// Drops every record and the overwrite count; storage is kept.
  void clear() noexcept {
    data_.clear();
    head_ = 0;
    dropped_ = 0;
  }

 private:
  std::size_t capacity_;
  std::vector<T> data_;
  std::size_t head_ = 0;  ///< index of the oldest record once full
  std::uint64_t dropped_ = 0;
};

/// Key -> value table bounded by least-recently-used eviction: a
/// std::list in recency order (front = most recently used) plus an
/// unordered_map of list iterators. find() does not change recency;
/// touch() and insert() move an entry to the front.
template <typename K, typename V, typename Hash = std::hash<K>>
class BoundedLru {
 public:
  struct Node {
    K key;
    V value;
  };
  using iterator = typename std::list<Node>::iterator;
  using const_iterator = typename std::list<Node>::const_iterator;

  explicit BoundedLru(std::size_t capacity) : capacity_(capacity) {
    if (capacity == 0) {
      throw std::invalid_argument("BoundedLru: capacity must be positive");
    }
  }

  /// Sizes the index for a full table so filling it never rehashes.
  void reserve() { index_.reserve(capacity_); }

  /// The key's entry, or end(); recency unchanged.
  iterator find(const K& key) {
    const auto it = index_.find(key);
    return it == index_.end() ? lru_.end() : it->second;
  }
  const_iterator find(const K& key) const {
    const auto it = index_.find(key);
    return it == index_.end() ? lru_.end() : const_iterator(it->second);
  }

  /// Moves an entry to the most-recently-used end.
  void touch(iterator it) { lru_.splice(lru_.begin(), lru_, it); }

  /// Adds `key` (which must be absent) at the most-recently-used end and
  /// returns its value for the caller to fill. When the table is full the
  /// least-recently-used entry is evicted (counted in evictions()) and its
  /// node reused: the returned value then still holds the victim's
  /// fields, so the caller overwrites every one it reads.
  V& insert(const K& key) {
    if (index_.size() >= capacity_) {
      const auto victim = std::prev(lru_.end());
      index_.erase(victim->key);
      ++evictions_;
      touch(victim);
      victim->key = key;
    } else {
      lru_.emplace_front(Node{key, V{}});
    }
    index_.emplace(key, lru_.begin());
    return lru_.front().value;
  }

  void erase(iterator it) {
    index_.erase(it->key);
    lru_.erase(it);
  }

  /// Entries most recently used first.
  iterator end() noexcept { return lru_.end(); }
  const_iterator begin() const noexcept { return lru_.begin(); }
  const_iterator end() const noexcept { return lru_.end(); }

  std::size_t size() const noexcept { return index_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  /// Entries pushed out by the capacity bound. A reference so a metrics
  /// registry can attach it.
  const std::uint64_t& evictions() const noexcept { return evictions_; }

  /// Drops every entry and the eviction count.
  void clear() {
    lru_.clear();
    index_.clear();
    evictions_ = 0;
  }

 private:
  std::size_t capacity_;
  std::uint64_t evictions_ = 0;
  std::list<Node> lru_;
  std::unordered_map<K, iterator, Hash> index_;
};

/// String interner: names map to dense 16-bit ids in first-use order.
class NameTable {
 public:
  using Id = std::uint16_t;
  static constexpr std::size_t kMaxNames = std::size_t{1} << 16;

  /// The name's id, registering it on first use. Throws
  /// std::length_error for a new name once kMaxNames are held.
  Id intern(std::string_view name) {
    const auto it = index_.find(name);
    if (it != index_.end()) return it->second;
    if (names_.size() >= kMaxNames) {
      throw std::length_error("NameTable: name table full");
    }
    const Id id = static_cast<Id>(names_.size());
    names_.push_back(&index_.emplace(std::string(name), id).first->first);
    return id;
  }

  const std::string& name(Id id) const {
    return *names_[static_cast<std::size_t>(id)];
  }

 private:
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  /// Map nodes never move, so names_ can point at their keys.
  std::unordered_map<std::string, Id, Hash, std::equal_to<>> index_;
  std::vector<const std::string*> names_;
};

}  // namespace prism::sim
