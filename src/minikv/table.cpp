#include "minikv/table.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace hemlock::minikv {

std::size_t Block::lower_bound(const Slice& key) const {
  std::size_t lo = 0, hi = n_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (this->key(mid).compare(key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

bool Block::get(const Slice& key, Slice* value) const {
  const std::size_t i = lower_bound(key);
  if (i == n_ || this->key(i) != key) return false;
  *value = this->value(i);
  return true;
}

bool Block::get(const Slice& key, std::string* value) const {
  Slice v;
  if (!get(key, &v)) return false;
  value->assign(v.data(), v.size());
  return true;
}

void Block::Builder::add(const Slice& key, const Slice& value) {
  // The whole buffer, offsets included, must stay 32-bit addressable.
  const std::size_t tail = 4 * (offsets_.size() + 3);
  if (key.size() + value.size() + tail >
      std::numeric_limits<std::uint32_t>::max() - payload_.size()) {
    throw std::length_error("minikv: block exceeds 4 GiB");
  }
  offsets_.push_back(static_cast<std::uint32_t>(payload_.size()));
  payload_.append(key.data(), key.size());
  offsets_.push_back(static_cast<std::uint32_t>(payload_.size()));
  payload_.append(value.data(), value.size());
}

Block Block::Builder::finish() {
  const auto n = static_cast<std::uint32_t>(size());
  offsets_.push_back(static_cast<std::uint32_t>(payload_.size()));
  const std::size_t offset_bytes = offsets_.size() * sizeof(std::uint32_t);
  std::string rep(payload_.size() + offset_bytes, '\0');
  std::memcpy(rep.data(), payload_.data(), payload_.size());
  std::memcpy(rep.data() + payload_.size(), offsets_.data(), offset_bytes);
  payload_.clear();
  offsets_.clear();
  return Block(std::move(rep), n);
}

std::size_t ImmutableTable::checked_fanout(std::size_t block_fanout) {
  if (block_fanout == 0) {
    throw std::invalid_argument("minikv: block_fanout must be at least 1");
  }
  return block_fanout;
}

ImmutableTable::Builder::Builder(std::size_t block_fanout)
    : fanout_(checked_fanout(block_fanout)) {}

void ImmutableTable::Builder::add(const Slice& key, const Slice& value) {
  if (block_.size() == 0) index_.add(key, Slice());
  block_.add(key, value);
  ++entries_;
  if (block_.size() == fanout_) blocks_.push_back(block_.finish());
}

ImmutableTable::ImmutableTable(
    std::uint64_t id,
    const std::vector<std::pair<std::string, std::string>>& sorted,
    std::size_t block_fanout)
    : ImmutableTable(id, [&] {
        assert(std::is_sorted(sorted.begin(), sorted.end(),
                              [](const auto& a, const auto& b) {
                                return Slice(a.first).compare(b.first) < 0;
                              }));
        Builder built(block_fanout);
        for (const auto& [k, v] : sorted) built.add(k, v);
        return built;
      }()) {}

ImmutableTable::ImmutableTable(std::uint64_t id, Builder&& built)
    : id_(id), entries_(built.entries_) {
  if (built.block_.size() > 0) built.blocks_.push_back(built.block_.finish());
  blocks_ = std::move(built.blocks_);
  index_ = built.index_.finish();
  if (!blocks_.empty()) {
    const Block& last = blocks_.back();
    smallest_ = blocks_.front().key(0).to_string();
    largest_ = last.key(last.size() - 1).to_string();
  }
}

std::int64_t ImmutableTable::block_for(const Slice& key) const {
  // Last block whose first key is <= key; -1 when key is below the
  // table (or the table is empty).
  const std::size_t i = index_.lower_bound(key);
  if (i < index_.size() && index_.key(i) == key) {
    return static_cast<std::int64_t>(i);
  }
  return static_cast<std::int64_t>(i) - 1;
}

std::shared_ptr<Block> ImmutableTable::read_block(std::size_t idx) const {
  assert(idx < blocks_.size());
  return std::make_shared<Block>(blocks_[idx]);  // deliberate copy: the "decode" cost
}

}  // namespace hemlock::minikv
