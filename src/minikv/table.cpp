#include "minikv/table.hpp"

#include <algorithm>
#include <bit>
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

void Block::Builder::add(const Slice& key, const Slice& value) {
  // The whole buffer, offsets included, must stay 32-bit addressable.
  const std::size_t row = detail::encoded_size(key, value);
  const std::size_t tail = 4 * (offsets_.size() + 1);
  if (row + tail > std::numeric_limits<std::uint32_t>::max() - payload_.size()) {
    throw std::length_error("minikv: block exceeds 4 GiB");
  }
  const std::size_t at = payload_.size();
  offsets_.push_back(static_cast<std::uint32_t>(at));
  payload_.resize(at + row);
  detail::encode_entry(payload_.data() + at, key, value);
}

Block Block::Builder::finish() {
  const auto n = static_cast<std::uint32_t>(size());
  const std::size_t offset_bytes = offsets_.size() * sizeof(std::uint32_t);
  std::string rep(payload_.size() + offset_bytes, '\0');
  if (n != 0) {
    std::memcpy(rep.data(), payload_.data(), payload_.size());
    std::memcpy(rep.data() + payload_.size(), offsets_.data(), offset_bytes);
  }
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
  hashes_.push_back(detail::hash_key(key));
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
    : id_(id),
      entries_(built.hashes_.size()),
      fanout_(static_cast<std::uint32_t>(std::min<std::size_t>(
          built.fanout_, std::numeric_limits<std::uint32_t>::max()))) {
  if (entries_ >= std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("minikv: table exceeds 2^32 - 2 entries");
  }
  if (built.block_.size() > 0) built.blocks_.push_back(built.block_.finish());
  blocks_ = std::move(built.blocks_);
  index_ = built.index_.finish();

  // The hash directory: at most half full, so probes stay short and
  // always reach an empty slot.
  const std::size_t slots = std::bit_ceil(std::max<std::size_t>(2 * entries_, 1));
  dir_.assign(slots, 0);
  dir_mask_ = slots - 1;
  dir_bits_ = static_cast<unsigned>(std::countr_zero(slots));
  ordinal_bits_ = static_cast<unsigned>(std::bit_width(entries_));
  ordinal_mask_ =
      static_cast<std::uint32_t>((std::uint64_t{1} << ordinal_bits_) - 1);
  for (std::size_t ordinal = 0; ordinal < entries_; ++ordinal) {
    const std::uint64_t hash = built.hashes_[ordinal];
    std::size_t i = hash & dir_mask_;
    while (dir_[i] != 0) i = (i + 1) & dir_mask_;
    dir_[i] = fingerprint(hash) | static_cast<std::uint32_t>(ordinal + 1);
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
