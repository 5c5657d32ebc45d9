#include "common/bitmap.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "common/coding.h"

namespace sebdb {

void Bitmap::Resize(size_t num_bits) {
  num_bits_ = num_bits;
  words_.resize((num_bits + 63) / 64, 0);
  // Clear any stale bits beyond the new logical size in the last word.
  if (num_bits_ % 64 != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << (num_bits_ % 64)) - 1;
  }
}

void Bitmap::Set(size_t i) {
  assert(i < num_bits_);
  words_[i / 64] |= uint64_t{1} << (i % 64);
}

void Bitmap::Clear(size_t i) {
  assert(i < num_bits_);
  words_[i / 64] &= ~(uint64_t{1} << (i % 64));
}

bool Bitmap::Test(size_t i) const {
  if (i >= num_bits_) return false;
  return (words_[i / 64] >> (i % 64)) & 1;
}

void Bitmap::SetGrow(size_t i) {
  if (i >= num_bits_) Resize(i + 1);
  Set(i);
}

size_t Bitmap::Count() const {
  size_t n = 0;
  for (uint64_t w : words_) n += static_cast<size_t>(std::popcount(w));
  return n;
}

bool Bitmap::AnySet() const {
  for (uint64_t w : words_) {
    if (w != 0) return true;
  }
  return false;
}

bool Bitmap::Intersects(const Bitmap& other) const {
  const size_t n = std::min(words_.size(), other.words_.size());
  for (size_t i = 0; i < n; i++) {
    if ((words_[i] & other.words_[i]) != 0) return true;
  }
  return false;
}

Bitmap& Bitmap::And(const Bitmap& other) {
  if (other.num_bits_ > num_bits_) Resize(other.num_bits_);
  for (size_t i = 0; i < words_.size(); i++) {
    uint64_t o = i < other.words_.size() ? other.words_[i] : 0;
    words_[i] &= o;
  }
  return *this;
}

Bitmap& Bitmap::Or(const Bitmap& other) {
  if (other.num_bits_ > num_bits_) Resize(other.num_bits_);
  for (size_t i = 0; i < other.words_.size(); i++) {
    words_[i] |= other.words_[i];
  }
  return *this;
}

std::vector<size_t> Bitmap::SetBits() const {
  std::vector<size_t> out;
  SetBitsAnd(*this, &out);
  return out;
}

void Bitmap::SetBitsAnd(const Bitmap& other, std::vector<size_t>* out) const {
  out->clear();
  const size_t n = std::min(words_.size(), other.words_.size());
  for (size_t wi = 0; wi < n; wi++) {
    uint64_t w = words_[wi] & other.words_[wi];
    while (w != 0) {
      out->push_back(wi * 64 + static_cast<size_t>(std::countr_zero(w)));
      w &= w - 1;
    }
  }
}

size_t Bitmap::NextSetBit(size_t from) const {
  if (from >= num_bits_) return npos;
  size_t wi = from / 64;
  uint64_t w = words_[wi] & ~((uint64_t{1} << (from % 64)) - 1);
  while (true) {
    if (w != 0) {
      size_t pos = wi * 64 + static_cast<size_t>(std::countr_zero(w));
      return pos < num_bits_ ? pos : npos;
    }
    if (++wi >= words_.size()) return npos;
    w = words_[wi];
  }
}

void Bitmap::EncodeTo(std::string* dst) const {
  PutVarint64(dst, num_bits_);
  for (uint64_t w : words_) PutFixed64(dst, w);
}

bool Bitmap::DecodeFrom(Slice* input, Bitmap* out) {
  uint64_t num_bits;
  if (!GetVarint64(input, &num_bits)) return false;
  out->Resize(static_cast<size_t>(num_bits));
  for (auto& w : out->words_) {
    if (!GetFixed64(input, &w)) return false;
  }
  return true;
}

std::string Bitmap::ToString() const {
  std::string s;
  s.reserve(num_bits_);
  for (size_t i = 0; i < num_bits_; i++) s.push_back(Test(i) ? '1' : '0');
  return s;
}

}  // namespace sebdb
