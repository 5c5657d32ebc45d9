#include "index/histogram.h"

#include <algorithm>

#include "common/coding.h"

namespace sebdb {

Status EqualDepthHistogram::Build(std::vector<Value> sample,
                                  size_t num_buckets,
                                  EqualDepthHistogram* out) {
  if (num_buckets < 2) {
    return Status::InvalidArgument("histogram needs at least 2 buckets");
  }
  if (sample.empty()) {
    return Status::InvalidArgument("histogram sample is empty");
  }
  std::sort(sample.begin(), sample.end(),
            [](const Value& a, const Value& b) { return a.CompareTotal(b) < 0; });

  out->boundaries_.clear();
  // Equal-depth: boundary i sits at quantile i / num_buckets of the sample.
  for (size_t i = 1; i < num_buckets; i++) {
    size_t pos = i * sample.size() / num_buckets;
    if (pos >= sample.size()) pos = sample.size() - 1;
    const Value& boundary = sample[pos];
    if (out->boundaries_.empty() ||
        out->boundaries_.back().CompareTotal(boundary) < 0) {
      out->boundaries_.push_back(boundary);
    }
  }
  if (out->boundaries_.empty()) {
    // Degenerate sample (single distinct value): one boundary, two buckets.
    out->boundaries_.push_back(sample[0]);
  }
  return Status::OK();
}

void EqualDepthHistogram::EncodeTo(std::string* dst) const {
  PutVarint32(dst, static_cast<uint32_t>(boundaries_.size()));
  for (const Value& b : boundaries_) b.EncodeTo(dst);
}

bool EqualDepthHistogram::DecodeFrom(Slice* in, EqualDepthHistogram* out) {
  uint32_t nbounds;
  if (!GetVarint32(in, &nbounds) || nbounds > in->size()) return false;
  std::vector<Value> bounds;
  bounds.reserve(nbounds);
  for (uint32_t i = 0; i < nbounds; i++) {
    Value v;
    if (!Value::DecodeFrom(in, &v)) return false;
    bounds.push_back(std::move(v));
  }
  *out = FromBoundaries(std::move(bounds));
  return true;
}

size_t EqualDepthHistogram::BucketOf(const Value& v) const {
  // Buckets are (k_{i-1}, k_i]; bucket index = count of boundaries < v.
  size_t lo = 0, hi = boundaries_.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (boundaries_[mid].CompareTotal(v) < 0) lo = mid + 1;
    else hi = mid;
  }
  return lo;
}

Bitmap EqualDepthHistogram::BucketsOverlapping(const Value* lo,
                                               const Value* hi) const {
  Bitmap result(num_buckets());
  if (num_buckets() == 0) return result;
  size_t first = lo == nullptr ? 0 : BucketOf(*lo);
  size_t last = hi == nullptr ? num_buckets() - 1 : BucketOf(*hi);
  for (size_t b = first; b <= last && b < num_buckets(); b++) result.Set(b);
  return result;
}

}  // namespace sebdb
