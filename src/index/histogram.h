// Equal-depth histogram over a continuous attribute (paper §IV-B): bucket
// boundaries are chosen from a sample of historical values so each bucket
// holds roughly the same number of samples. The first level of a layered
// index on a continuous attribute maps each block to the set of buckets its
// values fall into. Bucket count ("height of the histogram") is configurable
// for different precisions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitmap.h"
#include "common/slice.h"
#include "common/status.h"
#include "types/value.h"

namespace sebdb {

class EqualDepthHistogram {
 public:
  EqualDepthHistogram() = default;

  /// Builds boundaries from a sample. The resulting histogram has up to
  /// `num_buckets` buckets: (-inf, k1], (k1, k2], ..., (kp, +inf). Fewer
  /// buckets result when the sample has few distinct values. A continuous
  /// layered index bootstraps its histogram from the first block's entries
  /// in transaction order (LayeredIndex::MergeTxnDeltas) — the parallel
  /// block apply hands entries over in that same order, so boundaries are
  /// byte-identical to a serial build.
  static Status Build(std::vector<Value> sample, size_t num_buckets,
                      EqualDepthHistogram* out);

  /// Reconstructs a histogram from previously built boundaries (checkpoint
  /// restore; boundaries must be sorted ascending, as boundaries() returns).
  static EqualDepthHistogram FromBoundaries(std::vector<Value> boundaries) {
    EqualDepthHistogram out;
    out.boundaries_ = std::move(boundaries);
    return out;
  }

  /// Boundary encoding shared by index checkpoints and the index manifest:
  /// varint count, then each boundary (a histogram not built encodes as a
  /// zero count). DecodeFrom returns false on truncated input.
  void EncodeTo(std::string* dst) const;
  static bool DecodeFrom(Slice* in, EqualDepthHistogram* out);

  /// Number of buckets (boundaries + 1). Zero means not built.
  size_t num_buckets() const {
    return boundaries_.empty() ? 0 : boundaries_.size() + 1;
  }
  const std::vector<Value>& boundaries() const { return boundaries_; }

  /// Bucket index of a value: first bucket whose upper boundary >= v.
  size_t BucketOf(const Value& v) const;

  /// Bitmap over buckets intersecting [lo, hi] (unbounded sides via nullptr).
  Bitmap BucketsOverlapping(const Value* lo, const Value* hi) const;

 private:
  // p sorted boundary values k1 < k2 < ... < kp; p + 1 buckets.
  std::vector<Value> boundaries_;
};

}  // namespace sebdb
