// Unit tests for src/common: Status, Slice, coding, SHA-256, CRC-32,
// Bitmap, LRU cache, clocks and the PRNG.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/bitmap.h"
#include "common/clock.h"
#include "common/coding.h"
#include "common/crc32.h"
#include "common/lru_cache.h"
#include "common/random.h"
#include "common/sha256.h"
#include "common/slice.h"
#include "common/status.h"

namespace sebdb {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_EQ(s.message(), "");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status s = Status::NotFound("block 17");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_FALSE(s.IsCorruption());
  EXPECT_EQ(s.ToString(), "NotFound: block 17");
  EXPECT_EQ(s.message(), "block 17");
}

TEST(StatusTest, CopyIsCheapAndShared) {
  Status a = Status::IOError("disk gone");
  Status b = a;
  EXPECT_TRUE(b.IsIOError());
  EXPECT_EQ(b.message(), "disk gone");
}

TEST(StatusTest, AllCodesRoundTrip) {
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::Busy("x").IsBusy());
  EXPECT_TRUE(Status::VerificationFailed("x").IsVerificationFailed());
  EXPECT_TRUE(Status::TimedOut("x").IsTimedOut());
}

TEST(SliceTest, BasicOps) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[1], 'e');
  EXPECT_TRUE(s.starts_with("he"));
  EXPECT_FALSE(s.starts_with("el"));
  s.remove_prefix(2);
  EXPECT_EQ(s.ToString(), "llo");
}

TEST(SliceTest, Compare) {
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abcd").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice("a") == Slice("a"));
  EXPECT_TRUE(Slice("a") != Slice("b"));
}

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed16(&buf, 0xbeef);
  PutFixed32(&buf, 0xdeadbeefu);
  PutFixed64(&buf, 0x0123456789abcdefull);
  Slice input(buf);
  uint16_t v16;
  uint32_t v32;
  uint64_t v64;
  ASSERT_TRUE(GetFixed16(&input, &v16));
  ASSERT_TRUE(GetFixed32(&input, &v32));
  ASSERT_TRUE(GetFixed64(&input, &v64));
  EXPECT_EQ(v16, 0xbeef);
  EXPECT_EQ(v32, 0xdeadbeefu);
  EXPECT_EQ(v64, 0x0123456789abcdefull);
  EXPECT_TRUE(input.empty());
}

TEST(CodingTest, VarintRoundTripEdgeValues) {
  const uint64_t cases[] = {0,       1,        127,        128,
                            16383,   16384,    UINT32_MAX, 1ull << 40,
                            UINT64_MAX};
  for (uint64_t v : cases) {
    std::string buf;
    PutVarint64(&buf, v);
    Slice input(buf);
    uint64_t got;
    ASSERT_TRUE(GetVarint64(&input, &got)) << v;
    EXPECT_EQ(got, v);
    EXPECT_TRUE(input.empty());
  }
}

TEST(CodingTest, Varint32RejectsOverflow) {
  std::string buf;
  PutVarint64(&buf, static_cast<uint64_t>(UINT32_MAX) + 1);
  Slice input(buf);
  uint32_t v;
  EXPECT_FALSE(GetVarint32(&input, &v));
}

TEST(CodingTest, TruncatedInputFails) {
  std::string buf;
  PutVarint64(&buf, 300);
  Slice input(buf.data(), 1);  // continuation byte without terminator
  uint64_t v;
  EXPECT_FALSE(GetVarint64(&input, &v));

  std::string fixed;
  PutFixed64(&fixed, 1);
  Slice short_input(fixed.data(), 7);
  uint64_t f;
  EXPECT_FALSE(GetFixed64(&short_input, &f));
}

TEST(CodingTest, ZigZagSigned) {
  const int64_t cases[] = {0, -1, 1, -2, 2, INT64_MIN, INT64_MAX, -123456789};
  for (int64_t v : cases) {
    std::string buf;
    PutVarSigned64(&buf, v);
    Slice input(buf);
    int64_t got;
    ASSERT_TRUE(GetVarSigned64(&input, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
}

TEST(CodingTest, LengthPrefixed) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(1000, 'x'));
  Slice input(buf);
  Slice a, b, c;
  ASSERT_TRUE(GetLengthPrefixed(&input, &a));
  ASSERT_TRUE(GetLengthPrefixed(&input, &b));
  ASSERT_TRUE(GetLengthPrefixed(&input, &c));
  EXPECT_EQ(a.ToString(), "hello");
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c.size(), 1000u);
}

// FIPS 180-4 test vectors.
TEST(Sha256Test, KnownVectors) {
  EXPECT_EQ(Sha256::Digest(Slice("abc")).ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(Sha256::Digest(Slice("")).ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      Sha256::Digest(
          Slice("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
          .ToHex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  // The 896-bit message: its padding spills into a second block.
  EXPECT_EQ(Sha256::Digest(Slice("abcdefghbcdefghicdefghijdefghijkefghijkl"
                                 "fghijklmghijklmnhijklmnoijklmnopjklmnopq"
                                 "klmnopqrlmnopqrsmnopqrstnopqrstu"))
                .ToHex(),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
  EXPECT_EQ(Sha256::Digest(std::string(1000000, 'a')).ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

std::string RandomBytes(Random* rng, size_t n) {
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng->Next());
  return out;
}

// Textbook padding over the portable compressor, independent of
// Sha256::Update/Finish's buffering.
Hash256 ReferenceDigest(const std::string& data) {
  std::string padded = data;
  padded.push_back(static_cast<char>(0x80));
  while (padded.size() % 64 != 56) padded.push_back('\0');
  const uint64_t bits = static_cast<uint64_t>(data.size()) * 8;
  for (int i = 7; i >= 0; i--) {
    padded.push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
  }
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  detail::Sha256CompressPortable(
      state, reinterpret_cast<const uint8_t*>(padded.data()),
      padded.size() / 64);
  Hash256 out;
  for (int i = 0; i < 8; i++) {
    for (int b = 0; b < 4; b++) {
      out.bytes[4 * i + b] = static_cast<uint8_t>(state[i] >> (24 - 8 * b));
    }
  }
  return out;
}

TEST(Sha256Test, AcceleratedMatchesPortable) {
  Random rng(15);
  uint32_t probe[8] = {};
  const uint8_t block[64] = {};
  if (!detail::Sha256CompressAccelerated(probe, block, 1)) {
    GTEST_SKIP() << "CPU lacks the SHA extensions (SHA-NI, SSSE3, SSE4.1); "
                    "only the portable compressor runs here";
  }
  for (int trial = 0; trial < 200; trial++) {
    const size_t nblocks = 1 + rng.Uniform(20);
    const std::string data = RandomBytes(&rng, 64 * nblocks);
    uint32_t portable[8];
    for (uint32_t& word : portable) word = static_cast<uint32_t>(rng.Next());
    uint32_t accelerated[8];
    std::copy(portable, portable + 8, accelerated);
    const auto* blocks = reinterpret_cast<const uint8_t*>(data.data());
    detail::Sha256CompressPortable(portable, blocks, nblocks);
    ASSERT_TRUE(
        detail::Sha256CompressAccelerated(accelerated, blocks, nblocks));
    for (int i = 0; i < 8; i++) {
      ASSERT_EQ(portable[i], accelerated[i])
          << "trial " << trial << " word " << i;
    }
  }
}

TEST(Sha256Test, EveryLengthAtRandomSplitsMatchesReference) {
  Random rng(56);
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 256; n++) lengths.push_back(n);
  for (size_t n : {55, 56, 63, 64, 119, 120}) lengths.push_back(n);
  for (size_t n : lengths) {
    const std::string data = RandomBytes(&rng, n);
    const Hash256 expected = ReferenceDigest(data);
    ASSERT_EQ(Sha256::Digest(data), expected) << "length " << n;
    Sha256 ctx;
    size_t pos = 0;
    while (pos < n) {
      const size_t take = std::min<size_t>(n - pos, rng.Uniform(80));
      ctx.Update(data.data() + pos, take);
      pos += take;
    }
    ASSERT_EQ(ctx.Finish(), expected) << "length " << n;
  }
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string data(100000, 'z');
  Sha256 ctx;
  for (size_t i = 0; i < data.size(); i += 997) {
    ctx.Update(data.data() + i, std::min<size_t>(997, data.size() - i));
  }
  EXPECT_EQ(ctx.Finish(), Sha256::Digest(data));
}

TEST(Sha256Test, HexRoundTrip) {
  Hash256 h = Sha256::Digest(Slice("roundtrip"));
  Hash256 parsed;
  ASSERT_TRUE(Hash256::FromHex(h.ToHex(), &parsed));
  EXPECT_EQ(parsed, h);
  EXPECT_FALSE(Hash256::FromHex("zz", &parsed));
  EXPECT_FALSE(Hash256::FromHex(std::string(64, 'g'), &parsed));
}

TEST(Sha256Test, DigestPairDiffersFromConcatenationOrder) {
  Hash256 a = Sha256::Digest(Slice("a"));
  Hash256 b = Sha256::Digest(Slice("b"));
  EXPECT_NE(Sha256::DigestPair(a, b), Sha256::DigestPair(b, a));
}

uint32_t BytewiseCrc32(uint32_t crc, const std::string& data, size_t pos,
                       size_t len) {
  crc = ~crc;
  for (size_t i = pos; i < pos + len; i++) {
    crc ^= static_cast<uint8_t>(data[i]);
    for (int k = 0; k < 8; k++) {
      crc = (crc & 1) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Crc32Test, KnownVector) {
  // CRC-32 of "123456789" is 0xCBF43926.
  EXPECT_EQ(Crc32(Slice("123456789")), 0xcbf43926u);
  EXPECT_EQ(Crc32(Slice("")), 0u);
}

TEST(Crc32Test, Incremental) {
  uint32_t whole = Crc32(Slice("hello world"));
  EXPECT_NE(whole, Crc32(Slice("hello worlx")));
}

TEST(Crc32Test, SlicingMatchesBytewiseAtEveryLengthAndAlignment) {
  // Lengths through 1024 cover the PCLMULQDQ fold's 64-byte threshold, its
  // 16-byte and sub-16 tails, and many 64-byte steps; a random starting CRC
  // checks the running-register hand-off into the fold.
  Random rng(32);
  const std::string data = RandomBytes(&rng, 1024 + 16);
  for (size_t align = 0; align < 16; align++) {
    for (size_t len = 0; len <= 1024; len++) {
      const auto init = static_cast<uint32_t>(rng.Next());
      const uint32_t want = BytewiseCrc32(init, data, align, len);
      ASSERT_EQ(Crc32(init, data.data() + align, len), want)
          << "align " << align << " len " << len;
      ASSERT_EQ(detail::Crc32Portable(init, data.data() + align, len), want)
          << "align " << align << " len " << len;
    }
  }
  const std::string big = RandomBytes(&rng, 1 << 20);
  const uint32_t whole = BytewiseCrc32(0, big, 0, big.size());
  EXPECT_EQ(Crc32(Slice(big)), whole);
  for (int trial = 0; trial < 20; trial++) {
    const size_t split = rng.Uniform(big.size() + 1);
    const uint32_t head = Crc32(0, big.data(), split);
    ASSERT_EQ(Crc32(head, big.data() + split, big.size() - split), whole)
        << "split " << split;
  }
}

TEST(Crc32Test, IncrementalAcrossSplitPointsMatchesOneShot) {
  Random rng(8);
  const std::string data = RandomBytes(&rng, 300);
  const uint32_t whole = BytewiseCrc32(0, data, 0, data.size());
  for (size_t split = 0; split <= data.size(); split++) {
    const uint32_t head = Crc32(0, data.data(), split);
    ASSERT_EQ(Crc32(head, data.data() + split, data.size() - split), whole)
        << "split " << split;
  }
}

TEST(BitmapTest, SetTestClear) {
  Bitmap b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_FALSE(b.AnySet());
  b.Set(0);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(129));
  EXPECT_FALSE(b.Test(1));
  EXPECT_EQ(b.Count(), 3u);
  b.Clear(64);
  EXPECT_FALSE(b.Test(64));
  EXPECT_EQ(b.Count(), 2u);
}

TEST(BitmapTest, SetGrowAndOutOfRangeTest) {
  Bitmap b;
  b.SetGrow(100);
  EXPECT_EQ(b.size(), 101u);
  EXPECT_TRUE(b.Test(100));
  EXPECT_FALSE(b.Test(5000));  // beyond size: false, no crash
}

TEST(BitmapTest, AndOrWithDifferentSizes) {
  Bitmap a(10), b(200);
  a.Set(3);
  a.Set(7);
  b.Set(3);
  b.Set(150);
  Bitmap both = a;
  both.And(b);
  EXPECT_TRUE(both.Test(3));
  EXPECT_FALSE(both.Test(7));
  EXPECT_FALSE(both.Test(150));
  EXPECT_EQ(both.size(), 200u);

  Bitmap either = a;
  either.Or(b);
  EXPECT_TRUE(either.Test(3));
  EXPECT_TRUE(either.Test(7));
  EXPECT_TRUE(either.Test(150));
}

TEST(BitmapTest, SetBitsAndNextSetBit) {
  Bitmap b(300);
  std::set<size_t> expected = {0, 63, 64, 65, 128, 299};
  for (size_t i : expected) b.Set(i);
  auto bits = b.SetBits();
  EXPECT_EQ(std::set<size_t>(bits.begin(), bits.end()), expected);
  EXPECT_EQ(b.NextSetBit(0), 0u);
  EXPECT_EQ(b.NextSetBit(1), 63u);
  EXPECT_EQ(b.NextSetBit(66), 128u);
  EXPECT_EQ(b.NextSetBit(300), Bitmap::npos);
}

TEST(BitmapTest, EncodeDecodeRoundTrip) {
  Bitmap b(77);
  b.Set(0);
  b.Set(76);
  b.Set(33);
  std::string buf;
  b.EncodeTo(&buf);
  Slice input(buf);
  Bitmap decoded;
  ASSERT_TRUE(Bitmap::DecodeFrom(&input, &decoded));
  EXPECT_EQ(decoded, b);
}

// Property test: bitmap behaves like std::vector<bool> under random ops.
TEST(BitmapTest, MatchesReferenceImplementation) {
  Random rng(42);
  Bitmap b(500);
  std::vector<bool> ref(500, false);
  for (int i = 0; i < 2000; i++) {
    size_t pos = rng.Uniform(500);
    if (rng.Uniform(2) == 0) {
      b.Set(pos);
      ref[pos] = true;
    } else {
      b.Clear(pos);
      ref[pos] = false;
    }
  }
  size_t ref_count = 0;
  for (size_t i = 0; i < 500; i++) {
    EXPECT_EQ(b.Test(i), ref[i]) << i;
    if (ref[i]) ref_count++;
  }
  EXPECT_EQ(b.Count(), ref_count);
}

TEST(BitmapTest, IntersectsMatchesAndThenAnySet) {
  Random rng(7);
  for (int trial = 0; trial < 200; trial++) {
    Bitmap a(1 + rng.Uniform(300));
    Bitmap b(1 + rng.Uniform(300));
    for (int i = 0; i < 3; i++) {
      a.Set(rng.Uniform(a.size()));
      b.Set(rng.Uniform(b.size()));
    }
    Bitmap both = a;
    both.And(b);
    EXPECT_EQ(a.Intersects(b), both.AnySet()) << trial;
    EXPECT_EQ(b.Intersects(a), both.AnySet()) << trial;
  }
  EXPECT_FALSE(Bitmap().Intersects(Bitmap(64)));
}

TEST(LruCacheTest, InsertLookupEvict) {
  LruCache<int, std::string> cache(100);
  cache.Insert(1, std::make_shared<std::string>("one"), 40);
  cache.Insert(2, std::make_shared<std::string>("two"), 40);
  EXPECT_NE(cache.Lookup(1), nullptr);
  EXPECT_NE(cache.Lookup(2), nullptr);
  // Touch 1 so 2 is the LRU victim.
  cache.Lookup(1);
  cache.Insert(3, std::make_shared<std::string>("three"), 40);
  EXPECT_NE(cache.Lookup(1), nullptr);
  EXPECT_EQ(cache.Lookup(2), nullptr);
  EXPECT_NE(cache.Lookup(3), nullptr);
}

TEST(LruCacheTest, OversizedEntryNotCached) {
  LruCache<int, std::string> cache(10);
  cache.Insert(1, std::make_shared<std::string>("big"), 100);
  EXPECT_EQ(cache.Lookup(1), nullptr);
  EXPECT_EQ(cache.usage(), 0u);
}

TEST(LruCacheTest, ReplaceUpdatesCharge) {
  LruCache<int, int> cache(100);
  cache.Insert(1, std::make_shared<int>(1), 60);
  cache.Insert(1, std::make_shared<int>(2), 30);
  EXPECT_EQ(cache.usage(), 30u);
  EXPECT_EQ(*cache.Lookup(1), 2);
}

TEST(LruCacheTest, HitMissCounters) {
  LruCache<int, int> cache(100);
  cache.Insert(1, std::make_shared<int>(1), 10);
  cache.Lookup(1);
  cache.Lookup(2);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruCacheTest, ShardCountFollowsCapacity) {
  EXPECT_EQ((LruCache<int, int>(100).num_shards()), 1u);
  EXPECT_EQ((LruCache<int, int>((2 << 20) - 1).num_shards()), 1u);
  EXPECT_EQ((LruCache<int, int>(2 << 20).num_shards()), 2u);
  EXPECT_EQ((LruCache<int, int>(8 << 20).num_shards()), 8u);
  EXPECT_EQ((LruCache<int, int>(64 << 20).num_shards()), 16u);
  EXPECT_EQ((LruCache<int, int>(1ull << 32).num_shards()), 16u);
}

TEST(LruCacheTest, EvictedEntryStaysReadableThroughItsSharedPtr) {
  LruCache<uint64_t, std::string> cache(64 << 20);  // 16 shards of 4 MiB
  std::shared_ptr<std::string> held = std::make_shared<std::string>("kept");
  cache.Insert(0, held, 1 << 20);
  std::shared_ptr<std::string> looked_up = cache.Lookup(0);
  held.reset();
  // Far more than a shard holds: key 0 is evicted from its shard.
  for (uint64_t k = 1; k <= 256; k++) {
    cache.Insert(k, std::make_shared<std::string>("x"), 1 << 20);
  }
  EXPECT_EQ(cache.Lookup(0), nullptr);
  ASSERT_NE(looked_up, nullptr);
  EXPECT_EQ(*looked_up, "kept");
  EXPECT_LE(cache.usage(), cache.capacity());
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(LruCacheTest, ConcurrentInsertLookupEraseStress) {
  LruCache<uint64_t, uint64_t> cache(64 << 20);
  ASSERT_EQ(cache.num_shards(), 16u);
  constexpr int kThreads = 4;
  constexpr uint64_t kOps = 20000;
  constexpr uint64_t kKeys = 4096;
  std::atomic<uint64_t> lookups{0};
  std::atomic<bool> wrong_value{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      Random rng(t + 1);
      for (uint64_t i = 0; i < kOps; i++) {
        const uint64_t key = rng.Uniform(kKeys);
        switch (rng.Uniform(4)) {
          case 0:
            // Large charges (~32 KiB) so the 4 MiB shards keep evicting.
            cache.Insert(key, std::make_shared<uint64_t>(key * 7),
                         (16 << 10) + rng.Uniform(32 << 10));
            break;
          case 1:
            cache.Erase(key);
            break;
          default: {
            lookups.fetch_add(1, std::memory_order_relaxed);
            auto value = cache.Lookup(key);
            if (value != nullptr && *value != key * 7) wrong_value = true;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(wrong_value.load());
  const auto stats = cache.stats();
  EXPECT_LE(stats.usage, cache.capacity());
  EXPECT_EQ(stats.hits + stats.misses, lookups.load());
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.hits, 0u);
}

TEST(ClockTest, ManualClockAdvances) {
  ManualClock clock(1000);
  EXPECT_EQ(clock.NowMicros(), 1000);
  clock.AdvanceMicros(500);
  EXPECT_EQ(clock.NowMicros(), 1500);
  clock.SetMicros(42);
  EXPECT_EQ(clock.NowMicros(), 42);
  EXPECT_EQ(clock.NowMillis(), 0);
}

TEST(ClockTest, SystemClockMonotonicEnough) {
  auto clock = SystemClock::Default();
  Timestamp a = clock->NowMicros();
  Timestamp b = clock->NowMicros();
  EXPECT_LE(a, b);
  EXPECT_GT(a, 1600000000000000LL);  // after 2020
}

TEST(RandomTest, DeterministicWithSeed) {
  Random a(7), b(7);
  for (int i = 0; i < 100; i++) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformInRange) {
  Random rng(1);
  for (int i = 0; i < 1000; i++) {
    uint64_t v = rng.Uniform(10);
    EXPECT_LT(v, 10u);
    int64_t r = rng.UniformRange(-5, 5);
    EXPECT_GE(r, -5);
    EXPECT_LE(r, 5);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, GaussianClampedAndCentered) {
  Random rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; i++) {
    int64_t v = rng.GaussianInRange(500, 20, 0, 999);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 999);
    sum += static_cast<double>(v);
  }
  double mean = sum / 10000;
  EXPECT_NEAR(mean, 500, 2.0);
}

}  // namespace
}  // namespace sebdb
