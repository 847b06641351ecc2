#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "util/box.hpp"
#include "util/crc32c.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/small_vector.hpp"
#include "util/stats.hpp"
#include "util/vector3.hpp"

namespace paratreet {
namespace {

TEST(Vector3, BasicArithmetic) {
  Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ(a + b, Vec3(5, 7, 9));
  EXPECT_EQ(b - a, Vec3(3, 3, 3));
  EXPECT_EQ(a * 2.0, Vec3(2, 4, 6));
  EXPECT_EQ(2.0 * a, Vec3(2, 4, 6));
  EXPECT_EQ(a / 2.0, Vec3(0.5, 1, 1.5));
  EXPECT_EQ(-a, Vec3(-1, -2, -3));
}

TEST(Vector3, DotAndCross) {
  Vec3 a{1, 0, 0}, b{0, 1, 0};
  EXPECT_DOUBLE_EQ(a.dot(b), 0.0);
  EXPECT_EQ(a.cross(b), Vec3(0, 0, 1));
  EXPECT_DOUBLE_EQ(Vec3(3, 4, 0).length(), 5.0);
  EXPECT_DOUBLE_EQ(Vec3(3, 4, 0).lengthSquared(), 25.0);
}

TEST(Vector3, Indexing) {
  Vec3 v{7, 8, 9};
  EXPECT_DOUBLE_EQ(v[0], 7);
  EXPECT_DOUBLE_EQ(v[1], 8);
  EXPECT_DOUBLE_EQ(v[2], 9);
  v[1] = 42;
  EXPECT_DOUBLE_EQ(v.y, 42);
}

TEST(Vector3, LongestDimension) {
  EXPECT_EQ(Vec3(3, 1, 2).longestDimension(), 0u);
  EXPECT_EQ(Vec3(1, -5, 2).longestDimension(), 1u);
  EXPECT_EQ(Vec3(1, 2, 9).longestDimension(), 2u);
}

TEST(Vector3, CompoundAssignment) {
  Vec3 v{1, 1, 1};
  v += Vec3(1, 2, 3);
  v *= 2.0;
  v -= Vec3(2, 2, 2);
  v /= 2.0;
  EXPECT_EQ(v, Vec3(1, 2, 3));
}

TEST(OrientedBox, EmptyAndGrow) {
  OrientedBox box;
  EXPECT_TRUE(box.empty());
  box.grow(Vec3(1, 2, 3));
  EXPECT_FALSE(box.empty());
  EXPECT_TRUE(box.contains(Vec3(1, 2, 3)));
  box.grow(Vec3(-1, -2, -3));
  EXPECT_TRUE(box.contains(Vec3(0, 0, 0)));
  EXPECT_FALSE(box.contains(Vec3(2, 0, 0)));
}

TEST(OrientedBox, GrowByEmptyBoxIsNoop) {
  OrientedBox box{Vec3(0), Vec3(1)};
  const OrientedBox before = box;
  box.grow(OrientedBox{});
  EXPECT_EQ(box, before);
}

TEST(OrientedBox, ContainsBox) {
  OrientedBox outer{Vec3(0), Vec3(10)};
  OrientedBox inner{Vec3(2), Vec3(3)};
  EXPECT_TRUE(outer.contains(inner));
  EXPECT_FALSE(inner.contains(outer));
  EXPECT_TRUE(outer.contains(OrientedBox{}));  // empty box is contained
}

TEST(OrientedBox, CenterSizeVolume) {
  OrientedBox box{Vec3(0, 0, 0), Vec3(2, 4, 8)};
  EXPECT_EQ(box.center(), Vec3(1, 2, 4));
  EXPECT_EQ(box.size(), Vec3(2, 4, 8));
  EXPECT_DOUBLE_EQ(box.volume(), 64.0);
  EXPECT_EQ(box.longestDimension(), 2u);
  EXPECT_DOUBLE_EQ(OrientedBox{}.volume(), 0.0);
}

TEST(OrientedBox, DistanceSquaredToPoint) {
  OrientedBox box{Vec3(0), Vec3(1)};
  EXPECT_DOUBLE_EQ(box.distanceSquared(Vec3(0.5, 0.5, 0.5)), 0.0);
  EXPECT_DOUBLE_EQ(box.distanceSquared(Vec3(2, 0.5, 0.5)), 1.0);
  EXPECT_DOUBLE_EQ(box.distanceSquared(Vec3(2, 2, 0.5)), 2.0);
  EXPECT_DOUBLE_EQ(box.distanceSquared(Vec3(-1, -1, -1)), 3.0);
}

TEST(OrientedBox, FarthestDistanceSquared) {
  OrientedBox box{Vec3(0), Vec3(1)};
  EXPECT_DOUBLE_EQ(box.farthestDistanceSquared(Vec3(0, 0, 0)), 3.0);
  EXPECT_DOUBLE_EQ(box.farthestDistanceSquared(Vec3(0.5, 0.5, 0.5)), 0.75);
}

TEST(OrientedBox, BoxBoxDistance) {
  OrientedBox a{Vec3(0), Vec3(1)};
  OrientedBox b{Vec3(2, 0, 0), Vec3(3, 1, 1)};
  EXPECT_DOUBLE_EQ(Space::distanceSquared(a, b), 1.0);
  OrientedBox c{Vec3(0.5), Vec3(2)};
  EXPECT_DOUBLE_EQ(Space::distanceSquared(a, c), 0.0);
  OrientedBox d{Vec3(2, 2, 2), Vec3(3, 3, 3)};
  EXPECT_DOUBLE_EQ(Space::distanceSquared(a, d), 3.0);
}

TEST(Space, SphereBoxIntersection) {
  OrientedBox box{Vec3(0), Vec3(1)};
  EXPECT_TRUE(Space::intersect(box, Sphere{Vec3(0.5, 0.5, 0.5), 0.1}));
  EXPECT_TRUE(Space::intersect(box, Sphere{Vec3(2, 0.5, 0.5), 1.0}));
  EXPECT_FALSE(Space::intersect(box, Sphere{Vec3(3, 0.5, 0.5), 1.0}));
  EXPECT_TRUE(Space::contained(box, Sphere{Vec3(0.5, 0.5, 0.5), 2.0}));
  EXPECT_FALSE(Space::contained(box, Sphere{Vec3(0.5, 0.5, 0.5), 0.5}));
}

TEST(Space, BoxBoxIntersection) {
  OrientedBox a{Vec3(0), Vec3(1)};
  EXPECT_TRUE(Space::intersect(a, OrientedBox{Vec3(0.5), Vec3(2)}));
  EXPECT_FALSE(Space::intersect(a, OrientedBox{Vec3(1.5), Vec3(2)}));
  EXPECT_FALSE(Space::intersect(a, OrientedBox{}));
}

TEST(Sphere, Contains) {
  Sphere s{Vec3(0, 0, 0), 1.0};
  EXPECT_TRUE(s.contains(Vec3(0.5, 0, 0)));
  EXPECT_TRUE(s.contains(Vec3(1, 0, 0)));
  EXPECT_FALSE(s.contains(Vec3(1.01, 0, 0)));
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  bool different = false;
  Rng a2(123);
  for (int i = 0; i < 10; ++i) {
    if (a2.next() != c.next()) different = true;
  }
  EXPECT_TRUE(different);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformMeanAndVariance) {
  Rng rng(99);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.05);
}

TEST(Rng, Below) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all residues hit
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(RunningStats, Basics) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  s.add(1.0);
  s.add(2.0);
  s.add(3.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.variance(), 1.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(1.5);
  h.add(1.7);
  h.add(-5.0);  // clamps to first bin
  h.add(25.0);  // clamps to last bin
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 2u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_DOUBLE_EQ(h.binCenter(0), 0.5);
  EXPECT_DOUBLE_EQ(h.width(), 1.0);
}

TEST(Histogram, WeightedAdd) {
  Histogram h(0.0, 1.0, 4);
  h.add(0.3, 7);
  EXPECT_EQ(h.count(1), 7u);
  EXPECT_EQ(h.total(), 7u);
}

TEST(SmallVector, InlineToHeapTransition) {
  SmallVector<int, 4> v;
  EXPECT_TRUE(v.empty());
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_EQ(v.capacity(), 4u);
  v.push_back(4);  // spills to heap
  EXPECT_GT(v.capacity(), 4u);
  EXPECT_EQ(v.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
}

TEST(SmallVector, CopyAndMove) {
  SmallVector<std::string, 2> v;
  v.push_back("hello");
  v.push_back("world");
  v.push_back("spill");
  SmallVector<std::string, 2> copy = v;
  EXPECT_EQ(copy.size(), 3u);
  EXPECT_EQ(copy[2], "spill");
  SmallVector<std::string, 2> moved = std::move(v);
  EXPECT_EQ(moved.size(), 3u);
  EXPECT_EQ(moved[0], "hello");
  EXPECT_EQ(v.size(), 0u);  // NOLINT: moved-from is empty by design
}

TEST(SmallVector, MoveInlineStorage) {
  SmallVector<std::string, 8> v;
  v.push_back("a");
  v.push_back("b");
  SmallVector<std::string, 8> moved = std::move(v);
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_EQ(moved[1], "b");
}

TEST(SmallVector, PopBackAndClear) {
  SmallVector<int, 2> v{1, 2, 3};
  EXPECT_EQ(v.back(), 3);
  v.pop_back();
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.back(), 2);
  v.clear();
  EXPECT_TRUE(v.empty());
}

TEST(SmallVector, Iteration) {
  SmallVector<int, 4> v{10, 20, 30};
  int sum = 0;
  for (int x : v) sum += x;
  EXPECT_EQ(sum, 60);
}

TEST(SmallVector, CopyAssignment) {
  SmallVector<int, 2> a{1, 2, 3};
  SmallVector<int, 2> b;
  b = a;
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b[2], 3);
  b = b;  // self-assignment
  EXPECT_EQ(b.size(), 3u);
}

TEST(SmallVector, Reserve) {
  SmallVector<int, 2> v;
  v.reserve(100);
  EXPECT_GE(v.capacity(), 100u);
  v.push_back(1);
  EXPECT_EQ(v[0], 1);
}

// --- CRC-32C ---------------------------------------------------------------

std::uint32_t crcOf(const std::vector<std::uint8_t>& bytes) {
  return util::crc32c(bytes.data(), bytes.size());
}

TEST(Crc32c, CheckValue) {
  const char text[] = "123456789";
  EXPECT_EQ(util::crc32c(text, 9), 0xE3069283u);
  EXPECT_EQ(util::detail::crc32cTable(text, 9, 0), 0xE3069283u);
  EXPECT_EQ(util::crc32c(text, 0), 0u);
}

TEST(Crc32c, Rfc3720Vectors) {
  // RFC 3720 (iSCSI) Appendix B.4.
  std::vector<std::uint8_t> ascending(32), descending(32);
  std::iota(ascending.begin(), ascending.end(), 0);
  std::iota(descending.rbegin(), descending.rend(), 0);
  EXPECT_EQ(crcOf(std::vector<std::uint8_t>(32, 0x00)), 0x8A9136AAu);
  EXPECT_EQ(crcOf(std::vector<std::uint8_t>(32, 0xFF)), 0x62A8AB43u);
  EXPECT_EQ(crcOf(ascending), 0x46DD794Eu);
  EXPECT_EQ(crcOf(descending), 0x113FDB5Cu);
}

TEST(Crc32c, ChainingThroughSeedEqualsOneShot) {
  std::vector<std::uint8_t> bytes(1000);
  Rng rng(7);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
  const std::uint32_t whole = crcOf(bytes);
  for (const std::size_t cut : {0, 1, 7, 8, 9, 500, 999, 1000}) {
    const std::uint32_t head = util::crc32c(bytes.data(), cut);
    EXPECT_EQ(util::crc32c(bytes.data() + cut, bytes.size() - cut, head),
              whole)
        << "cut at " << cut;
  }
}

TEST(Crc32c, HardwareAndTableBodiesAgree) {
#if defined(PARATREET_CRC32C_SSE42)
  if (!util::detail::sse42Available()) {
    GTEST_SKIP() << "this CPU has no SSE4.2 crc32 instruction";
  }
  std::vector<std::uint8_t> bytes(4096 + 8);
  Rng rng(11);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t len = 0; len <= 4096; ++len) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const auto seed = static_cast<std::uint32_t>(rng.next());
      const std::uint8_t* p = bytes.data() + offset;
      ASSERT_EQ(util::detail::crc32cSse42(p, len, seed),
                util::detail::crc32cTable(p, len, seed))
          << "len " << len << ", offset " << offset << ", seed " << seed;
    }
  }
#else
  GTEST_SKIP() << "no SSE4.2 body on this architecture";
#endif
}

}  // namespace
}  // namespace paratreet
