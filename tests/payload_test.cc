// distsim::Payload (the small-buffer message payload) and the checked
// wire decoders every transport reads payloads through.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "distsim/engine.h"
#include "distsim/transport.h"
#include "util/wire.h"

namespace kcore::distsim {
namespace {

// A Payload holding 0.5, 1.5, ... (n entries).
Payload Ramp(std::size_t n) {
  Payload p;
  for (std::size_t i = 0; i < n; ++i) p.push_back(0.5 + static_cast<double>(i));
  return p;
}

bool IsInline(const Payload& p) { return p.capacity() == Payload::kInline; }

std::vector<double> AsVector(const Payload& p) {
  return std::vector<double>(p.begin(), p.end());
}

void ExpectRamp(const Payload& p, std::size_t n) {
  ASSERT_EQ(p.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(p[i], 0.5 + static_cast<double>(i)) << "entry " << i;
  }
}

TEST(Payload, SizesAcrossTheInlineBoundary) {
  // 0..kInline stay inline; kInline + 1 and a densest-shaped 2T+1 spill.
  constexpr std::size_t kTwoTPlusOne = 2 * 20 + 1;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{3}, kTwoTPlusOne}) {
    const Payload p = Ramp(n);
    ExpectRamp(p, n);
    EXPECT_EQ(p.empty(), n == 0);
    EXPECT_EQ(IsInline(p), n <= Payload::kInline) << "n = " << n;
    EXPECT_GE(p.capacity(), n);
    EXPECT_EQ(static_cast<std::size_t>(p.end() - p.begin()), n);
  }
}

TEST(Payload, BraceInitAndAssign) {
  const Payload one{7.0};
  EXPECT_TRUE(IsInline(one));
  EXPECT_EQ(AsVector(one), std::vector<double>{7.0});
  Payload p{1.0, 2.0, 3.0};
  EXPECT_FALSE(IsInline(p));
  EXPECT_EQ(AsVector(p), (std::vector<double>{1.0, 2.0, 3.0}));
  p = {4.0};  // shrinks in size, keeps its heap block
  EXPECT_EQ(AsVector(p), std::vector<double>{4.0});
  p = {};
  EXPECT_TRUE(p.empty());
}

TEST(Payload, PushBackSpillsInlineToHeap) {
  Payload p;
  EXPECT_TRUE(IsInline(p));
  EXPECT_EQ(p.capacity(), Payload::kInline);
  for (std::size_t n = 1; n <= 40; ++n) {
    p.push_back(0.5 + static_cast<double>(n - 1));
    ExpectRamp(p, n);  // contents survive every reallocation
    EXPECT_EQ(IsInline(p), n <= Payload::kInline);
  }
  p.clear();
  EXPECT_TRUE(p.empty());
  EXPECT_FALSE(IsInline(p));  // like a vector, capacity never shrinks
  p.push_back(9.0);
  EXPECT_EQ(AsVector(p), std::vector<double>{9.0});
}

TEST(Payload, ReserveKeepsContents) {
  Payload p = Ramp(2);
  p.reserve(1);  // no-op
  EXPECT_TRUE(IsInline(p));
  p.reserve(17);
  EXPECT_GE(p.capacity(), 17u);
  ExpectRamp(p, 2);
}

TEST(Payload, CopyAndMoveInBothStates) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
    const Payload src = Ramp(n);

    Payload copy(src);
    ExpectRamp(copy, n);
    ExpectRamp(src, n);  // the source is untouched

    Payload assigned{42.0, 43.0, 44.0, 45.0};
    assigned = src;
    ExpectRamp(assigned, n);

    Payload moved(std::move(copy));
    ExpectRamp(moved, n);
    EXPECT_TRUE(copy.empty());
    EXPECT_TRUE(IsInline(copy));
    copy.push_back(3.0);  // a moved-from payload is reusable
    EXPECT_EQ(AsVector(copy), std::vector<double>{3.0});

    Payload target{9.0};
    target = std::move(moved);
    ExpectRamp(target, n);
    EXPECT_TRUE(moved.empty());

    // Inline <- heap and heap <- inline assignments.
    Payload big = Ramp(6);
    big = Ramp(n);
    ExpectRamp(big, n);
    Payload small{1.0};
    small = Ramp(6);
    ExpectRamp(small, 6);
  }
}

TEST(Payload, SelfAssignmentInBothStates) {
  for (const std::size_t n : {std::size_t{2}, std::size_t{4}}) {
    Payload p = Ramp(n);
    Payload& alias = p;
    p = alias;
    ExpectRamp(p, n);
    p = std::move(alias);
    ExpectRamp(p, n);
  }
}

TEST(Payload, ResizeDownAndUp) {
  Payload p = Ramp(5);
  p.resize(2);
  ExpectRamp(p, 2);
  p.resize(4);  // regrown entries read 0.0, like std::vector
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p[0], 0.5);
  EXPECT_EQ(p[1], 1.5);
  EXPECT_EQ(p[2], 0.0);
  EXPECT_EQ(p[3], 0.0);

  Payload q;
  q.resize(1);
  EXPECT_TRUE(IsInline(q));
  EXPECT_EQ(AsVector(q), std::vector<double>{0.0});
  q.resize(3);
  EXPECT_FALSE(IsInline(q));
  EXPECT_EQ(AsVector(q), (std::vector<double>{0.0, 0.0, 0.0}));
  q.resize(0);
  EXPECT_TRUE(q.empty());
}

TEST(Payload, EqualityMatchesVectorOfDouble) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Pairs of contents; Payload == must agree with std::vector<double> ==
  // on every one: -0.0 == 0.0, NaN != NaN, sizes must match.
  const std::vector<std::pair<std::vector<double>, std::vector<double>>>
      cases = {
          {{}, {}},
          {{0.0}, {-0.0}},
          {{-0.0, 1.0}, {0.0, 1.0}},
          {{nan}, {nan}},
          {{1.0, nan, 2.0}, {1.0, nan, 2.0}},
          {{1.0}, {1.0, 0.0}},
          {{1.0, 2.0, 3.0}, {1.0, 2.0, 3.0}},
          {{1.0, 2.0, 3.0}, {1.0, 2.0, 4.0}},
          {{}, {0.0}},
      };
  for (const auto& [a, b] : cases) {
    Payload pa, pb;
    for (double x : a) pa.push_back(x);
    for (double x : b) pb.push_back(x);
    EXPECT_EQ(pa == pb, a == b);
    EXPECT_EQ(pb == pa, b == a);
    EXPECT_EQ(pa != pb, a != b);
  }
  const Payload self{nan};
  const Payload& same = self;
  EXPECT_FALSE(self == same);  // element-wise, no identity shortcut
}

// --- Checked wire decoding (TryReadWireNodeId / TryReadWirePayload /
// DecodeSegment): validate before narrowing or resizing.

std::vector<std::uint8_t> Encode(
    const std::vector<std::uint64_t>& varints,
    const std::vector<double>& doubles = {}) {
  std::vector<std::uint8_t> out;
  util::WireAppender a(out);
  for (std::uint64_t x : varints) a.Varint(x);
  for (double d : doubles) a.Double(d);
  return out;
}

TEST(WirePayloadDecode, RoundTripsEverySize) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{3}, std::size_t{41}}) {
    const Payload src = Ramp(n);
    std::vector<double> entries(src.begin(), src.end());
    const auto bytes = Encode({n}, entries);
    util::WireReader r(bytes.data(), bytes.size());
    Payload got{99.0, 98.0, 97.0};  // stale contents are replaced
    ASSERT_TRUE(TryReadWirePayload(r, &got));
    EXPECT_EQ(got, src);
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(WirePayloadDecode, RejectsLengthBeyondTheBytesPresent) {
  // 3 entries declared, 2 present; then 2^61 declared, none present.
  const auto short_by_one = Encode({3}, {1.0, 2.0});
  util::WireReader r1(short_by_one.data(), short_by_one.size());
  Payload p;
  EXPECT_FALSE(TryReadWirePayload(r1, &p));
  EXPECT_TRUE(p.empty());  // rejected before resizing

  const auto huge = Encode({std::uint64_t{1} << 61});
  util::WireReader r2(huge.data(), huge.size());
  EXPECT_FALSE(TryReadWirePayload(r2, &p));
  EXPECT_TRUE(p.empty());
}

TEST(WirePayloadDecode, RejectsIdsThatDoNotFitANodeId) {
  const auto ids = Encode({0xffffffffu, std::uint64_t{1} << 32,
                           (std::uint64_t{1} << 32) + 2});
  util::WireReader r(ids.data(), ids.size());
  graph::NodeId id = 0;
  ASSERT_TRUE(TryReadWireNodeId(r, &id));
  EXPECT_EQ(id, 0xffffffffu);
  EXPECT_FALSE(TryReadWireNodeId(r, &id));
  EXPECT_EQ(id, 0xffffffffu);  // untouched on failure
}

// Each crafted segment must fail DecodeSegment's own check — not an
// uncaught std::length_error, and never a delivery to the wrong node.
// Layout per message: varint from, varint to, varint length, entries.
void DecodeInto(const std::vector<std::uint8_t>& seg, std::uint64_t lo,
                std::uint64_t hi) {
  std::vector<std::vector<InMessage>> inbox(8);
  DecodeSegment(seg.data(), seg.size(), lo, hi, inbox);
}

TEST(WirePayloadDecodeDeathTest, HugePayloadLengthFailsTheCheck) {
  const auto seg = Encode({1, 2, std::uint64_t{1} << 61});
  EXPECT_DEATH(DecodeInto(seg, 0, 8), "malformed packed segment");
}

TEST(WirePayloadDecodeDeathTest, PayloadLengthPastTheSegmentFailsTheCheck) {
  const auto seg = Encode({1, 2, 2}, {5.0});  // 2 declared, 1 present
  EXPECT_DEATH(DecodeInto(seg, 0, 8), "malformed packed segment");
}

TEST(WirePayloadDecodeDeathTest, ReceiverIdPast32BitsIsNotDelivered) {
  // 2^32 + 2 would narrow to receiver 2, inside [0, 8).
  const auto seg = Encode({1, (std::uint64_t{1} << 32) + 2, 1}, {5.0});
  EXPECT_DEATH(DecodeInto(seg, 0, 8), "malformed packed segment");
}

TEST(WirePayloadDecodeDeathTest, SenderIdPast32BitsFailsTheCheck) {
  const auto seg = Encode({(std::uint64_t{1} << 32) + 1, 2, 1}, {5.0});
  EXPECT_DEATH(DecodeInto(seg, 0, 8), "malformed packed segment");
}

TEST(WirePayloadDecode, WellFormedSegmentStillDecodes) {
  // The control for the death tests above: the same shapes, in range.
  const auto seg = Encode({1, 2, 1}, {5.0});
  std::vector<std::vector<InMessage>> inbox(8);
  DecodeSegment(seg.data(), seg.size(), 0, 8, inbox);
  ASSERT_EQ(inbox[2].size(), 1u);
  EXPECT_EQ(inbox[2][0].from, 1u);
  EXPECT_EQ(inbox[2][0].payload, Payload{5.0});
}

}  // namespace
}  // namespace kcore::distsim
