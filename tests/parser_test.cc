// Unit tests for the name-specifier wire-text parser (paper Figure 3 syntax).

#include <gtest/gtest.h>

#include "ins/name/parser.h"

namespace ins {
namespace {

TEST(ParserTest, EmptyInputIsEmptySpecifier) {
  auto r = ParseNameSpecifier("");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
  r = ParseNameSpecifier("   \n\t ");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST(ParserTest, SinglePair) {
  auto r = ParseNameSpecifier("[service=camera]");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToString(), "[service=camera]");
  EXPECT_EQ(r->GetValue({"service"}), "camera");
}

TEST(ParserTest, PaperFigure3RoundTrips) {
  // The example from Figure 3, whitespace and line breaks included.
  const char* kText =
      "[city = washington [building = whitehouse\n"
      "                    [wing = west\n"
      "                     [room = oval-office]]]]\n"
      "[service = camera [data-type = picture\n"
      "                   [format = jpg]]\n"
      "                  [resolution = 640x480]]\n"
      "[accessibility = public]";
  auto r = ParseNameSpecifier(kText);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->PairCount(), 9u);
  EXPECT_EQ(r->GetValue({"city", "building", "wing", "room"}), "oval-office");
  EXPECT_EQ(r->GetValue({"service", "resolution"}), "640x480");
  EXPECT_EQ(r->GetValue({"accessibility"}), "public");

  // Canonical text reparses to an equal specifier.
  auto again = ParseNameSpecifier(r->ToString());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *r);
}

TEST(ParserTest, WildcardValue) {
  auto r = ParseNameSpecifier("[service=camera[entity=receiver[id=*]]]");
  ASSERT_TRUE(r.ok());
  const AvPair* service = FindPair(r->roots(), "service");
  const AvPair* entity = FindPair(service->children, "entity");
  const AvPair* id = FindPair(entity->children, "id");
  ASSERT_NE(id, nullptr);
  EXPECT_TRUE(id->value.is_wildcard());
}

TEST(ParserTest, BareAttributeIsWildcard) {
  // The paper's Floorplan sends [service=locator[entity=server]][location].
  auto r = ParseNameSpecifier("[service=locator[entity=server]][location]");
  ASSERT_TRUE(r.ok()) << r.status();
  const AvPair* loc = FindPair(r->roots(), "location");
  ASSERT_NE(loc, nullptr);
  EXPECT_TRUE(loc->value.is_wildcard());
}

TEST(ParserTest, RangeOperators) {
  auto r = ParseNameSpecifier("[service=printer[load<5]]");
  ASSERT_TRUE(r.ok()) << r.status();
  const AvPair* load = FindPair(FindPair(r->roots(), "service")->children, "load");
  ASSERT_NE(load, nullptr);
  EXPECT_EQ(load->value.kind(), Value::Kind::kLess);
  EXPECT_DOUBLE_EQ(load->value.bound(), 5.0);

  r = ParseNameSpecifier("[load<=5][temp>-2][count>=10]");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(FindPair(r->roots(), "load")->value.kind(), Value::Kind::kLessEqual);
  EXPECT_EQ(FindPair(r->roots(), "temp")->value.kind(), Value::Kind::kGreater);
  EXPECT_DOUBLE_EQ(FindPair(r->roots(), "temp")->value.bound(), -2.0);
  EXPECT_EQ(FindPair(r->roots(), "count")->value.kind(), Value::Kind::kGreaterEqual);
}

TEST(ParserTest, RangeRoundTripsThroughCanonicalForm) {
  auto r = ParseNameSpecifier("[load<=5.5]");
  ASSERT_TRUE(r.ok());
  auto again = ParseNameSpecifier(r->ToString());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(*again, *r);
}

TEST(ParserTest, NonNumericRangeBoundRejected) {
  auto r = ParseNameSpecifier("[load<busy]");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParserTest, ArbitraryWhitespaceAllowed) {
  auto a = ParseNameSpecifier("[ service  =\tcamera [ id = a ] ]");
  auto b = ParseNameSpecifier("[service=camera[id=a]]");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(ParserTest, MissingCloseBracket) {
  auto r = ParseNameSpecifier("[service=camera");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("']'"), std::string::npos);
}

TEST(ParserTest, MissingOpenBracket) {
  EXPECT_FALSE(ParseNameSpecifier("service=camera]").ok());
}

TEST(ParserTest, EmptyBrackets) {
  EXPECT_FALSE(ParseNameSpecifier("[]").ok());
  EXPECT_FALSE(ParseNameSpecifier("[=x]").ok());
}

TEST(ParserTest, MissingValueAfterEquals) {
  EXPECT_FALSE(ParseNameSpecifier("[service=]").ok());
  EXPECT_FALSE(ParseNameSpecifier("[service=[id=a]]").ok());
}

TEST(ParserTest, DuplicateSiblingAttributeRejected) {
  auto r = ParseNameSpecifier("[service=camera][service=printer]");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("duplicate"), std::string::npos);
  // Duplicates among children are also rejected.
  EXPECT_FALSE(ParseNameSpecifier("[a=1[b=2][b=3]]").ok());
}

TEST(ParserTest, ErrorsReportOffsets) {
  auto r = ParseNameSpecifier("[a=1] junk");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("offset"), std::string::npos);
}

TEST(ParserTest, TrailingGarbageRejected) {
  EXPECT_FALSE(ParseNameSpecifier("[a=1]]").ok());
  EXPECT_FALSE(ParseNameSpecifier("[a=1] x").ok());
}

TEST(ParserTest, DeepNesting) {
  std::string deep;
  for (int i = 0; i < 50; ++i) {
    deep += "[a" + std::to_string(i) + "=v";
  }
  deep += std::string(50, ']');
  auto r = ParseNameSpecifier(deep);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->Depth(), 50u);
  EXPECT_EQ(r->PairCount(), 50u);
}

TEST(ParserTest, NestingAtTheDepthBoundParses) {
  std::string deep;
  for (size_t i = 0; i < kMaxNameDepth; ++i) {
    deep += "[a=v";
  }
  deep += std::string(kMaxNameDepth, ']');
  auto r = ParseNameSpecifier(deep);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->Depth(), kMaxNameDepth);
}

TEST(ParserTest, HostileNestingHitsTheDepthBoundNotTheStack) {
  // 100k levels would recurse 100k frames deep without the bound.
  constexpr size_t kLevels = 100000;
  std::string deep;
  deep.reserve(kLevels * 5);
  for (size_t i = 0; i < kLevels; ++i) {
    deep += "[a=v";
  }
  deep += std::string(kLevels, ']');
  auto r = ParseNameSpecifier(deep);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // The first pair past the bound opens at byte kMaxNameDepth * 4.
  EXPECT_NE(r.status().message().find("at offset " + std::to_string(kMaxNameDepth * 4)),
            std::string::npos)
      << r.status();
}

TEST(ParserTest, TokensExcludeStructuralCharacters) {
  // '=' inside a would-be token splits it; the remainder fails to parse.
  EXPECT_FALSE(ParseNameSpecifier("[a=b=c]").ok());
  // '*' is only the wildcard token, not a general value character.
  EXPECT_FALSE(ParseNameSpecifier("[a=x*]").ok());
}

}  // namespace
}  // namespace ins
