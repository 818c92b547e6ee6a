#include <gtest/gtest.h>

#include "xml/builder.h"
#include "xml/document.h"
#include "xml/node.h"

namespace sjos {
namespace {

// <a><b><c/></b><d/></a>
Document SmallDoc() {
  DocumentBuilder b;
  b.OpenElement("a");
  b.OpenElement("b");
  b.OpenElement("c");
  b.CloseElement();
  b.CloseElement();
  b.OpenElement("d");
  b.CloseElement();
  b.CloseElement();
  Result<Document> doc = std::move(b).Build();
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return std::move(doc).value();
}

TEST(TagDictionaryTest, InternIsIdempotent) {
  TagDictionary dict;
  TagId a = dict.Intern("alpha");
  TagId b = dict.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Intern("alpha"), a);
  EXPECT_EQ(dict.Name(a), "alpha");
  EXPECT_EQ(dict.size(), 2u);
}

TEST(TagDictionaryTest, FindMissingReturnsInvalid) {
  TagDictionary dict;
  dict.Intern("x");
  EXPECT_EQ(dict.Find("y"), kInvalidTag);
  EXPECT_EQ(dict.Find("x"), 0u);
}

TEST(DocumentTest, PreorderNumbering) {
  Document doc = SmallDoc();
  ASSERT_EQ(doc.NumNodes(), 4u);
  // ids: a=0, b=1, c=2, d=3
  EXPECT_EQ(doc.TagNameOf(0), "a");
  EXPECT_EQ(doc.TagNameOf(1), "b");
  EXPECT_EQ(doc.TagNameOf(2), "c");
  EXPECT_EQ(doc.TagNameOf(3), "d");
  EXPECT_EQ(doc.EndOf(0), 3u);
  EXPECT_EQ(doc.EndOf(1), 2u);
  EXPECT_EQ(doc.EndOf(2), 2u);
  EXPECT_EQ(doc.EndOf(3), 3u);
}

TEST(DocumentTest, LevelsAndParents) {
  Document doc = SmallDoc();
  EXPECT_EQ(doc.LevelOf(0), 0);
  EXPECT_EQ(doc.LevelOf(1), 1);
  EXPECT_EQ(doc.LevelOf(2), 2);
  EXPECT_EQ(doc.LevelOf(3), 1);
  EXPECT_EQ(doc.ParentOf(0), kInvalidNode);
  EXPECT_EQ(doc.ParentOf(1), 0u);
  EXPECT_EQ(doc.ParentOf(2), 1u);
  EXPECT_EQ(doc.ParentOf(3), 0u);
  EXPECT_EQ(doc.MaxLevel(), 2);
}

TEST(DocumentTest, AncestorAndParentPredicates) {
  Document doc = SmallDoc();
  EXPECT_TRUE(doc.IsAncestor(0, 2));
  EXPECT_TRUE(doc.IsAncestor(1, 2));
  EXPECT_FALSE(doc.IsAncestor(1, 3));
  EXPECT_FALSE(doc.IsAncestor(2, 1));
  EXPECT_FALSE(doc.IsAncestor(2, 2));
  EXPECT_TRUE(doc.IsParent(0, 1));
  EXPECT_FALSE(doc.IsParent(0, 2));
}

TEST(DocumentTest, ChildrenOf) {
  Document doc = SmallDoc();
  EXPECT_EQ(doc.ChildrenOf(0), (std::vector<NodeId>{1, 3}));
  EXPECT_EQ(doc.ChildrenOf(1), (std::vector<NodeId>{2}));
  EXPECT_TRUE(doc.ChildrenOf(2).empty());
}

TEST(DocumentTest, TextStorage) {
  DocumentBuilder b;
  b.OpenElement("r");
  b.Text("hello");
  b.OpenElement("k");
  b.CloseElement();
  b.Text(" world");
  b.CloseElement();
  Document doc = std::move(b).Build().value();
  EXPECT_EQ(doc.TextOf(0), "hello world");
  EXPECT_EQ(doc.TextOf(1), "");
}

TEST(DocumentTest, ValidatePassesOnBuilderOutput) {
  Document doc = SmallDoc();
  EXPECT_TRUE(doc.Validate().ok());
}

TEST(DocumentBuilderTest, RejectsSecondRoot) {
  DocumentBuilder b;
  b.OpenElement("a");
  b.CloseElement();
  b.OpenElement("b");
  b.CloseElement();
  Result<Document> doc = std::move(b).Build();
  EXPECT_FALSE(doc.ok());
}

TEST(DocumentBuilderTest, RejectsUnbalancedClose) {
  DocumentBuilder b;
  b.OpenElement("a");
  b.CloseElement();
  b.CloseElement();
  Result<Document> doc = std::move(b).Build();
  EXPECT_FALSE(doc.ok());
}

TEST(DocumentBuilderTest, RejectsUnclosedElements) {
  DocumentBuilder b;
  b.OpenElement("a");
  b.OpenElement("b");
  b.CloseElement();
  Result<Document> doc = std::move(b).Build();
  EXPECT_FALSE(doc.ok());
}

TEST(DocumentBuilderTest, RejectsEmptyDocument) {
  DocumentBuilder b;
  Result<Document> doc = std::move(b).Build();
  EXPECT_FALSE(doc.ok());
}

TEST(DocumentBuilderTest, RejectsTextOutsideRoot) {
  DocumentBuilder b;
  b.Text("floating");
  b.OpenElement("a");
  b.CloseElement();
  Result<Document> doc = std::move(b).Build();
  EXPECT_FALSE(doc.ok());
}

}  // namespace
}  // namespace sjos
