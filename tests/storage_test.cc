#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string_view>

#include "pattern/xpath_parser.h"
#include "storage/fragment.h"
#include "storage/fragment_store.h"
#include "storage/kv_store.h"
#include "storage/materializer.h"
#include "test_util.h"
#include "workload/random_doc.h"
#include "workload/xmark.h"
#include "xml/xml_parser.h"

namespace xvr {
namespace {

TEST(KvStore, PutGetDelete) {
  KvStore kv;
  kv.Put("a", "1");
  kv.Put("b", "2");
  ASSERT_NE(kv.Get("a"), nullptr);
  EXPECT_EQ(*kv.Get("a"), "1");
  EXPECT_EQ(kv.Get("c"), nullptr);
  EXPECT_TRUE(kv.Delete("a"));
  EXPECT_FALSE(kv.Delete("a"));
  EXPECT_EQ(kv.Get("a"), nullptr);
  EXPECT_EQ(kv.size(), 1u);
}

TEST(KvStore, OverwriteUpdatesByteSize) {
  KvStore kv;
  kv.Put("k", "xx");
  const size_t before = kv.ByteSize();
  kv.Put("k", "xxxx");
  EXPECT_EQ(kv.ByteSize(), before + 2);
  kv.Delete("k");
  EXPECT_EQ(kv.ByteSize(), 0u);
}

TEST(KvStore, ScanPrefixInOrder) {
  KvStore kv;
  kv.Put("frag/1/b", "");
  kv.Put("frag/1/a", "");
  kv.Put("frag/2/a", "");
  kv.Put("other", "");
  std::vector<std::string> keys;
  kv.ScanPrefix("frag/1/", [&](const std::string& k, const std::string&) {
    keys.push_back(k);
    return true;
  });
  EXPECT_EQ(keys, (std::vector<std::string>{"frag/1/a", "frag/1/b"}));
}

TEST(KvStore, ScanPrefixEarlyStop) {
  KvStore kv;
  kv.Put("p/1", "");
  kv.Put("p/2", "");
  int seen = 0;
  kv.ScanPrefix("p/", [&](const std::string&, const std::string&) {
    ++seen;
    return false;
  });
  EXPECT_EQ(seen, 1);
}

TEST(KvStore, DeletePrefix) {
  KvStore kv;
  kv.Put("p/1", "x");
  kv.Put("p/2", "y");
  kv.Put("q/1", "z");
  EXPECT_EQ(kv.DeletePrefix("p/"), 2u);
  EXPECT_EQ(kv.size(), 1u);
}

TEST(KvStore, SaveLoadRoundTrip) {
  const std::string path = TestTempPath("kv.bin");
  KvStore kv;
  kv.Put("alpha", std::string(1000, 'a'));
  kv.Put("beta", "");
  kv.Put("", "empty key is fine");
  ASSERT_TRUE(kv.SaveToFile(path).ok());
  KvStore loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path).ok());
  EXPECT_EQ(loaded.size(), 3u);
  EXPECT_EQ(*loaded.Get("alpha"), std::string(1000, 'a'));
  EXPECT_EQ(*loaded.Get(""), "empty key is fine");
  EXPECT_EQ(loaded.ByteSize(), kv.ByteSize());
  std::remove(path.c_str());
}

TEST(KvStore, LoadRejectsCorruption) {
  const std::string path = TestTempPath("kv.bin");
  KvStore kv;
  kv.Put("k", "value");
  ASSERT_TRUE(kv.SaveToFile(path).ok());
  // Flip a byte in the middle.
  {
    FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 20, SEEK_SET);
    std::fputc('!', f);
    std::fclose(f);
  }
  KvStore loaded;
  EXPECT_FALSE(loaded.LoadFromFile(path).ok());
  std::remove(path.c_str());
  EXPECT_FALSE(loaded.LoadFromFile(TestTempPath("missing.bin")).ok());
}

class FragmentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto r = ParseXml(
        "<b><s><t/><f n=\"1\"><i/></f><p>text</p></s>"
        "<s><t/><p/></s></b>");
    ASSERT_TRUE(r.ok()) << r.status();
    tree_ = std::move(r).value();
    tree_.AssignDeweyCodes();
  }
  TreePattern Parse(const std::string& xpath) {
    auto r = ParseXPath(xpath, &tree_.labels());
    EXPECT_TRUE(r.ok()) << xpath << ": " << r.status();
    return std::move(r).value();
  }
  // First s node.
  NodeId FirstS() {
    for (size_t i = 0; i < tree_.size(); ++i) {
      if (tree_.label_name(static_cast<NodeId>(i)) == "s") {
        return static_cast<NodeId>(i);
      }
    }
    return kNullNode;
  }
  XmlTree tree_;
};

TEST_F(FragmentTest, FromTreeCapturesSubtree) {
  const NodeId s = FirstS();
  Fragment frag = Fragment::FromTree(tree_, s);
  EXPECT_EQ(frag.size(), tree_.SubtreeSize(s));
  EXPECT_EQ(frag.AbsoluteCode(0), tree_.dewey(s));
  // Every fragment node's absolute code resolves back to the right node.
  for (size_t i = 0; i < frag.size(); ++i) {
    const DeweyCode code = frag.AbsoluteCode(static_cast<int32_t>(i));
    const NodeId original = tree_.FindByDewey(code);
    ASSERT_NE(original, kNullNode) << code.ToString();
    EXPECT_EQ(tree_.label(original), frag.node(static_cast<int32_t>(i)).label);
  }
}

TEST_F(FragmentTest, CarriesTextAndAttributes) {
  Fragment frag = Fragment::FromTree(tree_, FirstS());
  bool found_text = false;
  bool found_attr = false;
  for (size_t i = 0; i < frag.size(); ++i) {
    if (const std::optional<std::string_view> t =
            frag.text(static_cast<int32_t>(i))) {
      EXPECT_EQ(*t, "text");
      found_text = true;
    }
    if (const std::optional<std::string_view> a =
            frag.attribute(static_cast<int32_t>(i), "n")) {
      EXPECT_EQ(*a, "1");
      found_attr = true;
    }
  }
  EXPECT_TRUE(found_text);
  EXPECT_TRUE(found_attr);
}

TEST_F(FragmentTest, AnchoredMatching) {
  Fragment frag = Fragment::FromTree(tree_, FirstS());
  EXPECT_TRUE(frag.MatchesAnchored(Parse("s[t]/p")));
  EXPECT_TRUE(frag.MatchesAnchored(Parse("s[f/i]")));
  EXPECT_TRUE(frag.MatchesAnchored(Parse("s[.//i]")));
  EXPECT_TRUE(frag.MatchesAnchored(Parse("*[t]")));
  EXPECT_FALSE(frag.MatchesAnchored(Parse("s/x")));
  EXPECT_FALSE(frag.MatchesAnchored(Parse("t")));  // root label mismatch
  EXPECT_FALSE(frag.MatchesAnchored(Parse("s/i")));  // i is not a child
}

TEST_F(FragmentTest, AnchoredValuePredicates) {
  Fragment frag = Fragment::FromTree(tree_, FirstS());
  EXPECT_TRUE(frag.MatchesAnchored(Parse("s/f[@n = 1]")));
  EXPECT_FALSE(frag.MatchesAnchored(Parse("s/f[@n = 2]")));
}

TEST_F(FragmentTest, AnchoredEvaluation) {
  Fragment frag = Fragment::FromTree(tree_, FirstS());
  const auto ps = frag.EvaluateAnchored(Parse("s[t]/p"));
  ASSERT_EQ(ps.size(), 1u);
  EXPECT_EQ(frag.node(ps[0]).label, tree_.labels().Find("p"));
  const auto is = frag.EvaluateAnchored(Parse("s//i"));
  ASSERT_EQ(is.size(), 1u);
  EXPECT_EQ(frag.node(is[0]).label, tree_.labels().Find("i"));
  EXPECT_TRUE(frag.EvaluateAnchored(Parse("s/q")).empty());
}

TEST_F(FragmentTest, SerializeRoundTrip) {
  Fragment frag = Fragment::FromTree(tree_, FirstS());
  const std::string bytes = frag.Serialize();
  auto restored = Fragment::Deserialize(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->size(), frag.size());
  EXPECT_EQ(restored->AbsoluteCode(0), frag.AbsoluteCode(0));
  for (size_t i = 0; i < frag.size(); ++i) {
    EXPECT_EQ(restored->node(static_cast<int32_t>(i)).label,
              frag.node(static_cast<int32_t>(i)).label);
    EXPECT_EQ(restored->AbsoluteCode(static_cast<int32_t>(i)),
              frag.AbsoluteCode(static_cast<int32_t>(i)));
  }
  EXPECT_TRUE(restored->MatchesAnchored(Parse("s[t]/p")));
  EXPECT_FALSE(Fragment::Deserialize(bytes.substr(0, 7)).ok());
}

TEST_F(FragmentTest, MaterializeView) {
  const TreePattern view = Parse("/b/s[t]/p");
  auto fragments = MaterializeView(view, tree_);
  ASSERT_TRUE(fragments.ok()) << fragments.status();
  EXPECT_EQ(fragments->size(), 2u);  // both s's have t and p
  // Fragments sorted in document order by the store.
  FragmentStore store;
  store.PutView(0, std::move(fragments).value());
  const auto* frags = store.GetView(0);
  ASSERT_NE(frags, nullptr);
  EXPECT_TRUE(CodeLess((*frags)[0].root_code(), (*frags)[1].root_code()));
}

TEST_F(FragmentTest, MaterializeEmptyViewFails) {
  auto fragments = MaterializeView(Parse("/b/x"), tree_);
  EXPECT_EQ(fragments.status().code(), StatusCode::kNotFound);
}

TEST_F(FragmentTest, MaterializeRespectsCap) {
  MaterializeOptions options;
  options.max_bytes_per_view = 10;  // absurdly small
  auto fragments = MaterializeView(Parse("//s"), tree_, options);
  EXPECT_EQ(fragments.status().code(), StatusCode::kCapacityExceeded);

  // The budget bounds the total: exactly the total is accepted, one byte
  // less is rejected.
  options.max_bytes_per_view = 0;
  auto uncapped = MaterializeView(Parse("//s"), tree_, options);
  ASSERT_TRUE(uncapped.ok()) << uncapped.status();
  ASSERT_EQ(uncapped->size(), 2u);
  size_t total = 0;
  for (const Fragment& f : *uncapped) {
    total += f.ByteSize();
  }
  options.max_bytes_per_view = total;
  auto at_cap = MaterializeView(Parse("//s"), tree_, options);
  ASSERT_TRUE(at_cap.ok()) << at_cap.status();
  EXPECT_EQ(at_cap->size(), 2u);
  options.max_bytes_per_view = total - 1;
  EXPECT_EQ(MaterializeView(Parse("//s"), tree_, options).status().code(),
            StatusCode::kCapacityExceeded);

  // A root view copies the whole document: a small budget rejects it.
  options.max_bytes_per_view = 64;
  EXPECT_EQ(MaterializeView(Parse("/b"), tree_, options).status().code(),
            StatusCode::kCapacityExceeded);
}

// The size MaterializeView computes before building must be the built
// fragment's size, on every node of documents with texts and attributes;
// with a limit, the walk passes the limit exactly when the size does.
void ExpectPreBuildSizesMatch(const XmlTree& tree) {
  for (size_t i = 0; i < tree.size(); ++i) {
    const auto n = static_cast<NodeId>(i);
    const size_t built = Fragment::FromTree(tree, n).ByteSize();
    ASSERT_EQ(Fragment::SubtreeByteSize(tree, n), built) << "node " << n;
    EXPECT_EQ(Fragment::SubtreeByteSize(tree, n, built), built);
    EXPECT_GT(Fragment::SubtreeByteSize(tree, n, built - 1), built - 1);
  }
}

TEST(FragmentSizeTest, PreBuildSizeMatchesBuiltSizeOnXmark) {
  XmarkOptions options;
  options.scale = 0.1;
  options.seed = 5;
  ExpectPreBuildSizesMatch(GenerateXmark(options));
}

TEST(FragmentSizeTest, PreBuildSizeMatchesBuiltSizeOnRandomDocs) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RandomDocOptions options;
    options.seed = seed;
    options.num_nodes = 300;
    options.alphabet_size = 2 + static_cast<int>(seed % 3);
    options.attr_probability = 0.4;
    options.text_probability = 0.4;
    ExpectPreBuildSizesMatch(GenerateRandomDoc(options));
  }
}

TEST_F(FragmentTest, FragmentStorePersistence) {
  FragmentStore store;
  auto f1 = MaterializeView(Parse("//s/p"), tree_);
  auto f2 = MaterializeView(Parse("//f"), tree_);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  store.PutView(3, std::move(f1).value());
  store.PutView(9, std::move(f2).value());
  EXPECT_TRUE(store.HasView(3));
  EXPECT_GT(store.ViewByteSize(3), 0u);
  EXPECT_EQ(store.ViewByteSize(42), 0u);
  EXPECT_GT(store.TotalByteSize(), 0u);

  KvStore kv;
  ASSERT_TRUE(store.SaveTo(&kv).ok());
  FragmentStore loaded;
  ASSERT_TRUE(loaded.LoadFrom(kv, /*id_limit=*/10).ok());
  EXPECT_EQ(loaded.num_views(), 2u);
  ASSERT_NE(loaded.GetView(3), nullptr);
  EXPECT_EQ(loaded.GetView(3)->size(), store.GetView(3)->size());
  EXPECT_EQ(loaded.TotalByteSize(), store.TotalByteSize());

  loaded.RemoveView(3);
  EXPECT_FALSE(loaded.HasView(3));
}

}  // namespace
}  // namespace xvr
