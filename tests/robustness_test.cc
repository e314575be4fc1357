#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/file_util.h"
#include "common/random.h"
#include "core/engine.h"
#include "storage/kv_store.h"
#include "pattern/evaluate.h"
#include "pattern/pattern_writer.h"
#include "pattern/xpath_parser.h"
#include "storage/fragment.h"
#include "test_util.h"
#include "workload/xmark.h"
#include "xml/dewey.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace xvr {
namespace {

// ---------------------------------------------------------------------------
// Parser fuzzing: arbitrary inputs must never crash; accepted inputs must
// round-trip.

std::string RandomBytes(Rng* rng, size_t max_len) {
  const size_t len = rng->NextBounded(max_len + 1);
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>(rng->NextBounded(256)));
  }
  return out;
}

std::string RandomXmlish(Rng* rng, size_t max_len) {
  static const char* kPieces[] = {"<",  ">",  "</", "/>", "a",   "bb",
                                  "c",  "=",  "\"", "'",  " ",   "&amp;",
                                  "&",  ";",  "x",  "<!--", "-->", "<![CDATA[",
                                  "]]>", "<?", "?>", "!DOCTYPE"};
  std::string out;
  while (out.size() < max_len) {
    out += kPieces[rng->NextBounded(std::size(kPieces))];
    if (rng->NextBool(0.1)) break;
  }
  return out;
}

TEST(FuzzXmlParser, ArbitraryBytesNeverCrash) {
  Rng rng(1001);
  for (int i = 0; i < 3000; ++i) {
    const std::string input = RandomBytes(&rng, 120);
    auto result = ParseXml(input);
    if (result.ok()) {
      // Anything accepted must serialize and re-parse to the same size.
      const std::string out = WriteXml(*result, result->root());
      auto again = ParseXml(out);
      ASSERT_TRUE(again.ok()) << out;
      EXPECT_EQ(again->size(), result->size());
    }
  }
}

TEST(FuzzXmlParser, XmlishSoupNeverCrashes) {
  Rng rng(1002);
  for (int i = 0; i < 3000; ++i) {
    const std::string input = RandomXmlish(&rng, 160);
    auto result = ParseXml(input);
    if (result.ok()) {
      EXPECT_GT(result->size(), 0u);
    }
  }
}

TEST(FuzzXmlParser, MutatedValidDocumentNeverCrashes) {
  const std::string base =
      "<a x=\"1\"><b><c>text &amp; more</c></b><d/><!-- note --></a>";
  Rng rng(1003);
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = base;
    const int flips = rng.NextInt(1, 4);
    for (int f = 0; f < flips; ++f) {
      mutated[rng.NextBounded(mutated.size())] =
          static_cast<char>(rng.NextBounded(128));
    }
    (void)ParseXml(mutated);  // must not crash; outcome free (lint:discard-ok)
  }
}

TEST(FuzzXPathParser, ArbitraryInputsNeverCrash) {
  static const char* kPieces[] = {"/", "//", "*", "[", "]", "@", "=",
                                  "a", "bc", ".", "\"v\"", "'w'", "<",
                                  "<=", "!=", ">", "1", "-2.5", " "};
  Rng rng(1004);
  LabelDict dict;
  int accepted = 0;
  for (int i = 0; i < 5000; ++i) {
    std::string input;
    const int pieces = rng.NextInt(1, 14);
    for (int p = 0; p < pieces; ++p) {
      input += kPieces[rng.NextBounded(std::size(kPieces))];
    }
    auto result = ParseXPath(input, &dict);
    if (result.ok()) {
      ++accepted;
      // Accepted patterns round-trip through the writer.
      const std::string printed = PatternToXPath(*result, dict);
      auto again = ParseXPath(printed, &dict);
      ASSERT_TRUE(again.ok()) << input << " -> " << printed;
      EXPECT_EQ(again->CanonicalKey(), result->CanonicalKey())
          << input << " -> " << printed;
    }
  }
  EXPECT_GT(accepted, 50);  // the grammar soup should hit valid cases
}

TEST(FuzzDewey, FromStringNeverCrashes) {
  Rng rng(1005);
  for (int i = 0; i < 3000; ++i) {
    const std::string input = RandomBytes(&rng, 40);
    DeweyCode code;
    if (DeweyCode::FromString(input, &code)) {
      EXPECT_EQ(code.ToString(), input);
    }
  }
}

// ---------------------------------------------------------------------------
// Serialization fuzzing: corrupted images must return errors, not crash.

TEST(FuzzSerde, FragmentCorruption) {
  auto tree = ParseXml("<a><b n=\"1\"><c>t</c></b><b/></a>");
  ASSERT_TRUE(tree.ok());
  tree->AssignDeweyCodes();
  const Fragment fragment = Fragment::FromTree(*tree, tree->root());
  const std::string bytes = fragment.Serialize();
  Rng rng(1007);
  for (int i = 0; i < 500; ++i) {
    std::string mutated = bytes;
    if (rng.NextBool(0.5)) {
      mutated.resize(rng.NextBounded(mutated.size() + 1));
    } else {
      const int flips = rng.NextInt(1, 6);
      for (int f = 0; f < flips && !mutated.empty(); ++f) {
        mutated[rng.NextBounded(mutated.size())] =
            static_cast<char>(rng.NextBounded(256));
      }
    }
    (void)Fragment::Deserialize(mutated);  // must not crash (lint:discard-ok)
  }
}

// ---------------------------------------------------------------------------
// Systematic corruption sweeps. The checksum-and-framing discipline on every
// persisted image (KvStore, the engine state file) guarantees that a
// truncation at ANY byte offset and a corruption of ANY single byte are
// rejected with an error — these loops prove it exhaustively rather than
// sampling.

TEST(CorruptionSweep, KvStoreImageTruncationAtEveryOffset) {
  KvStore kv;
  kv.Put("meta/doc", "<r><s/></r>");
  kv.Put("frag/0000000000/00000000", "fragment bytes");
  kv.Put("vfilter/image", "image bytes");
  const std::string image = kv.Serialize();
  for (size_t len = 0; len < image.size(); ++len) {
    KvStore loaded;
    EXPECT_FALSE(loaded.Deserialize(image.substr(0, len)).ok())
        << "truncation to " << len << " of " << image.size()
        << " bytes was accepted";
  }
}

TEST(CorruptionSweep, KvStoreImageSingleByteCorruptionAtEveryOffset) {
  KvStore kv;
  kv.Put("meta/doc", "<r><s/></r>");
  kv.Put("frag/0000000000/00000000", "fragment bytes");
  kv.Put("vfilter/image", "image bytes");
  const std::string image = kv.Serialize();
  for (size_t off = 0; off < image.size(); ++off) {
    std::string mutated = image;
    mutated[off] = static_cast<char>(mutated[off] ^ 0xFF);
    KvStore loaded;
    loaded.Put("sentinel", "untouched");
    EXPECT_FALSE(loaded.Deserialize(mutated).ok())
        << "flip at offset " << off << " was accepted";
    // A failed load must not clobber the store's previous contents.
    ASSERT_NE(loaded.Get("sentinel"), nullptr);
  }
}

TEST(CorruptionSweep, EngineStateTruncationAtEveryOffset) {
  const std::string path = TestTempPath("xvr_sweep_state.bin");
  auto doc = ParseXml("<r><s><p/></s></r>");
  ASSERT_TRUE(doc.ok());
  {
    Engine engine(std::move(doc).value());
    auto v = engine.Parse("/r/s/p");
    ASSERT_TRUE(v.ok());
    ASSERT_TRUE(engine.AddView(std::move(v).value()).ok());
    ASSERT_TRUE(engine.SaveState(path).ok());
  }
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  for (size_t len = 0; len < bytes->size(); ++len) {
    ASSERT_TRUE(WriteFileAtomic(path, bytes->substr(0, len)).ok());
    EXPECT_FALSE(Engine::LoadState(path).ok())
        << "truncation to " << len << " of " << bytes->size()
        << " bytes was accepted";
  }
  std::remove(path.c_str());
}

TEST(CorruptionSweep, EngineStateRandomSingleByteCorruption) {
  const std::string path = TestTempPath("xvr_sweep_flip.bin");
  auto doc = ParseXml("<r><s><p/></s></r>");
  ASSERT_TRUE(doc.ok());
  {
    Engine engine(std::move(doc).value());
    auto v = engine.Parse("/r/s/p");
    ASSERT_TRUE(v.ok());
    ASSERT_TRUE(engine.AddView(std::move(v).value()).ok());
    ASSERT_TRUE(engine.SaveState(path).ok());
  }
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  Rng rng(1009);
  for (int i = 0; i < 300; ++i) {
    std::string mutated = *bytes;
    const size_t off = rng.NextBounded(mutated.size());
    mutated[off] = static_cast<char>(
        mutated[off] ^ static_cast<char>(rng.NextInt(1, 255)));
    ASSERT_TRUE(WriteFileAtomic(path, mutated).ok());
    // The KvStore-level checksum covers the whole image: any flipped byte
    // fails the load outright (per-value corruption tolerance — quarantine,
    // VFILTER rebuild — only applies to logical corruption that re-passes
    // the image checksum; see fault_tolerance_test.cc).
    EXPECT_FALSE(Engine::LoadState(path).ok()) << "flip at offset " << off;
  }
  std::remove(path.c_str());
}

TEST(CorruptionSweep, FragmentTruncationAtEveryOffsetNeverCrashes) {
  auto tree = ParseXml("<a><b n=\"1\"><c>t</c></b><b/></a>");
  ASSERT_TRUE(tree.ok());
  tree->AssignDeweyCodes();
  const Fragment fragment = Fragment::FromTree(*tree, tree->root());
  const std::string bytes = fragment.Serialize();
  for (size_t len = 0; len < bytes.size(); ++len) {
    // No trailing checksum at this layer (the KvStore image above carries
    // it), so a prefix may parse; it must never crash.
    (void)Fragment::Deserialize(bytes.substr(0, len));  // lint:discard-ok
  }
}

// ---------------------------------------------------------------------------
// Degenerate inputs.

TEST(Degenerate, SingleNodeDocument) {
  auto tree = ParseXml("<only/>");
  ASSERT_TRUE(tree.ok());
  tree->AssignDeweyCodes();
  auto q = ParseXPath("/only", &tree->labels());
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(EvaluatePattern(*q, *tree).size(), 1u);
  auto q2 = ParseXPath("//only[x]", &tree->labels());
  ASSERT_TRUE(q2.ok());
  EXPECT_TRUE(EvaluatePattern(*q2, *tree).empty());
}

TEST(Degenerate, VeryWideNode) {
  XmlTree tree;
  const LabelId a = tree.labels().Intern("a");
  const LabelId b = tree.labels().Intern("b");
  const NodeId root = tree.CreateRoot(a);
  for (int i = 0; i < 5000; ++i) {
    tree.AppendChild(root, b);
  }
  tree.AssignDeweyCodes();
  auto q = ParseXPath("/a/b", &tree.labels());
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(EvaluatePattern(*q, tree).size(), 5000u);
  // Sibling codes strictly increase even at width 5000.
  const auto kids = tree.Children(root);
  for (size_t i = 1; i < kids.size(); ++i) {
    EXPECT_TRUE(tree.dewey(kids[i - 1]) < tree.dewey(kids[i]));
  }
}

TEST(Degenerate, VeryDeepDocument) {
  XmlTree tree;
  const LabelId n = tree.labels().Intern("n");
  NodeId cur = tree.CreateRoot(n);
  for (int i = 0; i < 2000; ++i) {
    cur = tree.AppendChild(cur, n);
  }
  tree.AssignDeweyCodes();
  EXPECT_EQ(tree.dewey(cur).depth(), 2001u);
  auto q = ParseXPath("//n/n/n/n", &tree.labels());
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(EvaluatePattern(*q, tree).size(), 1998u);
}

}  // namespace
}  // namespace xvr
