#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>

#include "common/hash.h"
#include "pattern/xpath_parser.h"
#include "storage/kv_store.h"
#include "vfilter/vfilter.h"
#include "vfilter/vfilter_serde.h"

namespace xvr {
namespace {

class VFilterSerdeTest : public ::testing::Test {
 protected:
  TreePattern Parse(const std::string& xpath) {
    auto r = ParseXPath(xpath, &dict_);
    EXPECT_TRUE(r.ok()) << xpath << ": " << r.status();
    return std::move(r).value();
  }
  LabelDict dict_;
};

TEST_F(VFilterSerdeTest, RoundTripPreservesFiltering) {
  VFilter filter;
  const std::vector<std::string> views = {"/s[t]/p", "/s[.//f]/p", "//s/p",
                                          "/s[p]/f//i", "/s/*/t"};
  for (size_t i = 0; i < views.size(); ++i) {
    filter.AddView(static_cast<int32_t>(i), Parse(views[i]));
  }
  const std::string image = SerializeVFilter(filter);
  EXPECT_EQ(image.size(), SerializedVFilterSize(filter));
  auto restored = DeserializeVFilter(image);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->num_views(), filter.num_views());
  EXPECT_EQ(restored->num_states(), filter.num_states());
  EXPECT_EQ(restored->num_transitions(), filter.num_transitions());

  for (const char* q :
       {"/s[f//i][t]/p", "/s/p", "/s/a/t", "//s/p/x", "/s[t][p]"}) {
    const TreePattern query = Parse(q);
    EXPECT_EQ(filter.Filter(query).candidates,
              restored->Filter(query).candidates)
        << q;
  }
}

TEST_F(VFilterSerdeTest, RoundTripPreservesOptions) {
  VFilterOptions options;
  options.normalize = false;
  options.index_attributes = true;
  VFilter filter(options);
  filter.AddView(0, Parse("/a/b"));
  auto restored = DeserializeVFilter(SerializeVFilter(filter));
  ASSERT_TRUE(restored.ok());
  EXPECT_FALSE(restored->options().normalize);
  EXPECT_TRUE(restored->options().index_attributes);
}

// The image of a small fixed catalog, pinned by its FNV-1a, with and
// without the attribute extension. The catalog has '*', '//', forms that
// normalization changes, value predicates and a removed view.
TEST_F(VFilterSerdeTest, ImageBytesArePinned) {
  const std::vector<std::string> views = {
      "/s[t]/p",   "/s[.//f]/p", "//s/p",
      "/s[p]/f//i", "/s/*//t",   "/s//*/t",
      "//a[@id = \"3\"]/b", "/s/*[@x > 1]//p"};
  for (const bool attributes : {false, true}) {
    VFilterOptions options;
    options.index_attributes = attributes;
    VFilter filter(options);
    for (size_t i = 0; i < views.size(); ++i) {
      filter.AddView(static_cast<int32_t>(i), Parse(views[i]));
    }
    filter.RemoveView(2);
    const uint64_t want =
        attributes ? 0x113e4dea9d65fb88ULL : 0xdc326f7009b89f5bULL;
    EXPECT_EQ(Fnv1a(SerializeVFilter(filter)), want)
        << "attributes " << attributes;
  }
}

// Rewrites the payload of a VFilter image (everything between the 16-byte
// header and the trailing checksum) and frames it again.
std::string Reframe(const std::string& image,
                    const std::function<void(std::string*)>& edit) {
  std::string payload = image.substr(16, image.size() - 24);
  edit(&payload);
  std::string bytes = image.substr(0, 8);
  const uint64_t length = payload.size();
  bytes.append(reinterpret_cast<const char*>(&length), 8);
  bytes += payload;
  const uint64_t checksum = Fnv1a(payload);
  bytes.append(reinterpret_cast<const char*>(&checksum), 8);
  return bytes;
}

void PutU32At(size_t pos, uint32_t v, std::string* bytes) {
  std::memcpy(bytes->data() + pos, &v, 4);
}

// The NFA is a trie and candidacy is per-path coverage, so an image of an
// unshared automaton (sharing flag clear), of a counter-mode filter
// (counter flag set) or with a second target for one symbol is
// PARSE_ERROR; LoadState then rebuilds the filter from the catalog.
TEST_F(VFilterSerdeTest, RejectsRemovedConfigurations) {
  VFilter filter;
  filter.AddView(0, Parse("/a"));
  const std::string image = SerializeVFilter(filter);
  ASSERT_TRUE(DeserializeVFilter(Reframe(image, [](std::string*) {})).ok());
  // Payload: flags (normalize 1, shared prefixes 2, counter mode 4,
  // attributes 8), an empty pred dictionary, one registry entry, the state
  // count, then state 0: flags, '*' target list, '//' loop list, the label
  // transition count and its (label, target list) entry.
  uint32_t flags = 0;
  std::memcpy(&flags, image.data() + 16, 4);
  ASSERT_EQ(flags, 3u);
  const auto expect_rejected = [&](const char* what,
                                   const std::function<void(std::string*)>&
                                       edit) {
    EXPECT_EQ(DeserializeVFilter(Reframe(image, edit)).status().code(),
              StatusCode::kParseError)
        << what;
  };
  expect_rejected("unshared", [](std::string* p) { PutU32At(0, 1, p); });
  expect_rejected("counter mode", [](std::string* p) { PutU32At(0, 7, p); });
  // State 0 starts at payload byte 24; its label entry's target list (one
  // target, state 1) at byte 44. Give it a second target, and give the
  // empty '*' list two.
  constexpr size_t kState0 = 24;
  std::string target(4, '\0');
  PutU32At(0, 1, &target);
  expect_rejected("two label targets", [&](std::string* p) {
    PutU32At(kState0 + 20, 2, p);
    p->insert(kState0 + 28, target);
  });
  expect_rejected("two '*' targets", [&](std::string* p) {
    PutU32At(kState0 + 4, 2, p);
    p->insert(kState0 + 8, target + target);
  });
}

TEST_F(VFilterSerdeTest, RejectsCorruptImages) {
  VFilter filter;
  filter.AddView(0, Parse("/a/b"));
  std::string image = SerializeVFilter(filter);
  EXPECT_FALSE(DeserializeVFilter("").ok());
  EXPECT_FALSE(DeserializeVFilter("garbage").ok());
  std::string truncated = image.substr(0, image.size() / 2);
  EXPECT_FALSE(DeserializeVFilter(truncated).ok());
  std::string bad_magic = image;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DeserializeVFilter(bad_magic).ok());
}

// An accept entry the image's registry does not hold is corruption, even
// inside a valid checksum: loading fails with PARSE_ERROR (LoadState then
// rebuilds the filter from the catalog) instead of serving the entry.
TEST_F(VFilterSerdeTest, RejectsAcceptEntriesOutsideTheRegistry) {
  const auto load_with = [&](int32_t view_id, int32_t path_id) {
    VFilter filter;
    filter.AddView(0, Parse("/a[b]//c"));  // |D(V)| = 2
    for (StateId s = 0; s < static_cast<StateId>(filter.num_states()); ++s) {
      if (!filter.nfa().states()[s].accepts.empty()) {
        PathNfa::State& state = filter.mutable_nfa().mutable_state(s);
        state.accepts.front().view_id = view_id;
        state.accepts.front().path_id = path_id;
        break;
      }
    }
    return DeserializeVFilter(SerializeVFilter(filter));
  };
  EXPECT_TRUE(load_with(0, 1).ok());
  // An unregistered view, and path ids outside [0, |D(V)|).
  EXPECT_EQ(load_with(5, 0).status().code(), StatusCode::kParseError);
  EXPECT_EQ(load_with(0, 2).status().code(), StatusCode::kParseError);
  EXPECT_EQ(load_with(0, -1).status().code(), StatusCode::kParseError);
}

// The writer sorts the registry by view id. A registry out of order or
// with a repeated id (here inside a valid checksum) is PARSE_ERROR: a
// repeated id would leave a slot that no view maps to.
TEST_F(VFilterSerdeTest, RejectsRegistryOutOfOrderOrRepeated) {
  VFilter filter;
  filter.AddView(3, Parse("/a/b"));
  filter.AddView(5, Parse("/a/c"));
  const std::string image = SerializeVFilter(filter);
  ASSERT_TRUE(DeserializeVFilter(image).ok());
  // Payload: flags, empty pred dictionary, view count, then the registry's
  // (view id, |D(V)|) pairs; the image frames it with 16 header bytes and a
  // trailing FNV-1a of the payload.
  constexpr size_t kRegistry = 16 + 12;
  constexpr size_t kEntry = 8;
  uint32_t num_views = 0;
  std::memcpy(&num_views, image.data() + kRegistry - 4, 4);
  ASSERT_EQ(num_views, 2u);
  const auto reframed = [&](const std::string& entries) {
    return DeserializeVFilter(Reframe(image, [&](std::string* payload) {
      payload->replace(kRegistry - 16, 2 * kEntry, entries);
    }));
  };
  const std::string first = image.substr(kRegistry, kEntry);
  const std::string second = image.substr(kRegistry + kEntry, kEntry);
  ASSERT_TRUE(reframed(first + second).ok());
  EXPECT_EQ(reframed(second + first).status().code(), StatusCode::kParseError);
  EXPECT_EQ(reframed(first + first).status().code(), StatusCode::kParseError);
}

TEST_F(VFilterSerdeTest, SizeGrowsSubLinearlyWithSharedPrefixes) {
  // Views sharing a long common prefix: doubling the view count should far
  // less than double the image (the Fig. 11 effect).
  auto build = [&](int n) {
    VFilter filter;
    for (int i = 0; i < n; ++i) {
      filter.AddView(i, Parse("/site/regions/africa/item/name" +
                              std::string(i % 2 == 0 ? "" : "/x" +
                                                               std::to_string(
                                                                   i))));
    }
    return SerializedVFilterSize(filter);
  };
  const size_t s1 = build(10);
  const size_t s2 = build(20);
  EXPECT_LT(static_cast<double>(s2),
            1.9 * static_cast<double>(s1));
}

TEST_F(VFilterSerdeTest, StoresInKvStore) {
  VFilter filter;
  filter.AddView(7, Parse("/a[b]//c"));
  KvStore kv;
  kv.Put("vfilter/main", SerializeVFilter(filter));
  const std::string* loaded = kv.Get("vfilter/main");
  ASSERT_NE(loaded, nullptr);
  auto restored = DeserializeVFilter(*loaded);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->NumPathsOf(7), 2);
}

}  // namespace
}  // namespace xvr
