// The materialized fragment over a fixed catalog: its image format
// (storage/fragment.h, v2 "FRG2") is pinned byte for byte, and the heap a
// fragment takes in memory is bounded by its image size.
//
// The catalog is the §VI-A setup at XMark scale 0.1 with 200 views: a few
// thousand fragments, among them fragments with texts, with attributes and
// with more than one node.

#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "storage/fragment.h"
#include "storage/materializer.h"
#include "workload/workloads.h"
#include "workload/xmark.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define XVR_TEST_ALLOCATOR_REPLACED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define XVR_TEST_ALLOCATOR_REPLACED 1
#endif
#endif

namespace xvr {
namespace {

PaperSetup SmallCatalog() {
  XmarkOptions xmark;
  xmark.scale = 0.1;
  return BuildPaperSetup(xmark, /*num_views=*/200, /*seed=*/2008);
}

// FNV-1a over every fragment's Serialize() bytes, views in id order and
// each view's fragments in store (document) order. Recorded on the
// vector-backed fragment layout; a layout change must keep it.
constexpr uint64_t kPinnedImageDigest = 0x0b34f004bfea818eULL;

TEST(FragmentImageTest, CatalogImagesArePinned) {
  const PaperSetup setup = SmallCatalog();
  const FragmentStore& store = setup.engine->fragments();
  uint64_t digest = kFnv1aOffset;
  size_t fragments = 0;
  size_t with_text = 0;
  size_t with_attribute = 0;
  size_t multi_node = 0;
  for (int32_t view_id : store.view_ids()) {
    for (const Fragment& fragment : *store.GetView(view_id)) {
      const std::string image = fragment.Serialize();
      digest = Fnv1a(image, digest);
      ++fragments;
      EXPECT_EQ(fragment.ByteSize(), image.size());
      Result<Fragment> loaded = Fragment::Deserialize(image);
      ASSERT_TRUE(loaded.ok()) << loaded.status();
      EXPECT_EQ(loaded->Serialize(), image);
      bool text = false;
      bool attribute = false;
      for (int32_t i = 0; i < static_cast<int32_t>(fragment.size()); ++i) {
        text = text || fragment.text(i);
        attribute = attribute || fragment.attribute(i, "id");
      }
      with_text += text ? 1 : 0;
      with_attribute += attribute ? 1 : 0;
      multi_node += fragment.size() > 1 ? 1 : 0;
    }
  }
  EXPECT_GT(with_text, 0u);
  EXPECT_GT(with_attribute, 0u);
  EXPECT_GT(multi_node, 0u);
  EXPECT_EQ(digest, kPinnedImageDigest)
      << std::hex << "digest 0x" << digest << std::dec << " over "
      << fragments << " fragments";
}

#if defined(__GLIBC__) && !defined(XVR_TEST_ALLOCATOR_REPLACED)
size_t HeapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}
#endif

// Materializing the catalog's views takes at most twice the fragments'
// image bytes of heap: the fragment vectors, their fragments and whatever
// the fragments own.
TEST(FragmentFootprintTest, HeapIsAtMostTwiceTheImageBytes) {
#if defined(XVR_TEST_ALLOCATOR_REPLACED)
  GTEST_SKIP() << "the sanitizer's allocator holds a heap mallinfo2 does "
                  "not see";
#elif !defined(__GLIBC__)
  GTEST_SKIP() << "mallinfo2 is glibc's";
#else
  const PaperSetup setup = SmallCatalog();
  const Engine& engine = *setup.engine;
  const std::vector<int32_t> view_ids = engine.view_ids();
  std::vector<std::vector<Fragment>> kept;
  kept.reserve(view_ids.size());
  const size_t before = HeapInUse();
  for (int32_t view_id : view_ids) {
    Result<std::vector<Fragment>> built =
        MaterializeView(*engine.view(view_id), engine.doc());
    ASSERT_TRUE(built.ok()) << "view " << view_id << ": " << built.status();
    kept.push_back(std::move(built).value());
  }
  const size_t after = HeapInUse();
  size_t fragments = 0;
  size_t image_bytes = 0;
  for (const std::vector<Fragment>& view : kept) {
    for (const Fragment& fragment : view) {
      ++fragments;
      image_bytes += fragment.ByteSize();
    }
  }
  ASSERT_GT(image_bytes, 0u);
  ASSERT_GT(after, before);
  const size_t heap = after - before;
  EXPECT_LE(heap, 2 * image_bytes)
      << fragments << " fragments hold " << heap << " heap bytes for "
      << image_bytes << " image bytes ("
      << static_cast<double>(heap) / static_cast<double>(image_bytes)
      << "x)";
#endif
}

}  // namespace
}  // namespace xvr
