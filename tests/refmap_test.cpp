// Tests for the reference-mapping tables (paper 3.2): export/import
// bijection, idempotence, release semantics, and GC-root enumeration.
#include <gtest/gtest.h>

#include <unordered_set>

#include "common/error.hpp"
#include "rpc/refmap.hpp"

namespace aide::rpc {
namespace {

TEST(RefMapTest, ExportAssignsStableHandle) {
  RefMap map;
  const auto h1 = map.export_object(ObjectId{10});
  const auto h2 = map.export_object(ObjectId{10});
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(map.export_count(), 1u);
}

TEST(RefMapTest, DistinctObjectsGetDistinctHandles) {
  RefMap map;
  std::unordered_set<ExportHandle> handles;
  for (std::uint64_t i = 0; i < 100; ++i) {
    handles.insert(map.export_object(ObjectId{i}));
  }
  EXPECT_EQ(handles.size(), 100u);
}

TEST(RefMapTest, ResolveInvertsExport) {
  RefMap map;
  for (std::uint64_t i = 0; i < 50; ++i) {
    const auto h = map.export_object(ObjectId{i * 7});
    EXPECT_EQ(map.resolve_export(h), ObjectId{i * 7});
  }
}

TEST(RefMapTest, ResolveUnknownThrows) {
  RefMap map;
  EXPECT_THROW((void)map.resolve_export(ExportHandle{999}), VmError);
}

TEST(RefMapTest, ReleaseByIdRemovesBothDirections) {
  RefMap map;
  const auto h = map.export_object(ObjectId{5});
  map.release_export(ObjectId{5});
  EXPECT_FALSE(map.is_exported(ObjectId{5}));
  EXPECT_THROW((void)map.resolve_export(h), VmError);
  map.release_export(ObjectId{5});  // idempotent
}

TEST(RefMapTest, ReleaseByHandle) {
  RefMap map;
  const auto h = map.export_object(ObjectId{5});
  map.release_export_handle(h);
  EXPECT_FALSE(map.is_exported(ObjectId{5}));
  map.release_export_handle(h);  // idempotent
}

TEST(RefMapTest, ReExportAfterReleaseGetsFreshHandle) {
  RefMap map;
  const auto h1 = map.export_object(ObjectId{5});
  map.release_export(ObjectId{5});
  const auto h2 = map.export_object(ObjectId{5});
  EXPECT_NE(h1, h2);
  EXPECT_EQ(map.resolve_export(h2), ObjectId{5});
}

TEST(RefMapTest, ForEachExportEnumeratesRoots) {
  RefMap map;
  map.export_object(ObjectId{1});
  map.export_object(ObjectId{2});
  map.export_object(ObjectId{3});
  map.release_export(ObjectId{2});
  std::unordered_set<ObjectId> seen;
  map.for_each_export([&](ObjectId id) { seen.insert(id); });
  EXPECT_EQ(seen, (std::unordered_set<ObjectId>{ObjectId{1}, ObjectId{3}}));
}

TEST(RefMapTest, ImportsTrackPeerHandles) {
  RefMap map;
  map.note_import(ExportHandle{42}, ObjectId{100});
  EXPECT_EQ(map.import_handle_for(ObjectId{100}), ExportHandle{42});
  EXPECT_EQ(map.import_count(), 1u);
  map.forget_import(ObjectId{100});
  EXPECT_FALSE(map.import_handle_for(ObjectId{100}).valid());
}

TEST(RefMapTest, UnknownImportIsInvalid) {
  RefMap map;
  EXPECT_FALSE(map.import_handle_for(ObjectId{1}).valid());
}

TEST(RefMapTest, ImportCanBeRebound) {
  // After a re-export by the peer, the stub maps to the new handle.
  RefMap map;
  map.note_import(ExportHandle{1}, ObjectId{100});
  map.note_import(ExportHandle{2}, ObjectId{100});
  EXPECT_EQ(map.import_handle_for(ObjectId{100}), ExportHandle{2});
  EXPECT_EQ(map.import_count(), 1u);
}

}  // namespace
}  // namespace aide::rpc
