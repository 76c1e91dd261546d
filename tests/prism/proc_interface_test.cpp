#include "prism/proc_interface.h"

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

namespace prism::prism {
namespace {

struct Rig {
  PriorityDb db;
  kernel::NapiMode mode = kernel::NapiMode::kVanilla;
  ProcInterface proc{db, [this](kernel::NapiMode m) { mode = m; },
                     [this] { return mode; }};
};

TEST(ProcInterfaceTest, ModeWritesAndReads) {
  Rig r;
  EXPECT_EQ(r.proc.read("prism/mode"), "vanilla");
  EXPECT_TRUE(r.proc.write("prism/mode", "sync"));
  EXPECT_EQ(r.mode, kernel::NapiMode::kPrismSync);
  EXPECT_EQ(r.proc.read("prism/mode"), "sync");
  EXPECT_TRUE(r.proc.write("prism/mode", "batch"));
  EXPECT_EQ(r.mode, kernel::NapiMode::kPrismBatch);
  EXPECT_TRUE(r.proc.write("prism/mode", "vanilla"));
  EXPECT_EQ(r.mode, kernel::NapiMode::kVanilla);
}

TEST(ProcInterfaceTest, BadModeRejected) {
  Rig r;
  EXPECT_FALSE(r.proc.write("prism/mode", "turbo"));
  EXPECT_EQ(r.mode, kernel::NapiMode::kVanilla);
}

TEST(ProcInterfaceTest, PriorityAddDelClear) {
  Rig r;
  EXPECT_TRUE(r.proc.write("prism/priority", "add 172.17.0.2 11211"));
  EXPECT_TRUE(r.db.contains(net::Ipv4Addr::of(172, 17, 0, 2), 11211));
  EXPECT_EQ(r.proc.read("prism/priority"), "1");
  EXPECT_TRUE(r.proc.write("prism/priority", "del 172.17.0.2 11211"));
  EXPECT_TRUE(r.db.empty());
  EXPECT_FALSE(r.proc.write("prism/priority", "del 172.17.0.2 11211"));
  EXPECT_TRUE(r.proc.write("prism/priority", "add 1.2.3.4 1"));
  EXPECT_TRUE(r.proc.write("prism/priority", "clear"));
  EXPECT_TRUE(r.db.empty());
}

TEST(ProcInterfaceTest, MalformedPriorityWritesRejected) {
  Rig r;
  EXPECT_FALSE(r.proc.write("prism/priority", "add"));
  EXPECT_FALSE(r.proc.write("prism/priority", "add 1.2.3.4"));
  EXPECT_FALSE(r.proc.write("prism/priority", "add nonsense 80"));
  EXPECT_FALSE(r.proc.write("prism/priority", "add 1.2.3.4 99999"));
  EXPECT_FALSE(r.proc.write("prism/priority", "add 1.2.3.4 -1"));
  EXPECT_FALSE(r.proc.write("prism/priority", "frobnicate 1.2.3.4 1"));
  EXPECT_FALSE(r.proc.write("prism/priority", "add 1.2.3.4 80abc"));
  EXPECT_FALSE(r.proc.write("prism/priority", "add 1.2.3.4 80 high"));
  EXPECT_FALSE(r.proc.write("prism/priority", "add 1.2.3.4 80 2 extra"));
  EXPECT_FALSE(r.proc.write("prism/priority", "del 1.2.3.4 80 x"));
  EXPECT_FALSE(r.proc.write("prism/priority", "clear now"));
  EXPECT_TRUE(r.db.empty());
}

TEST(ProcInterfaceTest, UnknownPathRejected) {
  Rig r;
  EXPECT_FALSE(r.proc.write("prism/unknown", "x"));
  EXPECT_EQ(r.proc.read("prism/unknown"), "");
}

TEST(ProcInterfaceTest, TelemetryIndexListsEverySurfaceSorted) {
  Rig r;
  const std::string idx = r.proc.read("prism/telemetry/index");
  EXPECT_NE(idx.find("prism/mode\n"), std::string::npos);
  EXPECT_NE(idx.find("prism/priority\n"), std::string::npos);
  EXPECT_NE(idx.find("prism/telemetry/index\n"), std::string::npos);
  const auto paths = r.proc.paths();
  EXPECT_TRUE(std::is_sorted(paths.begin(), paths.end()));
}

TEST(ProcInterfaceTest, TelemetryIndexSeesLateRegistrations) {
  Rig r;
  ASSERT_EQ(r.proc.read("prism/telemetry/index").find("prism/custom"),
            std::string::npos);
  r.proc.register_file("prism/custom", [] { return std::string("42"); });
  // The index is computed per read, so the new file shows up at once —
  // and it cannot shadow the built-in index path itself.
  EXPECT_NE(r.proc.read("prism/telemetry/index").find("prism/custom\n"),
            std::string::npos);
  EXPECT_EQ(r.proc.read("prism/custom"), "42");
  r.proc.register_file("prism/telemetry/index",
                       [] { return std::string("shadow"); });
  EXPECT_NE(r.proc.read("prism/telemetry/index"), "shadow");
}

}  // namespace
}  // namespace prism::prism
